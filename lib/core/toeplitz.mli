(** Toeplitz embedding of a plan-backed operator's normal map.

    Iterative reconstruction applies the normal operator [T = A^H W A] of
    the forward NuFFT [A] with real sample weights [W] once per CG
    iteration. Because the samples are fixed, [T] is block-Toeplitz:
    [(T x)(p) = sum_p' q(p - p') x(p')] with
    [q(d) = sum_j w_j e^{+i omega_j . d}]. Embedded in a [(2n)^dims]
    circulant, it runs as two pruned FFTs around a pointwise multiply by
    the kernel's spectrum, with no gridding per application. This is the
    "Toeplitz-based strategy" of the Impatient framework the paper
    compares against (Gai et al. 2013).

    {b Kernel build.} The [n^dims] blocks of [q] on [[-n, n)^dims] are the
    operator's own adjoint ({!Plan.adjoint_compiled}, replaying the
    compiled sample plan already bound to the coordinates) of the
    modulated weights [w_j e^{+i omega_j . c}], one per corner offset
    [c]; no second plan is built. Real weights make
    [q(-d) = conj q(d)], so only the [2^(dims-1)] blocks with
    non-negative x displacements are replayed and the rest is their
    conjugate mirror. The blocks are wrapped into the circulant grid and
    transformed once; the spectrum of the Hermitian kernel is real up to
    rounding, and only its real part is kept, which makes the embedded
    operator exactly Hermitian.

    {b State.} A [t] belongs to one operator instance ({!Operator.of_plan}
    makes it): nothing is built until the first {!apply}, so adjoint-only
    traffic never pays for the spectrum, and the spectrum is collected
    with its operator. The built spectrum is keyed on the weights — the
    same array (physical identity) or equal contents — and published
    through an [Atomic]: the first build to publish wins, and since the
    build is deterministic every caller sees the same bits. A hit on
    equal contents in a new array re-keys the state on that array. A weight
    array must not be mutated after it was passed in; pass a fresh array
    instead. Other weights rebuild the spectrum (one state per operator:
    a solve alternating two weight vectors on one operator rebuilds on
    every call). *)

type t

val create : Plan.plan -> coords:Sample.t -> t
(** The (unbuilt) embedding of [plan]'s normal map at [coords], which
    must lie on the plan's grid. Costs nothing until {!apply}. *)

val apply : ?weights:float array -> t -> Numerics.Cvec.t -> Numerics.Cvec.t
(** [apply ~weights t x] is [A^H W A x] for an [n^dims] image [x]
    ([W = I] without [weights]): pad [x] into the reused [(2n)^dims]
    buffer, {!Fft.Fftnd.transform_padded} forward, multiply by the
    spectrum (built on the first call for these weights, counted by the
    [op.normal_spectra_built] counter under an [op.normal_build] span),
    {!Fft.Fftnd.transform_cropped} inverse, crop. FFT lines run on the
    plan's pool. A warm call allocates only the returned image. Raises
    [Invalid_argument] on an image or weights length mismatch. *)

val sample_count : t -> int
(** The number of samples the embedding is bound to. *)

val spectrum : t -> float array option
(** The built spectrum ([(2n)^dims] reals, pre-scaled by
    [1/(2n)^dims]), [None] before the first {!apply}. *)

val bytes : t -> int
(** Bytes held once built: the spectrum and the pad buffer. 0 before
    the first {!apply}. *)
