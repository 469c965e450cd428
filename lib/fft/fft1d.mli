(** 1D complex fast Fourier transform.

    Power-of-two lengths use an iterative radix-2 decimation-in-time
    transform with its tables (bit-reversal swap list, twiddle factors,
    the vector kernel's per-stage twiddles) cached per length and
    direction; other
    lengths fall back to Bluestein's chirp-z algorithm (three
    power-of-two FFTs per line, with the chirp and the kernel spectrum
    cached per length and direction), so any positive length is
    supported — needed because reduced oversampling factors sigma < 2
    (Beatty gridding) produce non-power-of-two oversampled grid sizes.

    Transforms are unnormalised (like FFTW): [transform Inverse
    (transform Forward v)] equals [n * v]. *)

val is_pow2 : int -> bool
val next_pow2 : int -> int
(** Smallest power of two >= the argument (argument must be >= 1). *)

val transform : Dft.direction -> Numerics.Cvec.t -> unit
(** In-place FFT of the whole vector. Any length >= 1. Power-of-two
    lengths dispatch through the {!Simd} butterfly kernel when SIMD is
    active (bit-identical to the OCaml butterflies). *)

val transform_batch :
  Dft.direction -> Numerics.Cvec.t -> off:int -> count:int -> len:int -> unit
(** [transform_batch dir v ~off ~count ~len] — in-place FFT of [count]
    contiguous complex lines of length [len] starting at complex offset
    [off]: line [k] occupies [[off + k*len, off + (k+1)*len)). Each line
    is transformed exactly as {!transform} would transform it alone. This
    is the batched entry point of {!Fftnd}'s passes; with SIMD active a
    power-of-two batch is one C call, and a Bluestein line uses the
    cached tables and a domain-local work buffer, allocating nothing
    once warm. Raises [Invalid_argument] on [len < 1] or an
    out-of-bounds range. *)

val transformed : Dft.direction -> Numerics.Cvec.t -> Numerics.Cvec.t
(** Copying variant of {!transform}. *)

val inverse_normalized : Numerics.Cvec.t -> Numerics.Cvec.t
(** Inverse transform scaled by [1/n]: a true inverse of
    [transform Forward]. *)

val flop_estimate : int -> float
(** [5 n log2 n] — the standard complex-FFT flop count, used by the
    end-to-end performance models to estimate what a cuFFT/FFTW-class
    library would take on the evaluation hardware. *)

(** {2 Domain-local buffers} *)

type buffer_key
(** A reusable per-domain {!Numerics.Cvec.t}, grown on demand. *)

val buffer_key : unit -> buffer_key

val take_buffer : buffer_key -> int -> Numerics.Cvec.t
(** [take_buffer key len] — the calling domain's buffer if it holds at
    least [len] elements, else a fresh one. The contents are arbitrary.
    The buffer is taken with an atomic exchange, so systhreads of one
    domain never share it. *)

val give_buffer : buffer_key -> Numerics.Cvec.t -> unit
(** Return a buffer taken with {!take_buffer} for later takers. *)
