(** The Non-uniform Fast Fourier Transform (paper §II-B, Fig 1).

    A {!plan} fixes the problem geometry (base grid size [n], oversampling
    factor [sigma], window width [w], table oversampling [l]) and holds the
    interpolation weight table and apodization factors. Both depend on the
    geometry alone, so they come from process-wide stores
    ({!Numerics.Weight_table.shared}, {!Apodization.shared}) that hand
    every plan of one geometry the same immutable arrays and hold them
    weakly: a plan for a fresh trajectory of a live geometry builds no
    table, and a geometry whose plans are all gone frees its tables. The
    two NuFFT variants used in image reconstruction are then:

    - {e adjoint} (k-space -> image): (1) gridding, (2) FFT,
      (3) de-apodization;
    - {e forward} (image -> k-space): (1) pre-apodization, (2) FFT,
      (3) regridding (interpolation at the sample locations).

    Both approximate the corresponding NuDFT of {!Nudft} with error that
    decreases with [w], [sigma] and [l]; the pair is an exact adjoint pair
    by construction ([<forward x, y> = <x, adjoint y>] to rounding),
    which the property tests verify. Complexity is
    [O(M w^d + G^d log G^d)] versus the NuDFT's [O(M N^d)]. *)

type cached
(** One compiled decomposition: the coordinate arrays it was built for and
    the {!Sample_plan.t} replaying them. *)

type plan = private {
  n : int;  (** base (image) grid size per dimension *)
  sigma : float;  (** oversampling factor, 1 < sigma <= 2 typical *)
  g : int;  (** oversampled grid size, [round (sigma * n)] *)
  w : int;  (** interpolation window width *)
  l : int;  (** table oversampling factor *)
  tol : float option;
      (** requested relative tolerance when the plan was built via [?tol];
          [None] for explicit-knob plans *)
  kernel : Numerics.Window.t;
  table : Numerics.Weight_table.t;
      (** the weight table, from {!Numerics.Weight_table.shared}: every
          plan of one (kernel, w, l, precision) holds the same array *)
  deapod : Apodization.shared;
      (** per-dimension apodization factors ([values], length n), from
          {!Apodization.shared}: one record per (kernel, w, n, g) *)
  engine : Gridding.engine;
  pool : Runtime.Pool.t option;
      (** domain pool used by every transform of this plan *)
  simd : bool;
      (** always [true]: the [_compiled] spread/gather replay through the
          {!Simd} C kernels whenever {!Simd.enabled}, as the FFT and
          deapodization stages do, and through the OCaml loops under
          [JIGSAW_SIMD=off]. Kept so callers replaying a plan's
          {!Sample_plan} directly can pass it as [~simd]. *)
  mutable cache : cached option;
      (** most recently compiled sample plan, keyed on the physical
          identity of the bound coordinate arrays *)
  slot : Numerics.Cvec.t Atomic.t;
      (** the plan's one reusable [g^dims] transform grid (see
          {!grid_bytes}); empty while a transform holds it *)
}

val make :
  ?tol:float ->
  ?family:Numerics.Window.family ->
  ?kernel:Numerics.Window.t ->
  ?w:int ->
  ?sigma:float ->
  ?l:int ->
  ?engine:Gridding.engine ->
  ?table_precision:Numerics.Weight_table.precision ->
  ?pool:Runtime.Pool.t ->
  n:int ->
  unit ->
  plan
(** Create a plan for an [n^d] image. Defaults: Kaiser-Bessel window with
    the Beatty beta, [w = Window.default_width ~sigma] (6 at the default
    [sigma = 2.0]), [l = 512], [engine = Serial]. The weight table and
    deapodization factors are built only when no live plan (or other
    holder) of the same geometry has them; otherwise they are shared.

    A plan serves the lattice-coupled transform types: {!adjoint} is
    type-1 ({!Transform.Type1}, nonuniform to uniform) and {!forward} is
    type-2 ({!Transform.Type2}, uniform to nonuniform). The
    nonuniform-to-nonuniform type-3 transform has its own preparation —
    {!make_type3} — because its geometry is derived from the source and
    target point clouds rather than from [n].

    [tol] switches the plan to tolerance-driven geometry: kernel + width
    come from {!Numerics.Window.for_tolerance} (family ES unless
    [~family:KB]) and the table oversampling from
    {!Numerics.Window.lut_for_tolerance}, so the measured relative-L2
    error of the transforms vs the exact NuDFT stays within 10x the
    request (asserted by the accuracy sweep in [dune runtest]). [tol] is
    mutually exclusive with explicit [kernel] or [w] — mixing them raises
    [Invalid_argument]; an explicit [l] still wins over the derived one.
    Without [tol], [family] merely selects which default kernel family is
    built at the explicit/default width.

    Raises [Invalid_argument] for inconsistent geometry ([n < 2], [w < 2],
    [w > g], [sigma <= 1], ...). A Slice-and-Dice engine's tile size is
    validated here against {!Coord.check_tiling} ([w <= t], [t | g]) so an
    invalid decomposition is rejected at plan time, not at first use.

    With [pool], every adjoint/forward application of the plan reuses that
    domain pool: the row/column FFT passes are batched over it, the 3D
    adjoint grids with {!Gridding3d.grid_3d_parallel}, and a
    [Gridding.Slice_parallel] engine distributes its dice columns over it.
    One pool amortises domain spawning across all iterations of a CG
    reconstruction. Results are bit-identical to the pool-less plan except
    for the 3D gridding schedule (sliced rather than sample-outer, equal to
    within accumulation order). *)

val resolve_geometry :
  ?tol:float ->
  ?family:Numerics.Window.family ->
  ?kernel:Numerics.Window.t ->
  ?w:int ->
  ?l:int ->
  sigma:float ->
  unit ->
  float option * Numerics.Window.t * int * int
(** [(tol, kernel, w, l)] after applying {!make}'s derivation rules —
    exported so {!Operator.context} resolves the identical geometry the
    plan its factory builds will carry. Raises on the same invalid
    combinations as {!make}. *)

(** {2 The NuFFT pipeline}

    Every adjoint in the repository — the plan's paper engines, compiled
    replay, the serving tier's arena path and the hardware models — is
    [spread -> inverse FFT -> crop/deapodize] through {!grid_to_image};
    every forward starts with {!image_to_grid}. Only the spreading (and,
    for the forward, the interpolation) differs between callers. *)

(** Wall-clock decomposition of adjoint applications, for the
    gridding-dominance experiments (paper §I: gridding can be >99.6% of
    NuFFT time). An accumulator: each timed application adds its stage
    times (monotonic clock). *)
type timings = {
  mutable gridding_s : float;
  mutable fft_s : float;
  mutable deapod_s : float;
}

val create_timings : unit -> timings
(** A zeroed accumulator. *)

val gridding_fraction : timings -> float
(** Gridding share of total time, in [0, 1]. *)

val grid_to_image :
  ?timings:timings ->
  ?pool:Runtime.Pool.t ->
  plan ->
  spread:(unit -> Numerics.Cvec.t) ->
  Numerics.Cvec.t ->
  unit
(** [grid_to_image plan ~spread image] — the adjoint's stages:
    [spread ()] produces the oversampled [g^dims] grid (by any means: a
    gridding engine, compiled replay, a hardware model's readout), which
    is inverse-FFT'd in place on [pool] (default: the plan's pool), then
    cropped and de-apodized into the caller's [image]. The FFT is
    {!Fft.Fftnd.transform_cropped}: its last passes transform only the
    lines the crop reads, so the grid is left holding partial results
    elsewhere. The dimensionality follows from the image length ([n^2]
    or [n^3]); every element of [image] is overwritten. With [timings],
    the three stage times are added to it. *)

val image_to_grid : plan -> Numerics.Cvec.t -> (Numerics.Cvec.t -> 'a) -> 'a
(** [image_to_grid plan image k] — the forward's head: embed the centred
    [n^2] image or [n^3] volume into a zero-padded, apodization-divided
    [g^dims] grid, forward-FFT it on the plan's pool
    ({!Fft.Fftnd.transform_padded}: the all-zero padding lines are
    skipped) and return [k grid]. The grid is the plan's reusable slot
    (a fresh one when another transform holds it) and is valid only
    inside [k]. *)

val grid_bytes : plan -> dims:int -> int
(** Bytes of the plan's reusable [g^dims] transform grid: each plan
    keeps at most one, taken by {!adjoint_compiled},
    {!forward_compiled}, {!forward} and {!image_to_grid} for the length
    of one transform; the serving plan cache counts it in its budget. *)

val adjoint :
  ?stats:Gridding_stats.t ->
  ?timings:timings ->
  plan ->
  Sample.t ->
  Numerics.Cvec.t
(** Adjoint NuFFT through the plan's gridding engine (the paper's model;
    in 3D the (pool-)sliced {!Gridding3d} schedule whatever the engine):
    an [n^2] image or [n^3] volume, row-major, centred. The sample set's
    [g] must match the plan's. *)

val forward :
  ?stats:Gridding_stats.t ->
  plan ->
  coords:Sample.t ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t
(** Forward NuFFT: evaluate the [n^dims] image's spectrum at the
    coordinates of [coords] (whose values are ignored) with the plan's
    direct interpolation. *)

val crop_deapodize_2d_into :
  plan -> Numerics.Cvec.t -> Numerics.Cvec.t -> unit
(** [crop_deapodize_2d_into plan big image] — fold an inverse-FFT'd
    [g x g] oversampled grid down to the centred, de-apodized [n x n]
    image (adjoint steps 2.5–3), into a caller-provided buffer. Every
    element is overwritten. *)

val pad_apodize_2d : plan -> Numerics.Cvec.t -> Numerics.Cvec.t
(** [pad_apodize_2d plan image] — embed the centred [n x n] image into a
    [g x g] zero-padded grid with apodization pre-division (forward
    step 1). *)

(** {2 Compiled sample plans}

    Iterative reconstruction applies one (engine x trajectory) pair tens of
    times. {!compiled} performs the engine's slice-and-dice decomposition
    once — flat per-sample arrays of window indices and weights — and the
    [_compiled] transforms replay it, bit-identically to the serial and
    slice engines. The plan caches the most recent compilation keyed on the
    {e physical identity} of the coordinate arrays ([Sample.with_values]
    preserves them, so the CG forward/adjoint ping-pong always hits); a
    sample set with different coordinate arrays transparently recompiles.
    Stats: compilation charges the decomposition cost ([boundary_checks]
    per the plan's engine model, plus [window_evals]); replay charges only
    [samples_processed] / [grid_accumulates]. *)

val compiled : ?stats:Gridding_stats.t -> plan -> Sample.t -> Sample_plan.t
(** Compiled decomposition of the sample set's coordinates (built on first
    use, cached thereafter). The sample set's [g] must match the plan's. *)

val adjoint_compiled :
  ?stats:Gridding_stats.t ->
  ?timings:timings ->
  ?pool:Runtime.Pool.t ->
  plan ->
  Sample.t ->
  Numerics.Cvec.t
(** {!adjoint} through the compiled plan: replay-spread, FFT (on the
    plan's pool if any), de-apodize. The replay pool is [?pool] if given,
    else the plan's pool; with a pool the spread is region-sharded via
    {!Sample_plan.spread_parallel} — bit-identical to serial replay for
    every pool size. There is never an implicit global-pool fallback:
    no pool anywhere means serial replay, so callers already running
    inside a pool cannot deadlock on a nested submission.

    Every stage dispatches on {!Simd.enabled}: the spread replays
    through the factored {!Simd} kernels, bit-identical to the OCaml
    loop of [JIGSAW_SIMD=off]. With [timings], compilation (first call
    only) is accounted to the gridding stage. *)

val forward_compiled :
  ?stats:Gridding_stats.t ->
  ?pool:Runtime.Pool.t ->
  plan ->
  coords:Sample.t ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t
(** {!forward} through the compiled plan: pad/apodize, FFT, replay-gather
    at the compiled sample locations ({!Sample_plan.gather_parallel} over
    the same resolved pool as {!adjoint_compiled}). *)

(** {2 Type-3 transforms (nonuniform to nonuniform)}

    [f_k = sum_j c_j e^{+i s_k . x_j}] for arbitrary real source points
    [x_j] and target frequencies [s_k] — neither constrained to a lattice
    or to [[-pi, pi)]. Computed by the standard scale/shift decomposition:
    centre both point clouds, rescale the sources into the primary box,
    spread them with the plan kernel onto a fine grid of [nf] points per
    dimension (the existing compiled type-1 machinery), evaluate the
    gridded series at the rescaled target frequencies with a type-2 pass
    of an inner [n = nf] plan, then undo the spreading convolution with
    the kernel's continuous Fourier transform and restore the centring
    phases. See the implementation comment for the derivation; accuracy
    tracks the requested tolerance through both stages and is asserted
    against {!Nudft.type3} by the accuracy-contract sweep. *)

type t3
(** A prepared type-3 transform: fixed source/target geometry, compiled
    spread decomposition, inner type-2 plan, and the pre/post phase and
    kernel-correction vectors. Apply with {!type3_exec}. *)

val make_type3 :
  ?tol:float ->
  ?family:Numerics.Window.family ->
  ?kernel:Numerics.Window.t ->
  ?w:int ->
  ?sigma:float ->
  ?l:int ->
  ?pool:Runtime.Pool.t ->
  sources:float array array ->
  targets:float array array ->
  unit ->
  t3
(** [make_type3 ~sources ~targets ()] prepares the transform for the given
    point sets (one axis array per dimension; 2 or 3 dims; axes of one set
    must share a length). Geometry knobs ([tol]/[family]/[kernel]/[w]/
    [sigma]/[l]) resolve exactly as in {!make}; [pool] flows to the
    spread replay, the inner FFT and the inner gather. Raises
    [Invalid_argument] on dimension/length mismatches, non-finite
    coordinates, or when the product of source and target extents forces
    a fine grid too large to allocate ([(2 nf)^dims > 2^26] cells) — in
    that regime rescale the problem instead. *)

val type3_exec :
  ?stats:Gridding_stats.t -> t3 -> Numerics.Cvec.t -> Numerics.Cvec.t
(** [type3_exec t c] applies the prepared transform to source strengths
    [c] (length = source count), returning the target-frequency values
    (length = target count). Repeated applications replay the compiled
    decompositions; no per-call compilation. *)

val type3_dims : t3 -> int
val type3_source_count : t3 -> int
val type3_target_count : t3 -> int

val type3_fine_grid : t3 -> int
(** The fine-grid size [nf] per dimension the decomposition chose. *)

val type3_width : t3 -> int
(** Resolved spreading-kernel width (shared by both stages). *)

val type3_tol : t3 -> float option
(** The tolerance the geometry was derived from, if any. *)
