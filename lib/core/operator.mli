(** First-class NuFFT operators and the backend registry.

    The paper's evaluation (Fig 1, Fig 9) swaps interchangeable gridding
    backends — CPU engines, GPU kernels, the JIGSAW ASIC — under one
    reconstruction pipeline. This module is that seam in software: every
    backend is packaged as a first-class module implementing {!NUFFT_OP}
    (the plan-as-operator abstraction of FINUFFT/cuFINUFFT), and consumers
    ({!Imaging.Recon}, CG, the CLI) are written against the interface
    alone, so they are backend- and dimension-agnostic.

    An operator is bound at creation to a {e context}: problem size [n],
    oversampling, window, and — crucially — the sample {e coordinates}
    (the "setpts" of FINUFFT). [adjoint] maps any sample set on the same
    grid to an image; [forward] evaluates an image's spectrum at the bound
    coordinates and returns them as a sample set.

    The five CPU gridding engines self-register here at library load.
    Hardware-model backends live in their own libraries to keep the
    dependency graph acyclic — call [Jigsaw.Operator_backend.register ()]
    and [Gpusim.Operator_backend.register ()] to add them. *)

(** Cumulative per-operator instrumentation: application counts, stage
    wall-clock (gridding / FFT / de-apodization, summed over adjoints),
    simulated cycles for hardware-model backends (0 for CPU), and the
    engine work counters. *)
type stats = {
  mutable adjoints : int;
  mutable forwards : int;
  mutable type3s : int;  (** type-3 applications *)
  stages : Plan.timings;
      (** gridding / FFT / de-apodization, summed over adjoints; the
          accumulator every backend hands to {!Plan.grid_to_image} *)
  mutable adjoint_s : float;  (** total adjoint wall-clock *)
  mutable forward_s : float;  (** total forward wall-clock *)
  mutable type3_s : float;  (** total type-3 wall-clock *)
  mutable cycles : int;  (** simulated hardware cycles (JIGSAW, GPU) *)
  grid : Gridding_stats.t;
}

val create_stats : unit -> stats
val pp_stats : Format.formatter -> stats -> unit

(** {2 Telemetry unification}

    Shared application-recording hooks: all backends (CPU plans here,
    hardware models in [Jigsaw.Operator_backend] / [Gpusim.Operator_backend])
    report through these, which update the per-operator {!stats} record and
    mirror the deltas into the process-wide {!Telemetry} registry
    ([op.adjoints], [op.forwards], [op.cycles]). *)

val adjoint_span : string -> Telemetry.span
(** [adjoint_span backend] opens a [cat:"op"] ["op.adjoint"] span tagged
    with the backend name; {!Telemetry.null_span} when disabled. *)

val forward_span : string -> Telemetry.span

val record_adjoint : ?cycles:int -> stats -> elapsed_s:float -> unit
(** Count one adjoint application: bumps [adjoints], accumulates
    simulated [cycles] when given, adds [elapsed_s] to [adjoint_s], and
    mirrors to telemetry counters. Stage times are not passed here: the
    backend's transform adds them to [stages] itself. *)

val record_forward : ?cycles:int -> stats -> elapsed_s:float -> unit

val record_type3 : stats -> elapsed_s:float -> unit
(** Count one type-3 application ([type3s], [type3_s], [op.type3s]). *)

(** One NuFFT backend, bound to a problem geometry and sample
    coordinates. *)
module type NUFFT_OP = sig
  val name : string
  val dims : int  (** 2 or 3 *)

  val n : int  (** image size per dimension *)

  val g : int  (** oversampled grid size *)

  val plan : Plan.plan option
  (** The CPU plan whose compiled replay path {e is} this operator's own
      adjoint/forward ([Some] for every {!of_plan}-built backend), exposed
      so a serving layer can pre-compile the trajectory decomposition
      ({!Plan.compiled}) and reuse the plan's pipeline-stage helpers.
      [None] for hardware-model backends (JIGSAW fixed-point, GPU f32
      simulation), whose numerics a CPU plan must never substitute. *)

  val transforms : Transform.t list
  (** The transform types {e this instance} can apply: always
      [Type1; Type2] (the adjoint/forward pair below), plus [Type3] when
      the operator was built from a type-3 context and so carries a
      prepared type-3 leg. *)

  val adjoint : Sample.t -> Numerics.Cvec.t
  (** Type-1, k-space to image: gridding, FFT, de-apodization. Accepts
      any sample set with matching [g] and dimensionality; returns the
      centred row-major [n^dims] image. *)

  val forward : Numerics.Cvec.t -> Sample.t
  (** Type-2, image to k-space at the {e bound} coordinates: apodization,
      FFT, interpolation. Returns the bound coordinate set carrying the
      evaluated values. *)

  val type3 : (Numerics.Cvec.t -> Numerics.Cvec.t) option
  (** Type-3 leg: strengths at the bound source coordinates to values at
      the bound target frequencies ({!Plan.make_type3} geometry prepared
      at operator build time). [None] unless the operator was created
      from a [Transform.Type3] context — hardware-model backends never
      provide it. *)

  val normal : Toeplitz.t option
  (** The Toeplitz embedding of this instance's normal map [A^H W A]
      ([Some] for every {!of_plan}-built backend; built on first use and
      shared by every wrapper that [include]s this module). [None] for
      hardware-model backends, whose normal map stays
      [adjoint (W forward x)] through their own numerics. *)

  val stats : unit -> stats
  (** Instrumentation accumulated over every application so far. *)
end

type op = (module NUFFT_OP)

(** Everything a factory needs to build an operator: geometry parameters
    plus the coordinates the operator is bound to ([g] is implied by
    [coords.g = round (sigma * n)]). *)
type ctx = {
  n : int;
  sigma : float;
  w : int;  (** resolved window width (derived from [tol] when set) *)
  l : int;  (** resolved table oversampling *)
  tol : float option;  (** requested relative tolerance, if any *)
  family : Numerics.Window.family option;
  kernel : Numerics.Window.t;
      (** resolved kernel — what every backend's weight tables must be
          built from (hardware models included) *)
  transform : Transform.t;
      (** the transform type the consumer intends to apply; the registry
          filters backends on it *)
  targets : float array array option;
      (** type-3 target frequencies (one axis per dimension); [None] with
          [Type3] means the centred integer lattice. Always [None] for
          type-1/2. *)
  coords : Sample.t;
  pool : Runtime.Pool.t option;
}

type factory = ctx -> op

val context :
  ?tol:float ->
  ?family:Numerics.Window.family ->
  ?kernel:Numerics.Window.t ->
  ?w:int ->
  ?sigma:float ->
  ?l:int ->
  ?pool:Runtime.Pool.t ->
  ?transform:Transform.t ->
  ?targets:float array array ->
  n:int ->
  coords:Sample.t ->
  unit ->
  ctx
(** Smart constructor sharing {!Plan.resolve_geometry} with {!Plan.make}:
    same defaults ([sigma = 2.0], [w = Window.default_width ~sigma],
    [l = 512], Kaiser-Bessel/Beatty kernel), same tolerance-driven path
    ([tol] derives kernel + [w] + [l]; mutually exclusive with explicit
    [kernel]/[w]), so [ctx.w]/[ctx.l]/[ctx.kernel] always equal the
    geometry of the plan a CPU factory builds. Checks
    [coords.g = round (sigma * n)].

    [transform] (default {!Transform.Type1}) declares which transform the
    operator will be asked to apply; {!create} rejects backends that do
    not list it — the CPU engines support all three types, the jigsaw and
    gpusim hardware models only type-1/type-2, and the mismatch surfaces
    here as a typed [Invalid_argument] naming the supported set instead
    of failing at apply time. [targets] (type-3 only) gives the target
    frequencies, one axis array per dimension, validated for shape and
    finiteness; omitted, the type-3 leg evaluates on the centred integer
    lattice (on which type-3 reproduces type-1). *)

val ctx_dims : ctx -> int
val ctx_grid : ctx -> int

(** {2 Registry} *)

type entry = {
  name : string;
  dims : int list;  (** dimensionalities the backend supports *)
  transforms : Transform.t list;  (** transform types the backend supports *)
  doc : string;
  factory : factory;
}

val register :
  ?dims:int list ->
  ?transforms:Transform.t list ->
  ?doc:string ->
  string ->
  factory ->
  unit
(** Add a backend under a unique name (default [dims = [2; 3]],
    [transforms = [Type1; Type2]] — hardware models keep the default, the
    CPU engines register with {!Transform.all}). Raises
    [Invalid_argument] on a duplicate name. *)

val all : unit -> (string * factory) list
(** Every registered backend, in registration order. *)

val entries : unit -> entry list

val names : ?dims:int -> ?transform:Transform.t -> unit -> string list
(** Registered names, optionally only those supporting [dims]-dimensional
    problems and/or the given transform type (what the CLI's
    [--list-backends] prints). *)

val find : string -> entry option

val create : string -> ctx -> op
(** Look up a backend by name and build it. Raises [Invalid_argument] for
    an unknown name (the message lists the registered ones), a
    dimensionality the backend does not support, or a [ctx.transform]
    outside the backend's declared {!entry.transforms} (the message names
    the supported set). *)

val resolve_backend : string -> string
(** [resolve_backend "auto"] is ["serial"], as is
    [resolve_backend "replay-simd"] (a retired registry name that built
    the same plan, kept so clients that send it keep working); any other
    name is returned unchanged. Every CPU plan's replay dispatches on
    {!Simd.enabled}, so the rule needs no SIMD case, and an ["auto"] and
    a ["serial"] request share one plan-cache entry. *)

(** {2 Helpers} *)

val name_of : op -> string
val dims_of : op -> int

val image_length : op -> int
(** [n^dims] — length of the image vector the operator produces. *)

val apply_adjoint : op -> Sample.t -> Numerics.Cvec.t
val apply_forward : op -> Numerics.Cvec.t -> Sample.t

val apply_type3 : op -> Numerics.Cvec.t -> Numerics.Cvec.t
(** Apply the operator's type-3 leg. Raises [Invalid_argument] (naming
    the instance's supported transforms) when the operator was not built
    for type-3. *)

val stats_of : op -> stats

val plan_of : op -> Plan.plan option
(** The operator's underlying CPU plan, if it has one (see
    {!NUFFT_OP.plan}). *)

val transforms_of : op -> Transform.t list
val type3_of : op -> (Numerics.Cvec.t -> Numerics.Cvec.t) option

val normal : ?weights:float array -> op -> Numerics.Cvec.t -> Numerics.Cvec.t
(** [normal ~weights op x] is [A^H W A x] ([W = I] without [weights]),
    the fast normal map of CG. Plan-backed operators run
    the instance's {!Toeplitz} embedding: two pruned [(2n)^dims] FFTs
    around a cached spectrum, no gridding (see {!Toeplitz.apply}).
    Hardware-model operators compute
    [adjoint (Sample.weighted ~weights (forward x))]. Each call is one
    [op.normal] span. Raises [Invalid_argument] when [weights] does not
    have one entry per bound sample. *)

val normal_gridded :
  ?weights:float array -> op -> Numerics.Cvec.t -> Numerics.Cvec.t
(** [A^H W A x] as the gridding composition
    [adjoint (Sample.weighted ~weights (forward x))] on every backend:
    exactly positive semi-definite, with the null space of the adjoint
    that forms the right-hand side. CG runs on it for long solves and
    sparse sample sets ([Imaging.Cg.solve_normal]).
    One [op.normal] span per call. *)

val normal_of : op -> Toeplitz.t option
(** The operator's Toeplitz state (see {!NUFFT_OP.normal}). *)

val lattice_targets : dims:int -> n:int -> float array array
(** The centred integer lattice as a type-3 target set: [n^dims] points,
    row-major with x fastest, axis values in [[-n/2, n/2)] — the default
    targets a [Transform.Type3] context without explicit [targets] binds,
    and the set on which type-3 mathematically reduces to type-1. *)

val of_plan :
  ?name:string ->
  ?transform:Transform.t ->
  ?targets:float array array ->
  Plan.plan ->
  coords:Sample.t ->
  op
(** Wrap an existing CPU plan as an operator bound to [coords] (which must
    live on the plan's grid). This is how every CPU registry entry is
    implemented, and the escape hatch for custom plans (window, table
    precision, ...).

    Forward/adjoint go through the plan's compiled sample plan
    ({!Plan.adjoint_compiled} / {!Plan.forward_compiled}): the engine's
    slice-and-dice decomposition is performed once, on the first
    application, and every later application — each iteration of a CG
    solve — replays the precomputed window indices and weights,
    bit-identically to the serial engine. The plan's gridding engine
    itself runs through {!Plan.adjoint} (e.g. to benchmark or
    differential-test the engines).

    Each instance also owns the Toeplitz state of its normal map
    ({!NUFFT_OP.normal}, {!normal}): nothing is built until the first
    {!normal} call, so adjoint-only use never pays for the spectrum.

    With [~transform:Type3] the operator additionally prepares a type-3
    leg ({!Plan.make_type3}) whose sources are the bound coordinates read
    back as angular frequencies and whose targets are [targets] (default:
    {!lattice_targets}); preparation is eager, so geometry errors surface
    here rather than at first application. *)
