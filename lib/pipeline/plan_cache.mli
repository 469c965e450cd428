(** Concurrency-safe LRU cache of compiled NuFFT operators.

    The plan/execute split of PyNUFFT and cuFINUFFT, lifted to a serving
    layer: repeated reconstructions over the same trajectory should pay
    for plan construction and the slice-and-dice decomposition exactly
    once. The cache is keyed on the full operator identity —
    [(backend, n, sigma, w, l, g, transform, targets, coordinate
    fingerprint)] — with a
    structural coordinate comparison on fingerprint match, so distinct
    trajectories that collide in the fingerprint still get distinct
    entries.

    {2 Canonical coordinates}

    The plan layer keys its compiled decomposition on the {e physical
    identity} of the coordinate arrays. The cache therefore remembers the
    first request's arrays as the entry's {e canonical} coordinates,
    pre-compiles the decomposition at build time (one
    [sample_plan.cache_miss], ever), and wraps the returned operator so
    any warm request whose coordinate arrays are equal-but-distinct is
    transparently rebound onto the canonical arrays — every warm
    application replays the compiled plan; none recompiles, and concurrent
    warm requests cannot race on the plan's internal cache.

    {2 Concurrency}

    Lookups are mutex-protected; a miss inserts an in-flight marker and
    builds {e outside} the lock, so concurrent misses on different keys
    build in parallel while concurrent lookups of the same key block until
    the single build completes (asserted in the tests via the
    [sample_plan.cache_miss] counter). Eviction is LRU over completed
    entries, triggered when either the entry count or the byte budget
    (estimated decomposition + coordinate footprint, plus the operator's
    Toeplitz spectrum and pad buffer once a normal-map application has
    built them — {!Nufft.Toeplitz.bytes}, read at every budget check) is
    exceeded; in-flight entries are never evicted.

    Telemetry: [cache.hit] / [cache.miss] / [cache.eviction] counters,
    mirrored by the per-instance {!stats}. *)

type t

type stats = {
  hits : int;  (** lookups served from a completed entry *)
  misses : int;  (** lookups that performed a build *)
  evictions : int;
  entries : int;  (** current resident entries (including in-flight) *)
  bytes : int;
      (** estimated resident footprint, including the Toeplitz spectra
          built so far *)
}

val create :
  ?max_entries:int ->
  ?max_bytes:int ->
  ?fingerprint:(Nufft.Sample.t -> int) ->
  unit ->
  t
(** New empty cache (defaults: 32 entries, 256 MiB). [fingerprint]
    overrides the trajectory hash — the tests use a constant function to
    force collisions and exercise the structural-comparison guard. *)

val default_fingerprint : Nufft.Sample.t -> int
(** djb2-xor over the raw bits of every coordinate and the grid size. *)

val operator :
  t -> backend:string -> ctx:Nufft.Operator.ctx -> Nufft.Operator.op * Nufft.Sample.t
(** [operator t ~backend ~ctx] returns the cached operator for this
    backend and context, building (and compiling the trajectory
    decomposition) on first use, together with the entry's canonical
    sample set — replay transforms through those exact coordinate arrays
    to hit the plan-level compiled cache physically. Raises
    [Invalid_argument] exactly where {!Nufft.Operator.create} does
    (unknown backend, unsupported dimensionality); a failed build leaves
    the cache unchanged.

    The cache deliberately ignores [ctx.pool] in the key: use one pool
    policy per cache (the reconstruction service always builds cached
    operators pool-less, because their applications run inside the
    service's own [parallel_for]). *)

val stats : t -> stats
