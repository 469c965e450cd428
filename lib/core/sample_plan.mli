(** Compiled sample plans: the slice-and-dice decomposition done once.

    A compiled plan is the fixed part of gridding a particular trajectory,
    stored factored per axis, the way JIGSAW's weight unit and FINUFFT's
    spreader see a separable kernel: for every sample and every axis, the
    [w] wrapped cell offsets of its interpolation window (x cells, y rows
    pre-multiplied by [g], z planes pre-multiplied by [g^2]) and the [w]
    table weights. {!spread} and {!gather} replay that layout with a
    streaming multiply-accumulate loop: no boundary checks, no table
    lookups, no tile arithmetic.

    {b Layout and footprint.} Two flat arrays of [m * dims * w] entries
    each — an int array of offsets and a float array of weights, sample
    [j]'s axis [a] at [(j * dims + a) * w] — so a plan costs
    [2 * dims * w] words per sample ([4w] in 2D, [6w] in 3D) where the
    expanded (index, weight) stream cost [2 * w^dims] ([2w^2], [2w^3]).
    At [w = 6] in 2D that is 192 bytes per sample instead of 576:
    a 32,768-sample spiral is 6.3 MB, the 500k-sample Image 4 96 MB.
    {!memory_words} reports exactly this, so a byte-budgeted cache sees
    the real size.

    {b Bit-identity.} Replay forms entry (iz, iy, ix)'s grid index as the
    integer sum [oz + oy + ox] and its weight as [(wz *. wy) *. wx] in 3D
    and [wy *. wx] in 2D — the products the serial engine forms (IEEE
    multiplication commutes) — and walks entries in the serial engine's
    (sample, z, y, x) order. The accumulation order onto every grid cell,
    and so every replayed transform, is therefore bit-identical to the
    serial (and slice) engine results. {!gather} sums each window row
    first and then scales it by the row weight, in the order of
    {!Gridding_serial.gather_sample}, which the serial and 3D interpolation
    loops share, so forward replay is bit-identical to the engines'
    forward too. The {!Simd} kernels walk the same rows and form the same
    products in the same order, so the same holds under every dispatched
    implementation.

    Iterative reconstruction (CG, Toeplitz kernel construction) applies the
    same operator on the same coordinates tens of times; compiling once and
    replaying moves the whole decomposition cost out of the iteration loop.

    Stats accounting splits along the same line: compilation charges
    [boundary_checks] (the caller-supplied select cost of the engine whose
    decomposition is being amortised) and [window_evals] ([dims * w] per
    sample, one per table lookup); replay charges only
    [samples_processed] and [grid_accumulates]. The decomposition
    counters of a stats record therefore advance exactly once per compiled
    plan no matter how many times it is replayed. *)

type t

val dims : t -> int
val length : t -> int
(** Number of samples the plan was compiled for. *)

val grid : t -> int
(** Oversampled grid size [g] per dimension. *)

val points_per_sample : t -> int
(** [w^dims]: window points recorded per sample. *)

val grid_length : t -> int
(** [g^dims]: flattened length of the grid {!spread} produces. *)

val memory_words : t -> int
(** Footprint of the compiled arrays, in words: [2 * m * dims * w] plus
    a constant. A cached region {!partition} is not included; it costs
    about [m * (1 + e)] words more, one per sample plus one per sample
    whose window spans a band edge. *)

val axis_window : t -> sample:int -> axis:int -> int array * float array
(** [axis_window t ~sample ~axis] is a copy of the [w] stored entries of
    one sample's window along one axis: the wrapped cell offsets (times
    the axis stride [g^axis]) and the table weights. An inspection hook
    for tests; replay never calls it. Raises [Invalid_argument] out of
    range. *)

val compile_2d :
  ?stats:Gridding_stats.t ->
  ?select_checks:int ->
  table:Numerics.Weight_table.t ->
  g:int ->
  gx:float array ->
  gy:float array ->
  unit ->
  t
(** Compile the decomposition of a 2D trajectory. [select_checks] is the
    number of boundary checks the amortised engine would have performed for
    one gridding pass (e.g. [t^2 * m] for a slice engine with tile [t]);
    it is charged to [stats] here, once. *)

val compile_3d :
  ?stats:Gridding_stats.t ->
  ?select_checks:int ->
  table:Numerics.Weight_table.t ->
  g:int ->
  gx:float array ->
  gy:float array ->
  gz:float array ->
  unit ->
  t

val spread :
  ?stats:Gridding_stats.t ->
  ?simd:bool ->
  t ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t
(** [spread t values] grids [values] (length {!length}) onto a fresh
    [g^dims] grid by replaying the compiled arrays. Bit-identical to
    {!Gridding_serial} on the same inputs.

    [simd] (default [false]) replays through the factored {!Simd.spread}
    kernel when SIMD dispatch is active, else through the OCaml loop;
    both form the same products in the same order, so the result is the
    same bit for bit (documented contract: 4 ULP). Every {!Plan}
    transform passes [true]. *)

val spread_into :
  ?stats:Gridding_stats.t ->
  ?simd:bool ->
  t ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t ->
  unit
(** [spread_into t values out] — {!spread} into a caller-provided [g^dims]
    buffer ([out] is zeroed first), so a serving loop can reuse one pooled
    oversampled grid across requests instead of allocating per transform.
    Bitwise the same result as {!spread}. *)

val gather :
  ?stats:Gridding_stats.t ->
  ?simd:bool ->
  t ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t
(** [gather t grid] interpolates the [g^dims] grid at the compiled sample
    locations (the forward-transform regridding step); adjoint of
    {!spread} by construction, since both replay the same weights.
    Each sample sums row by row in the order of
    {!Gridding_serial.gather_sample}. [simd] as in {!spread} (the same order
    under every implementation; 4-ULP contract, bit-identical in
    practice). *)

(** {1 Region-sharded parallel replay}

    Adjoint replay is a scatter, so sample-range sharding would race on
    shared grid cells. {!partition} instead shards the {e grid}: the
    [g^(dims-1)] grid rows (a row is [g] consecutive flattened cells — a
    y-row in 2D, a (z,y)-row in 3D) are cut into contiguous bands, one
    per shard, with cuts placed by greedy entry-mass balancing over a
    per-row histogram. Each shard keeps its band and, ascending, the
    indices of the samples with a window row in it — cuFINUFFT's
    subproblem layout, about [m * (1 + e)] words for the whole
    partition. A shard replays its samples through the factored spread
    ({!Simd.spread_band} when SIMD dispatch is active) and skips every
    window row outside its band, so every grid cell has one exclusive
    writer and receives its contributions in serial order, as the
    serial products: parallel replay is bit-identical to {!spread} for
    every shard count — no atomics, no privatized grids to merge.

    The partition is built once per (plan, shard count) and cached inside
    the plan under a mutex, so repeated parallel replays (CG iterations,
    service requests on a cached plan) pay the bucketing pass once. *)

type partition
(** A region-ownership decomposition of a plan's grid rows. *)

val partition : t -> shards:int -> partition
(** [partition t ~shards] returns the cached partition for [shards]
    (clamped to the row count), building and caching it on first use.
    Thread-safe: callers on different domains sharing one plan get the
    same partition. Raises [Invalid_argument] if [shards < 1]. *)

val partition_requested : partition -> int
(** The shard count the partition was requested with (pre-clamping). *)

val partition_shards : partition -> int
(** Actual shard count: [min requested rows], at least 1. *)

val partition_rows : partition -> int
(** Total grid rows partitioned: [g^(dims-1)]. *)

val shard_rows : partition -> int -> int * int
(** [shard_rows p s] is shard [s]'s owned row band [(lo, hi)), with
    [hi] exclusive. Bands tile [0, rows) in order. *)

val shard_samples : partition -> int -> int array
(** [shard_samples p s] is a copy of shard [s]'s sample list: strictly
    ascending, and holding sample [j] exactly when one of [j]'s window
    rows lies in shard [s]'s band. *)

val spread_parallel :
  ?stats:Gridding_stats.t ->
  ?pool:Runtime.Pool.t ->
  ?simd:bool ->
  t ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t
(** [spread_parallel ?pool t values] — {!spread} with the shards of the
    cached partition replayed across [pool]'s domains. Bit-identical to
    {!spread} for every pool size. Without a pool (or with a pool of
    size 1, or a shut-down pool) replays serially without building a
    partition. [simd] replays each shard through {!Simd.spread_band},
    the shard instance of the {!Simd.spread} kernel body. *)

val spread_parallel_into :
  ?stats:Gridding_stats.t ->
  ?pool:Runtime.Pool.t ->
  ?simd:bool ->
  t ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t ->
  unit
(** {!spread_parallel} into a caller-provided buffer (zeroed first), the
    parallel analogue of {!spread_into}. *)

val gather_parallel :
  ?stats:Gridding_stats.t ->
  ?pool:Runtime.Pool.t ->
  ?simd:bool ->
  t ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t
(** [gather_parallel ?pool t grid] — {!gather} with the sample range
    chunked across [pool] ({!Runtime.Pool.adaptive_chunk} granularity).
    Each sample owns its output slot, so this is race-free and
    bit-identical to {!gather} by construction. *)
