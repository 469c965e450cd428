(** Input-driven serial gridding — the MIRT-class baseline (paper §II-C).

    Processes the (possibly randomly ordered) samples one at a time,
    accumulating each sample's weighted contribution to every point of its
    interpolation window. This is the double-precision functional reference
    used to validate every other engine, and — run at simulated single
    precision — the source of the paper's 32-bit floating-point quality
    numbers (Fig 9). *)

type precision = [ `Double | `Single ]

val add_grid_stats :
  Gridding_stats.t option ->
  samples:int ->
  checks:int ->
  evals:int ->
  accums:int ->
  unit
(** Merge a batch of work counters into an optional stats record — shared
    by every engine so the per-sample hot loops never construct closures
    for counter bumps (counts are accumulated in locals and added once per
    call). *)

val grid_1d :
  ?stats:Gridding_stats.t ->
  ?precision:precision ->
  table:Numerics.Weight_table.t ->
  g:int ->
  coords:float array ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t
(** [grid_1d ~table ~g ~coords values] spreads [values] onto a length-[g]
    grid. *)

val grid_2d :
  ?stats:Gridding_stats.t ->
  ?precision:precision ->
  table:Numerics.Weight_table.t ->
  g:int ->
  gx:float array ->
  gy:float array ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t
(** [grid_2d ~table ~g ~gx ~gy values] spreads onto a [g] x [g] row-major
    grid. *)

val interp_2d :
  ?stats:Gridding_stats.t ->
  table:Numerics.Weight_table.t ->
  g:int ->
  gx:float array ->
  gy:float array ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t
(** [interp_2d ~table ~g ~gx ~gy grid] gathers from a [g] x [g] grid,
    each sample summed by {!gather_sample}. *)

val gather_sample :
  Numerics.Cvec.t ->
  int array ->
  float array ->
  dims:int ->
  w:int ->
  base:int ->
  float array ->
  unit
(** [gather_sample grid off wts ~dims ~w ~base r] — the forward
    accumulation order, shared by every gather in the library (the
    interpolation loops, the OCaml replay of {!Sample_plan.gather} and
    the C kernels of {!Simd.gather}). The sample's window sits at [base]
    of [off] and [wts] in the {!Sample_plan} layout: [w] x cells and
    weights, [w] y rows (pre-multiplied by [g]), and in 3D [w] z planes
    (pre-multiplied by [g^2]). For each window row, z outer then y, with
    taps [p_i = wx_i * grid.(plane + row + kx_i)] (real times complex),
    the row sum is [(p_0 + p_2 + ...) + (p_1 + p_3 + ...)], each bracket
    summed left to right from [-0.0], plus [p_(w-1)] last when [w] is
    odd; it is scaled by [wz *. wy] ([wy] in 2D) and added to an
    accumulator that starts at [0.0]. Sets [r.(0)], [r.(1)] to the
    accumulator's real and imaginary parts. *)
