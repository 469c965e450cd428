(** Precomputed oversampled interpolation weight tables (LUTs).

    The supported non-uniform coordinate granularity is defined by the table
    oversampling factor [L]: there are [W*L] discrete weights across the
    window in each dimension, and distances are rounded to the nearest
    weight (paper §II-B). Because the window is symmetric about its centre,
    only half the weights are stored ([W*L/2 + 1] entries covering distances
    [0 .. W/2] in steps of [1/L]) — exactly the storage trick that lets the
    JIGSAW weight SRAM hold W=8, L=64 in 256 entries (paper §IV).

    Three numeric variants mirror the three evaluated systems:
    double-precision (MIRT baseline), simulated single precision
    (GPU implementations), and 16-bit fixed point (JIGSAW hardware). *)

type precision =
  | Double   (** MIRT-class reference *)
  | Single   (** GPU implementations: every stored weight rounded to f32 *)
  | Fixed16  (** JIGSAW: Q1.15 weights *)

type t

val make : ?precision:precision -> kernel:Window.t -> width:int -> l:int -> unit -> t
(** Build a table for [kernel] of window width [width] with oversampling
    factor [l]. Raises [Invalid_argument] if [width < 1] or [l < 1]. *)

val shared :
  ?precision:precision -> kernel:Window.t -> width:int -> l:int -> unit -> t
(** [shared] is {!make} through the process-wide table store: equal
    geometries (kernel, width, l, precision) get one physically equal
    table. The store holds its tables weakly, so it never keeps one alive
    by itself: once no caller holds a geometry's table, a major GC drops
    it and the next request rebuilds it. Safe to call from any domain.
    Counts [plan.tables_built] when it builds a table and
    [plan.tables_shared] when it returns a live one. *)

val kernel : t -> Window.t
val width : t -> int
val oversampling : t -> int
val precision : t -> precision

val entries : t -> int
(** Number of stored (half-window) entries, [width*l/2 + 1]. *)

val data : t -> float array
(** The raw (quantised) weight array itself, indexed by table address.
    Hot-loop escape hatch: under the dev profile dune compiles with
    [-opaque], which disables cross-module inlining, so per-lookup calls
    into this module would box their float argument and result. Engines
    hoist [data]/[oversampling] once per gridding call and perform the
    {!lookup} arithmetic ([round (|d| * L)] + bounds check) locally.
    Callers must not mutate the array. *)

val address_of_distance : t -> float -> int option
(** [address_of_distance t d] is the table address for absolute distance
    [d]: [round (|d| * L)], or [None] when the rounded address falls outside
    the window (the sample does not affect the point). This mirrors the
    JIGSAW select unit's table-address generation. *)

val get : t -> int -> float
(** Weight stored at a table address (already quantised to the table's
    precision). Raises [Invalid_argument] if out of range. *)

val get_q15 : t -> int -> int
(** Raw Q1.15 representation of the entry — meaningful for any precision
    (quantised on demand for Double/Single); used to initialise the JIGSAW
    weight SRAMs. *)

val quantize_distance : t -> float -> int
(** [quantize_distance t d] is the raw table address [round (|d| * L)]
    without the range check — always [>= 0], possibly past the table end.
    This is the "quantized LUT distance" the int-encoded column check
    packs; feed it to {!weight_at}. *)

val weight_at : t -> int -> float
(** [weight_at t a] is the weight at raw address [a >= 0], or [0.0] when
    [a] falls past the table end — the allocation-free counterpart of
    {!get} used by the hot loops. *)

val lookup : t -> float -> float
(** [lookup t d] is the tabulated weight for signed distance [d] (0 outside
    the window); equal to [weight_at t (quantize_distance t d)].
    Allocation-free. *)

val lookup_exact : t -> float -> float
(** The kernel evaluated directly (no table quantisation) — the "L = inf"
    reference against which table error is measured. *)

val max_table_error : t -> float
(** Max over a dense probe grid of |lookup - lookup_exact|: the rounding
    error introduced by finite [L] and the storage precision. *)
