module Cvec = Numerics.Cvec
module Wt = Numerics.Weight_table

(* A shard of a region partition: the plan's entries whose target grid
   cell lies in the contiguous row band [row_lo, row_hi) — a "row" being
   a run of [g] consecutive flattened cells (a y-row in 2D, a (z,y)-row
   in 3D). Entries are stored in the plan's own (sample, window-point)
   order, so replaying a shard accumulates onto each owned cell in
   exactly the serial order. *)
type shard = {
  row_lo : int;
  row_hi : int;
  e_smp : int array;
  e_idx : int array;
  e_wgt : float array;
}

type partition = {
  requested : int;
  p_rows : int;
  shards : shard array;
}

type t = {
  dims : int;
  m : int;
  g : int;
  w : int;
  points : int;
  (* Factored windows: sample [j]'s axis [a] occupies [w] entries at
     [(j * dims + a) * w] — wrapped cell offsets times the axis stride
     (1, g, g^2) in [off], table weights in [wts]. *)
  off : int array;
  wts : float array;
  pmutex : Mutex.t;
  mutable part : partition option;
}

let dims t = t.dims
let length t = t.m
let grid t = t.g
let points_per_sample t = t.points

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)
let grid_length t = pow t.g t.dims

let memory_words t = Array.length t.off + Array.length t.wts + 8

let add_stats = Gridding_serial.add_grid_stats

(* Same-module hot-path primitives; see {!Gridding_serial} for the
   [-opaque] / cross-module-inlining rationale. *)

module A1 = Bigarray.Array1

let[@inline] get_re (v : Cvec.t) k = A1.unsafe_get v (2 * k)
let[@inline] get_im (v : Cvec.t) k = A1.unsafe_get v ((2 * k) + 1)

let[@inline] set_parts (v : Cvec.t) k re im =
  let j = 2 * k in
  A1.unsafe_set v j re;
  A1.unsafe_set v (j + 1) im

let[@inline] acc_parts (v : Cvec.t) k re im =
  let j = 2 * k in
  A1.unsafe_set v j (A1.unsafe_get v j +. re);
  A1.unsafe_set v (j + 1) (A1.unsafe_get v (j + 1) +. im)

let[@inline] window_start w u =
  int_of_float (Float.floor (u +. (float_of_int w /. 2.0))) - w + 1

(* Compilation records, per sample and per axis, the [w] wrapped cell
   offsets of the interpolation window (pre-multiplied by the axis
   stride: 1, g, g^2) and the [w] table weights — one lookup per axis
   per window point. Replay rebuilds entry (iz, iy, ix) as cell
   [oz + oy + ox] with weight [(wz *. wy) *. wx] (3D) or [wx *. wy]
   (2D), walking z-outer, then y, then x: the enumeration order and the
   weight product of the serial engine, so the accumulation order onto
   every grid cell — and therefore the floating-point result — is
   bit-identical to the serial and slice engines.

   The window loop makes no libm call, no division and no int-to-float
   conversion per entry, yet stores exactly what the engines'
   [window_start] / [wrap] / [lut] formulas give:
   - the window start is wrapped once per sample and axis; the cell then
     advances by one, wrapping at [g];
   - the window position [ku] advances as a float by exact integer steps,
     so [ku -. u] is the same rounded difference as
     [float_of_int ku -. u];
   - the table address [Float.round x] of the non-negative
     [x = |ku - u| * L] (round half away from zero) is
     [(trunc (2x) + 1) / 2]: doubling is exact, so [trunc (2x)] is
     [2 trunc x] plus one exactly when the fraction of [x] is at least
     one half. [|ku - u| *. 2L] is that [2x] bit for bit, since scaling
     by two commutes with rounding (any product small enough to be
     subnormal truncates to address 0 either way).
   A float compare on the remainder [x - trunc x] would be just as exact,
   but converting [trunc x] back to float chains each entry's
   [cvtsi2sd] to the previous one's result through its destination
   register, which costs more than the [Float.round] call it replaces.

   Stats: compilation charges the select/eval cost (the decomposition: the
   caller-supplied [select_checks] plus one [window_evals] per table lookup
   actually performed); replay charges only the streaming cost
   ([samples_processed] and [grid_accumulates]). Re-running a transform
   from a compiled plan therefore leaves the decomposition counters
   untouched — the property the CG amortization tests pin down. *)

let compile ?stats ~select_checks ~table ~g axes =
  let dims = Array.length axes in
  let m = Array.length axes.(0) in
  let w = Wt.width table in
  let tbl = Wt.data table in
  let lf2 = 2.0 *. float_of_int (Wt.oversampling table) in
  let tlen = Array.length tbl in
  let span = dims * w in
  let off = Array.make (m * span) 0 in
  let wts = Array.create_float (m * span) in
  let stride = ref 1 in
  for a = 0 to dims - 1 do
    let coords = axes.(a) and st = !stride in
    for j = 0 to m - 1 do
      let u = Array.unsafe_get coords j in
      let s = window_start w u in
      let base = (j * span) + (a * w) in
      let cell = ref (let r = s mod g in if r < 0 then r + g else r) in
      let ku = ref (float_of_int s) in
      for i = 0 to w - 1 do
        Array.unsafe_set off (base + i) (!cell * st);
        let c = !cell + 1 in
        cell := if c = g then 0 else c;
        let addr = (int_of_float (Float.abs (!ku -. u) *. lf2) + 1) lsr 1 in
        ku := !ku +. 1.0;
        Array.unsafe_set wts (base + i)
          (if addr >= tlen then 0.0 else Array.unsafe_get tbl addr)
      done
    done;
    stride := st * g
  done;
  add_stats stats ~samples:0 ~checks:select_checks ~evals:(dims * m * w)
    ~accums:0;
  { dims; m; g; w; points = pow w dims; off; wts; pmutex = Mutex.create ();
    part = None }

let axis_window t ~sample ~axis =
  if sample < 0 || sample >= t.m || axis < 0 || axis >= t.dims then
    invalid_arg "Sample_plan.axis_window: out of range";
  let base = ((sample * t.dims) + axis) * t.w in
  (Array.sub t.off base t.w, Array.sub t.wts base t.w)

let compile_2d ?stats ?(select_checks = 0) ~table ~g ~gx ~gy () =
  if Array.length gy <> Array.length gx then
    invalid_arg "Sample_plan.compile_2d: coords length mismatch";
  compile ?stats ~select_checks ~table ~g [| gx; gy |]

let compile_3d ?stats ?(select_checks = 0) ~table ~g ~gx ~gy ~gz () =
  let m = Array.length gx in
  if Array.length gy <> m || Array.length gz <> m then
    invalid_arg "Sample_plan.compile_3d: coords length mismatch";
  compile ?stats ~select_checks ~table ~g [| gx; gy; gz |]

(* [simd] selects the factored C kernels from {!Simd} when dispatch is
   active; they walk the same rows and form the same products in the
   same order as the OCaml loops below (no FMA contraction), so the
   result is bit-identical (documented contract: 4 ULP). *)
let[@inline] use_simd simd = simd && Simd.enabled ()

(* The OCaml replay loops, the [JIGSAW_SIMD=off] path: one per
   dimensionality, each walking the same rows in the same order as
   {!iter_entries} and the C kernels. The 2D weight is [wx *. wy], the
   serial engine's operand order. *)

let replay_spread ~simd t values out =
  let w = t.w and off = t.off and wts = t.wts in
  let span = t.dims * w in
  if use_simd simd then Simd.spread values off wts t.dims out
  else if t.dims = 2 then
    for j = 0 to t.m - 1 do
      let vr = get_re values j and vi = get_im values j in
      let bx = j * span in
      let by = bx + w in
      for iy = by to by + w - 1 do
        let row = Array.unsafe_get off iy in
        let wy = Array.unsafe_get wts iy in
        for ix = bx to bx + w - 1 do
          let k = row + Array.unsafe_get off ix in
          let weight = Array.unsafe_get wts ix *. wy in
          acc_parts out k (weight *. vr) (weight *. vi)
        done
      done
    done
  else
    for j = 0 to t.m - 1 do
      let vr = get_re values j and vi = get_im values j in
      let bx = j * span in
      let by = bx + w in
      for iz = by + w to by + (2 * w) - 1 do
        let plane = Array.unsafe_get off iz in
        let wz = Array.unsafe_get wts iz in
        for iy = by to by + w - 1 do
          let row = plane + Array.unsafe_get off iy in
          let wyz = wz *. Array.unsafe_get wts iy in
          for ix = bx to bx + w - 1 do
            let k = row + Array.unsafe_get off ix in
            let weight = wyz *. Array.unsafe_get wts ix in
            acc_parts out k (weight *. vr) (weight *. vi)
          done
        done
      done
    done

let spread ?stats ?(simd = false) t values =
  if Cvec.length values <> t.m then
    invalid_arg "Sample_plan.spread: values length mismatch";
  let out = Cvec.create (grid_length t) in
  replay_spread ~simd t values out;
  add_stats stats ~samples:t.m ~checks:0 ~evals:0 ~accums:(t.m * t.points);
  out

let spread_into ?stats ?(simd = false) t values out =
  if Cvec.length values <> t.m then
    invalid_arg "Sample_plan.spread_into: values length mismatch";
  if Cvec.length out <> grid_length t then
    invalid_arg "Sample_plan.spread_into: grid size mismatch";
  Cvec.fill_zero out;
  replay_spread ~simd t values out;
  add_stats stats ~samples:t.m ~checks:0 ~evals:0 ~accums:(t.m * t.points)

(* Row-factored, in the order of {!Gridding_serial.gather_sample}. *)
let gather_range ~simd t grid out ~lo ~hi =
  let w = t.w and off = t.off and wts = t.wts in
  if use_simd simd then Simd.gather grid off wts t.dims out lo hi
  else begin
    let span = t.dims * w in
    let r = Array.create_float 2 in
    for j = lo to hi - 1 do
      Gridding_serial.gather_sample grid off wts ~dims:t.dims ~w
        ~base:(j * span) r;
      set_parts out j (Array.unsafe_get r 0) (Array.unsafe_get r 1)
    done
  end

let gather ?stats ?(simd = false) t grid =
  if Cvec.length grid <> grid_length t then
    invalid_arg "Sample_plan.gather: grid size mismatch";
  (* Every sample's slot is written, so the zero fill would be wasted. *)
  let out = Cvec.create_uninit t.m in
  gather_range ~simd t grid out ~lo:0 ~hi:t.m;
  add_stats stats ~samples:t.m ~checks:0 ~evals:0 ~accums:0;
  out

(* ------------------------------------------------------------------ *)
(* Region-sharded ownership partition.

   Adjoint replay is a scatter: distinct samples hit overlapping grid
   cells, so sample-range sharding would race. Instead the *grid* is
   sharded: each shard exclusively owns a contiguous band of grid rows
   (row = flattened index / g: a y-row in 2D, a (z,y)-row in 3D), and the
   plan's (sample, window-point) entry stream is re-bucketed once so each
   shard holds exactly the entries landing in its band, still in plan
   order. Every grid cell then has exactly one writer — no atomics, no
   per-domain grid copies to merge — and each cell receives its
   contributions in serial order, so the parallel result is bit-identical
   to serial replay for any shard count.

   Band cuts are chosen by greedy entry-mass balancing over a per-row
   entry histogram (cuFINUFFT-style load-balanced binning): dense
   trajectory regions get narrow bands, empty regions are absorbed into
   wide ones. Each shard is guaranteed at least one row; the shard count
   is clamped to the row count. *)

(* [iter_entries t j f] calls [f cell weight] for each window entry of
   sample [j] in replay order, with replay's index sum and weight
   product — the expanded (index, weight) stream the shards store. *)
let iter_entries t j f =
  let w = t.w and off = t.off and wts = t.wts in
  let bx = j * t.dims * w in
  let by = bx + w in
  let bz = by + w in
  for iz = 0 to (if t.dims = 3 then w else 1) - 1 do
    let plane = if t.dims = 3 then off.(bz + iz) else 0 in
    let wz = if t.dims = 3 then wts.(bz + iz) else 1.0 in
    for iy = 0 to w - 1 do
      let row = plane + off.(by + iy) and wr = wz *. wts.(by + iy) in
      for ix = 0 to w - 1 do
        f (row + off.(bx + ix)) (wr *. wts.(bx + ix))
      done
    done
  done

let build_partition t ~requested =
  let sp = Gridding_stats.grid_span "plan.partition" in
  let g = t.g in
  let rows = pow g (t.dims - 1) in
  let n = max 1 (min requested rows) in
  let total = t.m * t.points in
  let hist = Array.make rows 0 in
  for j = 0 to t.m - 1 do
    iter_entries t j (fun k _ -> hist.(k / g) <- hist.(k / g) + 1)
  done;
  (* Greedy cuts: shard s owns rows [cuts.(s), cuts.(s+1)). Advance each
     cut until accumulated entry mass reaches the s-th balanced target,
     but never past [rows - remaining_shards] so every later shard keeps
     at least one row. *)
  let cuts = Array.make (n + 1) 0 in
  cuts.(n) <- rows;
  let target = float_of_int total /. float_of_int n in
  let row = ref 0 and acc = ref 0 in
  for s = 0 to n - 2 do
    cuts.(s) <- !row;
    let goal = float_of_int (s + 1) *. target in
    let limit = rows - (n - 1 - s) in
    acc := !acc + hist.(!row);
    incr row;
    while !row < limit && float_of_int !acc < goal do
      acc := !acc + hist.(!row);
      incr row
    done
  done;
  cuts.(n - 1) <- !row;
  let owner = Array.make rows 0 in
  let counts = Array.make n 0 in
  for s = 0 to n - 1 do
    let c = ref 0 in
    for r = cuts.(s) to cuts.(s + 1) - 1 do
      Array.unsafe_set owner r s;
      c := !c + Array.unsafe_get hist r
    done;
    counts.(s) <- !c
  done;
  let shards =
    Array.init n (fun s ->
        { row_lo = cuts.(s);
          row_hi = cuts.(s + 1);
          e_smp = Array.make counts.(s) 0;
          e_idx = Array.make counts.(s) 0;
          e_wgt = Array.make counts.(s) 0.0 })
  in
  (* Bucket the entry stream in plan order, so each shard's entries stay
     sample-monotonic (the bit-identity invariant). *)
  let fill = Array.make n 0 in
  for j = 0 to t.m - 1 do
    iter_entries t j (fun k weight ->
        let s = owner.(k / g) in
        let sh = shards.(s) and f = fill.(s) in
        sh.e_smp.(f) <- j;
        sh.e_idx.(f) <- k;
        sh.e_wgt.(f) <- weight;
        fill.(s) <- f + 1)
  done;
  Gridding_stats.end_span sp;
  { requested; p_rows = rows; shards }

(* The partition is built lazily on first parallel spread and cached in
   the plan (single slot, keyed on the requested shard count). All access
   goes through [pmutex]: plans are shared across domains by the plan
   cache, and an unsynchronised mutable read of [part] would race with a
   concurrent build under the OCaml memory model. *)
let partition t ~shards =
  if shards < 1 then invalid_arg "Sample_plan.partition: shards < 1";
  Mutex.lock t.pmutex;
  let p =
    match t.part with
    | Some p when p.requested = shards -> p
    | _ ->
        let p = build_partition t ~requested:shards in
        t.part <- Some p;
        p
  in
  Mutex.unlock t.pmutex;
  p

let partition_requested p = p.requested
let partition_rows p = p.p_rows
let partition_shards p = Array.length p.shards
let shard_rows p s = (p.shards.(s).row_lo, p.shards.(s).row_hi)
let shard_length p s = Array.length p.shards.(s).e_idx

let shard_entry p s e =
  let sh = p.shards.(s) in
  (sh.e_smp.(e), sh.e_idx.(e), sh.e_wgt.(e))

let replay_shard ~simd sh values out =
  if use_simd simd then Simd.spread_shard values sh.e_smp sh.e_idx sh.e_wgt out
  else begin
    let n = Array.length sh.e_idx in
    let e_smp = sh.e_smp and e_idx = sh.e_idx and e_wgt = sh.e_wgt in
    for e = 0 to n - 1 do
      let j = Array.unsafe_get e_smp e in
      let k = Array.unsafe_get e_idx e in
      let weight = Array.unsafe_get e_wgt e in
      acc_parts out k (weight *. get_re values j) (weight *. get_im values j)
    done
  end

let[@inline] pool_is_parallel pool =
  Runtime.Pool.size pool > 1 && not (Runtime.Pool.is_shut_down pool)

let spread_parallel_into ?stats ?pool ?(simd = false) t values out =
  if Cvec.length values <> t.m then
    invalid_arg "Sample_plan.spread_parallel_into: values length mismatch";
  if Cvec.length out <> grid_length t then
    invalid_arg "Sample_plan.spread_parallel_into: grid size mismatch";
  Cvec.fill_zero out;
  (match pool with
  | Some p when pool_is_parallel p ->
      let part = partition t ~shards:(Runtime.Pool.size p) in
      (* Each shard is one coarse work unit (entry-mass balanced at build
         time), so per-shard dispatch is the right granularity. *)
      Runtime.Pool.parallel_for ~chunk:1 p ~start:0
        ~stop:(Array.length part.shards) (fun s ->
          replay_shard ~simd (Array.unsafe_get part.shards s) values out)
  | _ -> replay_spread ~simd t values out);
  add_stats stats ~samples:t.m ~checks:0 ~evals:0 ~accums:(t.m * t.points)

let spread_parallel ?stats ?pool ?simd t values =
  let out = Cvec.create (grid_length t) in
  spread_parallel_into ?stats ?pool ?simd t values out;
  out

let gather_parallel ?stats ?pool ?(simd = false) t grid =
  if Cvec.length grid <> grid_length t then
    invalid_arg "Sample_plan.gather_parallel: grid size mismatch";
  let out = Cvec.create_uninit t.m in
  (match pool with
  | Some p when pool_is_parallel p ->
      (* Gather writes one private output slot per sample — sample-range
         sharding is race-free, and per-sample accumulation order is the
         serial order, so any chunking is bit-identical. *)
      let chunk =
        Runtime.Pool.adaptive_chunk p ~items:t.m ~work_per_item:(2 * t.points)
      in
      Runtime.Pool.parallel_for_ranges ~chunk p ~start:0 ~stop:t.m
        (fun ~lo ~hi -> gather_range ~simd t grid out ~lo ~hi)
  | _ -> gather_range ~simd t grid out ~lo:0 ~hi:t.m);
  add_stats stats ~samples:t.m ~checks:0 ~evals:0 ~accums:0;
  out
