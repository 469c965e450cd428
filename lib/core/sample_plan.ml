module Cvec = Numerics.Cvec
module Wt = Numerics.Weight_table

(* A shard of a region partition: the contiguous row band
   [row_lo, row_hi) it owns — a "row" being a run of [g] consecutive
   flattened cells (a y-row in 2D, a (z,y)-row in 3D) — and, ascending,
   the samples with at least one window row in that band. Replaying a
   shard walks those samples in order and skips their window rows
   outside the band, so it accumulates onto each owned cell in exactly
   the serial order. *)
type shard = { row_lo : int; row_hi : int; samples : int array }

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
   dimensionality, each walking the same rows in the same order as the
   C kernels. The 2D weight is [wx *. wy], the serial engine's operand
   order. *)

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
   (row = flattened index / g: a y-row in 2D, a (z,y)-row in 3D) and
   lists, ascending, the samples whose window rows touch its band — the
   layout of cuFINUFFT's subproblem spreading. A shard replays its
   samples through the factored spread, skipping every window row
   outside its band. Every grid cell then has exactly one writer — no
   atomics, no per-domain grid copies to merge — and receives its
   contributions in serial order, so the parallel result is
   bit-identical to serial replay for any shard count.

   Band cuts are chosen by greedy entry-mass balancing over a per-row
   entry histogram (cuFINUFFT-style load-balanced binning): dense
   trajectory regions get narrow bands, empty regions are absorbed into
   wide ones. Each shard is guaranteed at least one row; the shard count
   is clamped to the row count. *)

(* [iter_window_rows t f] calls [f j base] for every window row of every
   sample [j], in replay order, with the row's base cell [plane + row];
   the row's [w] cells all lie in grid row [base / g]. *)
let iter_window_rows t f =
  let w = t.w and off = t.off in
  let span = t.dims * w in
  for j = 0 to t.m - 1 do
    let by = (j * span) + w in
    if t.dims = 2 then
      for iy = by to by + w - 1 do
        f j off.(iy)
      done
    else
      for iz = by + w to by + (2 * w) - 1 do
        for iy = by to by + w - 1 do
          f j (off.(iz) + off.(iy))
        done
      done
  done

let build_partition t ~requested =
  let sp = Gridding_stats.grid_span "plan.partition" in
  let g = t.g in
  let rows = pow g (t.dims - 1) in
  let n = max 1 (min requested rows) in
  let total = t.m * t.points in
  (* Entries per grid row: each window row puts [w] entries in its row. *)
  let hist = Array.make rows 0 in
  iter_window_rows t (fun _ base ->
      let r = base / g in
      hist.(r) <- hist.(r) + t.w);
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
  for s = 0 to n - 1 do
    Array.fill owner cuts.(s) (cuts.(s + 1) - cuts.(s)) s
  done;
  (* Two passes over the window rows, the first sizing each shard's list
     and the second filling it; a sample joins a shard once, at its first
     row in the band, so every list is ascending. *)
  let fill = Array.make n 0 and last = Array.make n (-1) in
  let each_member f =
    Array.fill last 0 n (-1);
    iter_window_rows t (fun j base ->
        let s = owner.(base / g) in
        if last.(s) <> j then begin
          last.(s) <- j;
          f s j
        end)
  in
  each_member (fun s _ -> fill.(s) <- fill.(s) + 1);
  let lists = Array.map (fun c -> Array.make c 0) fill in
  Array.fill fill 0 n 0;
  each_member (fun s j ->
      lists.(s).(fill.(s)) <- j;
      fill.(s) <- fill.(s) + 1);
  let shards =
    Array.init n (fun s ->
        { row_lo = cuts.(s); row_hi = cuts.(s + 1); samples = lists.(s) })
  in
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
let shard_samples p s = Array.copy p.shards.(s).samples

(* One shard: its samples through the factored spread, window rows
   outside the band skipped. The OCaml loop walks 2D as the one-plane
   case of 3D with [wz = 1.0]: [(1.0 *. wy) *. wx] is exactly the serial
   loop's [wx *. wy]. *)
let replay_shard ~simd t sh values out =
  let lo = sh.row_lo * t.g and hi = sh.row_hi * t.g in
  let samples = sh.samples in
  if use_simd simd then
    Simd.spread_band values t.off t.wts t.dims samples lo hi out
  else begin
    let w = t.w and off = t.off and wts = t.wts in
    let span = t.dims * w in
    let nz = if t.dims = 3 then w else 1 in
    for i = 0 to Array.length samples - 1 do
      let j = Array.unsafe_get samples i in
      let vr = get_re values j and vi = get_im values j in
      let bx = j * span in
      let by = bx + w in
      for iz = by + w to by + w + nz - 1 do
        let plane = if t.dims = 3 then Array.unsafe_get off iz else 0 in
        let wz = if t.dims = 3 then Array.unsafe_get wts iz else 1.0 in
        for iy = by to by + w - 1 do
          let row = plane + Array.unsafe_get off iy in
          if row >= lo && row < hi then begin
            let wyz = wz *. Array.unsafe_get wts iy in
            for ix = bx to bx + w - 1 do
              let k = row + Array.unsafe_get off ix in
              let weight = wyz *. Array.unsafe_get wts ix in
              acc_parts out k (weight *. vr) (weight *. vi)
            done
          end
        done
      done
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
          replay_shard ~simd t (Array.unsafe_get part.shards s) values out)
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
