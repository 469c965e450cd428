module Cvec = Numerics.Cvec
module C = Numerics.Complexd
module Wt = Numerics.Weight_table

type cached = { caxes : float array array; splan : Sample_plan.t }

let c_cache_hit = Telemetry.Counter.make "sample_plan.cache_hit"
let c_cache_miss = Telemetry.Counter.make "sample_plan.cache_miss"

type plan = {
  n : int;
  sigma : float;
  g : int;
  w : int;
  l : int;
  tol : float option;
  kernel : Numerics.Window.t;
  table : Wt.t;
  deapod : Apodization.shared;
  engine : Gridding.engine;
  pool : Runtime.Pool.t option;
  simd : bool;
  mutable cache : cached option;
  slot : Cvec.t Atomic.t;
}

module W = Numerics.Window

(* The plan's reusable transform grid. A transform takes it with one
   atomic exchange, leaving the empty grid behind, and puts it back when
   it ends; a transform that finds the slot empty (another domain holds
   the grid) or holding a grid of the other dimensionality allocates a
   fresh one, as every transform did before. The grid is dirty: every
   taker overwrites it completely. *)
let empty_grid = Cvec.create 0

let take_grid plan len =
  let grid = Atomic.exchange plan.slot empty_grid in
  if Cvec.length grid = len then grid else Cvec.create len

let release_grid plan grid = Atomic.set plan.slot grid

(* Geometry resolution shared with {!Operator.context} so an operator
   context and the plan it builds always agree on (kernel, w, l). With
   [tol], kernel + width follow the family's width<->accuracy law and the
   LUT oversampling scales so table rounding stays below the request;
   otherwise explicit knobs win, with [w] defaulting to the Beatty-derived
   {!Numerics.Window.default_width} (= 6 at sigma = 2) rather than a
   constant that silently loses accuracy as sigma drops. *)
let resolve_geometry ?tol ?family ?kernel ?w ?l ~sigma () =
  if sigma <= 1.0 then invalid_arg "Plan.make: sigma must be > 1";
  match tol with
  | Some t ->
      if kernel <> None then
        invalid_arg "Plan.make: tol and kernel are mutually exclusive";
      if w <> None then invalid_arg "Plan.make: tol and w are mutually exclusive";
      let kernel, w = W.for_tolerance ?family ~tol:t ~sigma () in
      let l =
        match l with Some l -> l | None -> W.lut_for_tolerance ~tol:t
      in
      (Some t, kernel, w, l)
  | None ->
      let w = match w with Some w -> w | None -> W.default_width ~sigma in
      if w < 2 then invalid_arg "Plan.make: w must be >= 2";
      let kernel =
        match kernel with
        | Some k -> k
        | None -> (
            match family with
            | Some W.ES -> W.default_exp_semicircle ~width:w ~sigma
            | Some W.KB | None -> W.default_kaiser_bessel ~width:w ~sigma)
      in
      (None, kernel, w, Option.value l ~default:512)

let make ?tol ?family ?kernel ?w ?(sigma = 2.0) ?l ?(engine = Gridding.Serial)
    ?(table_precision = Wt.Double) ?pool ~n () =
  if n < 2 then invalid_arg "Plan.make: n must be >= 2";
  if sigma <= 1.0 then invalid_arg "Plan.make: sigma must be > 1";
  let tol, kernel, w, l = resolve_geometry ?tol ?family ?kernel ?w ?l ~sigma () in
  if l < 1 then invalid_arg "Plan.make: l must be >= 1";
  let g = int_of_float (Float.round (sigma *. float_of_int n)) in
  if w > g then invalid_arg "Plan.make: window wider than oversampled grid";
  (match engine with
  | Gridding.Slice_and_dice t | Gridding.Slice_parallel t ->
      Coord.check_tiling ~t ~g ~w
  | Gridding.Serial | Gridding.Output_parallel | Gridding.Binned _ -> ());
  let sp = Telemetry.span_begin ~cat:"plan" "plan.make" in
  let sp_table = Telemetry.span_begin ~cat:"plan" "plan.table" in
  let table = Wt.shared ~precision:table_precision ~kernel ~width:w ~l () in
  Telemetry.span_end sp_table;
  let sp_deapod = Telemetry.span_begin ~cat:"plan" "plan.deapod" in
  let deapod = Apodization.shared ~kernel ~width:w ~n ~g in
  Telemetry.span_end sp_deapod;
  Telemetry.span_end sp;
  { n; sigma; g; w; l; tol; kernel; table; deapod; engine; pool; simd = true;
    cache = None; slot = Atomic.make empty_grid }

(* The adjoint evaluates x_n = (1 / psi_hat(n/G)) * B[n mod G] where
   B = unnormalised inverse-convention DFT of the spread grid; see the
   derivation in the module documentation of {!Apodization}. *)

(* The crop/pad stages run once per transform over n^dims points. Along
   the fastest axis the wrap [Coord.wrap ~g (ix - n/2)] splits each image
   row into exactly two contiguous grid segments (g >= n always holds:
   sigma > 1): ix in [0, n/2) maps to [row + g - n/2, row + g) and
   ix in [n/2, n) maps to [row, row + n - n/2). Each segment is one
   {!Apodization.scale_row_into} call — the same arithmetic in the same
   order as the historical per-pixel loops (2D passes [fz = 1.0], an
   exact multiply), now SIMD-dispatchable and still allocation-free. The
   [_into] variants write caller-provided buffers, so the pipeline layer
   can reuse pooled output buffers. *)

let crop_deapodize_2d_into plan big image =
  let n = plan.n and g = plan.g in
  if Cvec.length big <> g * g then
    invalid_arg "Plan.crop_deapodize_2d: grid size mismatch";
  if Cvec.length image <> n * n then
    invalid_arg "Plan.crop_deapodize_2d: image size mismatch";
  let deapod = plan.deapod.Apodization.values in
  let h = n / 2 in
  for iy = 0 to n - 1 do
    let row = Coord.wrap ~g (iy - h) * g in
    let dy = Array.unsafe_get deapod iy in
    Apodization.scale_row_into ~dst:image ~dst_off:(iy * n) ~src:big
      ~src_off:(row + g - h) ~f:deapod ~f_off:0 ~len:h ~fy:dy ~fz:1.0;
    Apodization.scale_row_into ~dst:image
      ~dst_off:((iy * n) + h)
      ~src:big ~src_off:row ~f:deapod ~f_off:h ~len:(n - h) ~fy:dy ~fz:1.0
  done

(* Writes every point of [big] whose coordinates all lie in the kept
   set; the caller zeroes the rest. *)
let pad_apodize_2d_into plan image big =
  let n = plan.n and g = plan.g in
  if Cvec.length image <> n * n then
    invalid_arg "Plan: image size mismatch";
  let deapod = plan.deapod.Apodization.values in
  let h = n / 2 in
  for iy = 0 to n - 1 do
    let row = Coord.wrap ~g (iy - h) * g in
    let dy = Array.unsafe_get deapod iy in
    Apodization.scale_row_into ~dst:big ~dst_off:(row + g - h) ~src:image
      ~src_off:(iy * n) ~f:deapod ~f_off:0 ~len:h ~fy:dy ~fz:1.0;
    Apodization.scale_row_into ~dst:big ~dst_off:row ~src:image
      ~src_off:((iy * n) + h)
      ~f:deapod ~f_off:h ~len:(n - h) ~fy:dy ~fz:1.0
  done

let pad_apodize_2d plan image =
  let big = Cvec.create (plan.g * plan.g) in
  pad_apodize_2d_into plan image big;
  big

let crop_deapodize_3d_into plan big volume =
  let n = plan.n and g = plan.g in
  if Cvec.length big <> g * g * g then
    invalid_arg "Plan.crop_deapodize_3d: grid size mismatch";
  if Cvec.length volume <> n * n * n then
    invalid_arg "Plan.crop_deapodize_3d: volume size mismatch";
  let deapod = plan.deapod.Apodization.values in
  let h = n / 2 in
  for iz = 0 to n - 1 do
    let pz = Coord.wrap ~g (iz - h) * g in
    let dz = Array.unsafe_get deapod iz in
    for iy = 0 to n - 1 do
      let row = (pz + Coord.wrap ~g (iy - h)) * g in
      let dy = Array.unsafe_get deapod iy in
      let dst = ((iz * n) + iy) * n in
      Apodization.scale_row_into ~dst:volume ~dst_off:dst ~src:big
        ~src_off:(row + g - h) ~f:deapod ~f_off:0 ~len:h ~fy:dy ~fz:dz;
      Apodization.scale_row_into ~dst:volume ~dst_off:(dst + h) ~src:big
        ~src_off:row ~f:deapod ~f_off:h ~len:(n - h) ~fy:dy ~fz:dz
    done
  done

let pad_apodize_3d_into plan volume big =
  let n = plan.n and g = plan.g in
  if Cvec.length volume <> n * n * n then
    invalid_arg "Plan.forward_3d: volume size mismatch";
  let deapod = plan.deapod.Apodization.values in
  let h = n / 2 in
  for iz = 0 to n - 1 do
    let pz = Coord.wrap ~g (iz - h) * g in
    let dz = Array.unsafe_get deapod iz in
    for iy = 0 to n - 1 do
      let row = (pz + Coord.wrap ~g (iy - h)) * g in
      let dy = Array.unsafe_get deapod iy in
      let src = ((iz * n) + iy) * n in
      Apodization.scale_row_into ~dst:big ~dst_off:(row + g - h) ~src:volume
        ~src_off:src ~f:deapod ~f_off:0 ~len:h ~fy:dy ~fz:dz;
      Apodization.scale_row_into ~dst:big ~dst_off:row ~src:volume
        ~src_off:(src + h) ~f:deapod ~f_off:h ~len:(n - h) ~fy:dy ~fz:dz
    done
  done

let check_samples plan (s : Sample.t) =
  if s.Sample.g <> plan.g then
    invalid_arg
      (Printf.sprintf "Plan: sample set is for grid %d, plan uses %d"
         s.Sample.g plan.g)

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

(* Allocated only for the dimensionalities the pipeline handles, so a
   1D sample set fails here with a clear message. *)
let image_for plan (s : Sample.t) =
  match Sample.dims s with
  | (2 | 3) as d -> Cvec.create (pow plan.n d)
  | d ->
      invalid_arg
        (Printf.sprintf "Plan.adjoint: unsupported dimensionality %d" d)

type timings = {
  mutable gridding_s : float;
  mutable fft_s : float;
  mutable deapod_s : float;
}

let create_timings () = { gridding_s = 0.0; fft_s = 0.0; deapod_s = 0.0 }

let gridding_fraction t =
  let total = t.gridding_s +. t.fft_s +. t.deapod_s in
  if total <= 0.0 then 0.0 else t.gridding_s /. total

(* The stage clock is read only when the caller owns a [timings]
   accumulator; monotonic, so stage sums never exceed an enclosing
   interval taken on the same clock. *)
let clock = function None -> 0 | Some _ -> Telemetry.Clock.now_ns ()
let seconds ns = float_of_int ns *. 1e-9

(* [n^2] or [n^3]: the image length alone fixes the dimensionality. *)
let image_dims plan image =
  let n = plan.n and len = Cvec.length image in
  if len = n * n then 2
  else if len = n * n * n then 3
  else
    invalid_arg
      (Printf.sprintf "Plan: image length %d is neither n^2 nor n^3 (n = %d)"
         len n)

let grid_to_image ?timings ?pool plan ~spread image =
  let g = plan.g and n = plan.n in
  let pool = match pool with Some _ -> pool | None -> plan.pool in
  let dims = image_dims plan image in
  let t0 = clock timings in
  let grid = spread () in
  let t1 = clock timings in
  Fft.Fftnd.transform_cropped ?pool Fft.Dft.Inverse ~dims ~g ~n grid;
  let t2 = clock timings in
  if dims = 2 then crop_deapodize_2d_into plan grid image
  else crop_deapodize_3d_into plan grid image;
  match timings with
  | None -> ()
  | Some t ->
      let t3 = Telemetry.Clock.now_ns () in
      t.gridding_s <- t.gridding_s +. seconds (t1 - t0);
      t.fft_s <- t.fft_s +. seconds (t2 - t1);
      t.deapod_s <- t.deapod_s +. seconds (t3 - t2)

let image_to_grid plan image k =
  let g = plan.g and n = plan.n in
  let dims = image_dims plan image in
  let big = take_grid plan (pow g dims) in
  Cvec.fill_zero big;
  if dims = 2 then pad_apodize_2d_into plan image big
  else pad_apodize_3d_into plan image big;
  Fft.Fftnd.transform_padded ?pool:plan.pool Fft.Dft.Forward ~dims ~g ~n big;
  let r = k big in
  release_grid plan big;
  r

let grid_bytes plan ~dims = 16 * pow plan.g dims

let check_forward plan (coords : Sample.t) image =
  check_samples plan coords;
  if image_dims plan image <> Sample.dims coords then
    invalid_arg "Plan.forward: image size mismatch"

(* The plan's own gridding engine: the paper's model of stage 1. In 3D
   every engine grids with the (pool-)sliced {!Gridding3d} schedule. *)
let engine_grid ?stats plan (s : Sample.t) =
  let g = plan.g and table = plan.table and values = s.Sample.values in
  let gx = Sample.gx s and gy = Sample.gy s in
  if Sample.dims s = 2 then
    Gridding.grid_2d ?stats ?pool:plan.pool plan.engine ~table ~g ~gx ~gy
      values
  else
    let gz = Sample.gz s in
    match plan.pool with
    | Some pool ->
        Gridding3d.grid_3d_parallel ?stats ~pool ~table ~g ~gx ~gy ~gz values
    | None -> Gridding3d.grid_3d ?stats ~table ~g ~gx ~gy ~gz values

let adjoint ?stats ?timings plan samples =
  check_samples plan samples;
  let image = image_for plan samples in
  grid_to_image ?timings plan image ~spread:(fun () ->
      engine_grid ?stats plan samples);
  image

let forward ?stats plan ~coords image =
  check_forward plan coords image;
  let g = plan.g and table = plan.table in
  let gx = Sample.gx coords and gy = Sample.gy coords in
  image_to_grid plan image (fun big ->
      if Sample.dims coords = 2 then
        Gridding.interp_2d ?stats ~table ~g ~gx ~gy big
      else
        Gridding3d.interp_3d ?stats ~table ~g ~gx ~gy ~gz:(Sample.gz coords)
          big)

(* Compiled sample plans: one (engine x bound coordinates) decomposition,
   replayed by every subsequent transform. The cache key is the physical
   identity of the coordinate arrays — [Sample.with_values] preserves them,
   so the forward/adjoint ping-pong of a CG solve always hits. *)

(* Boundary-check cost of one gridding pass of [plan.engine], charged once
   at compile time in place of the per-iteration select stage it replaces.
   The binned model counts per original sample (duplication ignored). *)
let select_checks plan ~dims ~m =
  match plan.engine with
  | Gridding.Serial -> 0
  | Gridding.Output_parallel -> pow plan.g dims * m
  | Gridding.Binned b -> pow b dims * m
  | Gridding.Slice_and_dice t | Gridding.Slice_parallel t -> pow t dims * m

let coords_match caxes (coords : float array array) =
  Array.length caxes = Array.length coords
  &&
  let ok = ref true in
  Array.iteri (fun d a -> if not (a == coords.(d)) then ok := false) caxes;
  !ok

let compiled ?stats plan (samples : Sample.t) =
  check_samples plan samples;
  match plan.cache with
  | Some c when coords_match c.caxes samples.Sample.coords ->
      Telemetry.Counter.incr c_cache_hit;
      c.splan
  | _ ->
      Telemetry.Counter.incr c_cache_miss;
      let sp_compile = Telemetry.span_begin ~cat:"plan" "plan.compile" in
      let dims = Sample.dims samples in
      let m = Sample.length samples in
      let select_checks = select_checks plan ~dims ~m in
      let splan =
        match dims with
        | 2 ->
            Sample_plan.compile_2d ?stats ~select_checks ~table:plan.table
              ~g:plan.g ~gx:(Sample.gx samples) ~gy:(Sample.gy samples) ()
        | 3 ->
            Sample_plan.compile_3d ?stats ~select_checks ~table:plan.table
              ~g:plan.g ~gx:(Sample.gx samples) ~gy:(Sample.gy samples)
              ~gz:(Sample.gz samples) ()
        | d ->
            invalid_arg
              (Printf.sprintf "Plan.compiled: unsupported dimensionality %d" d)
      in
      plan.cache <- Some { caxes = samples.Sample.coords; splan };
      Telemetry.span_end sp_compile;
      splan

(* Replay pool resolution: an explicit [?pool] wins; otherwise the plan's
   own pool. Callers that must avoid nested submission (a service request
   already running inside the pool it would replay on) pass no pool and
   build the plan pool-less — parallel replay never falls back to the
   global pool implicitly. *)
let replay_pool ?pool plan =
  match pool with Some _ -> pool | None -> plan.pool

(* Compilation (first call only) runs inside [spread], so it is
   accounted to the gridding stage. *)
let adjoint_compiled ?stats ?timings ?pool plan samples =
  let rpool = replay_pool ?pool plan in
  check_samples plan samples;
  let image = image_for plan samples in
  let grid = take_grid plan (pow plan.g (Sample.dims samples)) in
  grid_to_image ?timings plan image ~spread:(fun () ->
      let sp = compiled ?stats plan samples in
      let span = Gridding_stats.grid_span "grid.compiled-spread" in
      Sample_plan.spread_parallel_into ?stats ?pool:rpool ~simd:plan.simd sp
        samples.Sample.values grid;
      Gridding_stats.end_span span;
      grid);
  release_grid plan grid;
  image

let forward_compiled ?stats ?pool plan ~coords image =
  let rpool = replay_pool ?pool plan in
  let sp = compiled ?stats plan coords in
  check_forward plan coords image;
  image_to_grid plan image (fun big ->
      let span = Gridding_stats.grid_span "grid.compiled-gather" in
      let out =
        Sample_plan.gather_parallel ?stats ?pool:rpool ~simd:plan.simd sp big
      in
      Gridding_stats.end_span span;
      out)

(* {2 Type-3: nonuniform-to-nonuniform}

   f_k = sum_j c_j e^{+i s_k . x_j} by the FINUFFT scale/shift
   decomposition (Barnett et al. 2019, §4). Per dimension:

   - centre both point sets: x0 = (min+max)/2 of the sources, s0 of the
     targets; then s_k.x_j = s_k.x0 + s0.(x_j - x0) + (s_k - s0).(x_j - x0),
     giving a per-source prephase e^{i s0.(x_j - x0)} and a per-target
     postphase e^{i s_k.x0} around the centred problem;
   - rescale the centred sources into the primary box: with half-widths
     X = max|x_j - x0| and S = max|s_k - s0| (degenerate widths guarded
     to 1), the shared fine grid nf = max over dims of the even integer
     >= 2*(sigma*S*X/pi + w/2 + 1) and gamma_d = nf / (2*sigma*S_d) put
     u_j = (x_j - x0)/gamma strictly inside (-pi, pi) with at least w/2+1
     grid points of margin — the kernel support never crosses the +-nf/2
     seam, so spreading on the wrapped [0, nf) torus followed by an
     fftshift equals un-periodised spreading on the centred line;
   - spread the prephased strengths with the plan kernel onto the nf^d
     grid (the existing compiled slice-and-dice replay machinery);
   - evaluate the gridded series at the rescaled target frequencies
     theta_k = 2*pi*gamma*(s_k - s0)/nf (|theta| <= pi/sigma) with the
     existing type-2 pass: an inner plan of base size nf applied at
     omega = -theta (its forward convention is e^{-i omega.n});
   - divide by the kernel's continuous FT at theta_k/2pi cycles per grid
     unit to undo the spreading convolution, and apply the postphase.

   Both stages inherit the plan-level accuracy law, so the end-to-end
   error tracks the requested tolerance (asserted against the direct
   NuDFT oracle by the accuracy sweep). *)

type t3 = {
  t3_dims : int;
  t3_m_in : int;
  t3_m_out : int;
  t3_nf : int;  (* fine grid per dimension (stage-1 spread grid) *)
  t3_w : int;
  t3_tol : float option;
  t3_prephase : Cvec.t;  (* e^{i s0.(x_j - x0)} per source *)
  t3_splan : Sample_plan.t;  (* spread decomposition on the nf grid *)
  t3_inner : plan;  (* inner type-2 plan, n = nf *)
  t3_inner_coords : Sample.t;  (* omega_k = -theta_k in inner grid units *)
  t3_post : Cvec.t;  (* e^{i s_k.x0} / prod_d psi_hat(theta_kd / 2pi) *)
  t3_pool : Runtime.Pool.t option;
  t3_simd : bool;
}

let two_pi = 2.0 *. Float.pi

let check_axes ~what ~dims ~m axes =
  if Array.length axes <> dims then
    invalid_arg (Printf.sprintf "Plan.make_type3: %s dims mismatch" what);
  Array.iter
    (fun a ->
      if Array.length a <> m then
        invalid_arg (Printf.sprintf "Plan.make_type3: ragged %s axes" what);
      Array.iter
        (fun x ->
          if not (Float.is_finite x) then
            invalid_arg
              (Printf.sprintf "Plan.make_type3: non-finite %s coordinate" what))
        a)
    axes

let make_type3 ?tol ?family ?kernel ?w ?(sigma = 2.0) ?l ?pool ~sources
    ~targets () =
  let dims = Array.length sources in
  if dims < 2 || dims > 3 then
    invalid_arg "Plan.make_type3: dims must be 2 or 3";
  if Array.length sources.(0) < 1 || Array.length targets = 0
     || Array.length targets.(0) < 1
  then invalid_arg "Plan.make_type3: empty source or target set";
  let m_in = Array.length sources.(0) in
  let m_out = Array.length targets.(0) in
  check_axes ~what:"source" ~dims ~m:m_in sources;
  check_axes ~what:"target" ~dims ~m:m_out targets;
  let tol, kernel, w, l = resolve_geometry ?tol ?family ?kernel ?w ?l ~sigma () in
  if l < 1 then invalid_arg "Plan.make_type3: l must be >= 1";
  let sp_make = Telemetry.span_begin ~cat:"plan" "plan.make_type3" in
  (* Per-dimension centres and half-widths of the two point clouds. *)
  let centre axes d =
    let a = axes.(d) in
    let lo = Array.fold_left Float.min a.(0) a in
    let hi = Array.fold_left Float.max a.(0) a in
    ((lo +. hi) /. 2.0, (hi -. lo) /. 2.0)
  in
  let x0 = Array.make dims 0.0 and xw = Array.make dims 0.0 in
  let s0 = Array.make dims 0.0 and sw = Array.make dims 0.0 in
  for d = 0 to dims - 1 do
    let c, hw = centre sources d in
    x0.(d) <- c;
    xw.(d) <- hw;
    let c, hw = centre targets d in
    s0.(d) <- c;
    sw.(d) <- hw
  done;
  let safe v = if v > 0.0 then v else 1.0 in
  (* Shared fine grid: the largest per-dimension requirement, kept even so
     the fftshift and the +-nf/2 margin argument hold exactly. *)
  let nf = ref 4 in
  for d = 0 to dims - 1 do
    let need =
      2
      * int_of_float
          (Float.ceil
             ((sigma *. safe sw.(d) *. safe xw.(d) /. Float.pi)
             +. (float_of_int w /. 2.0)
             +. 1.0))
    in
    if need > !nf then nf := need
  done;
  let nf = !nf in
  let cells =
    let c = ref 1 in
    for _ = 1 to dims do
      c := !c * 2 * nf
    done;
    !c
  in
  if cells > 1 lsl 26 then
    invalid_arg
      (Printf.sprintf
         "Plan.make_type3: fine grid %d^%d too large for the source/target \
          extents (rescale the problem)"
         nf dims);
  let gamma =
    Array.init dims (fun d -> float_of_int nf /. (2.0 *. sigma *. safe sw.(d)))
  in
  (* Rescaled sources in fine-grid units, wrapped onto [0, nf). *)
  let gcoords =
    Array.init dims (fun d ->
        Array.init m_in (fun j ->
            let u = (sources.(d).(j) -. x0.(d)) /. gamma.(d) in
            Sample.omega_to_grid ~g:nf u))
  in
  let table = Wt.shared ~kernel ~width:w ~l () in
  let splan =
    match dims with
    | 2 ->
        Sample_plan.compile_2d ~table ~g:nf ~gx:gcoords.(0) ~gy:gcoords.(1) ()
    | _ ->
        Sample_plan.compile_3d ~table ~g:nf ~gx:gcoords.(0) ~gy:gcoords.(1)
          ~gz:gcoords.(2) ()
  in
  let prephase =
    Cvec.init m_in (fun j ->
        let ph = ref 0.0 in
        for d = 0 to dims - 1 do
          ph := !ph +. (s0.(d) *. (sources.(d).(j) -. x0.(d)))
        done;
        C.exp_i !ph)
  in
  (* Inner type-2 plan over the nf-point base grid, same kernel geometry. *)
  let inner = make ~kernel ~w ~sigma ~l ?pool ~n:nf () in
  let g2 = inner.g in
  let icoords =
    Array.init dims (fun d ->
        Array.init m_out (fun k ->
            let theta =
              two_pi *. gamma.(d) *. (targets.(d).(k) -. s0.(d))
              /. float_of_int nf
            in
            Sample.omega_to_grid ~g:g2 (-.theta)))
  in
  let inner_coords =
    Sample.make ~g:g2 ~coords:icoords ~values:(Cvec.create m_out)
  in
  ignore (compiled inner inner_coords);
  let post =
    Cvec.init m_out (fun k ->
        let ph = ref 0.0 and corr = ref 1.0 in
        for d = 0 to dims - 1 do
          ph := !ph +. (targets.(d).(k) *. x0.(d));
          let f =
            gamma.(d) *. (targets.(d).(k) -. s0.(d)) /. float_of_int nf
          in
          corr := !corr *. W.ft kernel ~width:w f
        done;
        if Float.abs !corr < 1e-300 then
          invalid_arg
            "Plan.make_type3: kernel transform vanishes at a target frequency";
        C.scale (1.0 /. !corr) (C.exp_i !ph))
  in
  Telemetry.span_end sp_make;
  {
    t3_dims = dims;
    t3_m_in = m_in;
    t3_m_out = m_out;
    t3_nf = nf;
    t3_w = w;
    t3_tol = tol;
    t3_prephase = prephase;
    t3_splan = splan;
    t3_inner = inner;
    t3_inner_coords = inner_coords;
    t3_post = post;
    t3_pool = pool;
    t3_simd = true;
  }

(* fftshift: spread grid index l (torus [0, nf), position l or l - nf) to
   the centred row-major layout the inner forward expects (index i is
   position i - nf/2). nf is even, so the shift is an exact half-turn. *)
let fftshift_to_centred ~dims ~nf grid =
  let h = nf / 2 in
  let sh i = if i < h then i + h else i - h in
  let out = Cvec.create (Cvec.length grid) in
  (match dims with
  | 2 ->
      for iy = 0 to nf - 1 do
        let src_row = sh iy * nf in
        let dst_row = iy * nf in
        for ix = 0 to nf - 1 do
          Cvec.set out (dst_row + ix) (Cvec.get grid (src_row + sh ix))
        done
      done
  | _ ->
      for iz = 0 to nf - 1 do
        for iy = 0 to nf - 1 do
          let src_row = ((sh iz * nf) + sh iy) * nf in
          let dst_row = ((iz * nf) + iy) * nf in
          for ix = 0 to nf - 1 do
            Cvec.set out (dst_row + ix) (Cvec.get grid (src_row + sh ix))
          done
        done
      done);
  out

let type3_exec ?stats t values =
  if Cvec.length values <> t.t3_m_in then
    invalid_arg "Plan.type3_exec: values size mismatch";
  let sp = Telemetry.span_begin ~cat:"plan" "plan.type3" in
  let prephased =
    Cvec.init t.t3_m_in (fun j ->
        C.mul (Cvec.get values j) (Cvec.get t.t3_prephase j))
  in
  let span = Gridding_stats.grid_span "grid.type3-spread" in
  let grid =
    Sample_plan.spread_parallel ?stats ?pool:t.t3_pool ~simd:t.t3_simd
      t.t3_splan prephased
  in
  Gridding_stats.end_span span;
  let centred = fftshift_to_centred ~dims:t.t3_dims ~nf:t.t3_nf grid in
  let b = forward_compiled ?stats t.t3_inner ~coords:t.t3_inner_coords centred in
  for k = 0 to t.t3_m_out - 1 do
    Cvec.set b k (C.mul (Cvec.get b k) (Cvec.get t.t3_post k))
  done;
  Telemetry.span_end sp;
  b

let type3_dims t = t.t3_dims
let type3_source_count t = t.t3_m_in
let type3_target_count t = t.t3_m_out
let type3_fine_grid t = t.t3_nf
let type3_width t = t.t3_w
let type3_tol t = t.t3_tol
