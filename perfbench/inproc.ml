(* In-process workloads: one domain, one caller, a closed loop of warm
   requests through [Recon_service.submit].

   Each workload builds its inputs from the seed (k-space values; the
   trajectories are the paper's fixed datasets), measures set-up as the
   median of repeated cold builds, checks the outputs, then times warm
   requests for the requested number of seconds. The traced variant
   interleaves untraced requests (the overhead baseline) with traced
   ones that replay the same request stage by stage through the layers'
   public functions. *)

module Svc = Pipeline.Recon_service
module Op = Nufft.Operator
module Plan = Nufft.Plan
module Sp = Nufft.Sample_plan
module Cvec = Numerics.Cvec
module Ds = Trajectory.Dataset

type spec = {
  name : string;
  dataset : Ds.t;
  method_ : Svc.method_;
  density : bool;  (** ramp density compensation (radial trajectories) *)
}

let cg_iterations = 8

(* BENCHMARK.json gates cg-spiral-64; radial-256 and spiral-320-quick
   run the same way but are not gated (see README.md). *)
let specs =
  [ { name = "radial-256"; dataset = Ds.by_name "Image 3"; method_ = Svc.Adjoint;
      density = true };
    { name = "spiral-320-quick"; dataset = Ds.small_variant (Ds.by_name "Image 4");
      method_ = Svc.Adjoint; density = false };
    { name = "cg-spiral-64"; dataset = Ds.by_name "Image 2"; method_ = Svc.Cg cg_iterations;
      density = false } ]

let backend = "serial"
let sigma = 2.0
let n_values = 4 (* distinct k-space vectors, round-robin over requests *)
let oracle_pixels = 48

let grid_of n = int_of_float (Float.round (sigma *. float_of_int n))

type problem = {
  spec : spec;
  n : int;
  g : int;
  m : int;
  traj : Trajectory.Traj.t;
  coords : Nufft.Sample.t;
  density : float array option;
}

(* Trajectory generation and its grid-unit binding: the trajectory layer. *)
let make_problem spec =
  let ds = spec.dataset in
  let traj = Ledger.span "trajectory.gen" (fun () -> ds.Ds.trajectory ()) in
  let g = grid_of ds.Ds.n in
  let coords =
    Ledger.span "trajectory.coords" (fun () -> Imaging.Recon.coords_of_traj ~g traj)
  in
  let density =
    if spec.density then Some (Trajectory.Radial.density_weights traj) else None
  in
  { spec; n = ds.Ds.n; g; m = Trajectory.Traj.length traj; traj; coords; density }

let random_values rng m =
  let v = Cvec.create m in
  for j = 0 to m - 1 do
    Cvec.set_parts v j
      (Random.State.float rng 2.0 -. 1.0)
      (Random.State.float rng 2.0 -. 1.0)
  done;
  v

(* k-space data acquired from a seeded image (the Shepp-Logan phantom
   under a random complex gain, plus low-level noise): consistent data,
   as a scanner would give the iterative solver. *)
let acquired_values rng p =
  let image = Imaging.Phantom.make ~n:p.n () in
  let gr = Random.State.float rng 1.0 +. 0.5 and gi = Random.State.float rng 1.0 -. 0.5 in
  for j = 0 to (p.n * p.n) - 1 do
    let re = Cvec.get_re image j in
    Cvec.set_parts image j
      ((gr *. re) +. Random.State.float rng 0.02)
      ((gi *. re) +. Random.State.float rng 0.02)
  done;
  let op = Op.create backend (Op.context ~sigma ~n:p.n ~coords:p.coords ()) in
  (Imaging.Recon.acquire_op op image).Nufft.Sample.values

let request p values =
  { Svc.backend;
    transform = Nufft.Transform.Type1;
    n = p.n;
    coords = p.coords;
    values;
    density = p.density;
    method_ = p.spec.method_;
    tol = None;
    family = None }

let ok_or_fail what = function
  | Ok x -> x
  | Error e -> failwith (what ^ ": " ^ Svc.error_message e)

(* ------------------------------------------------------------------ *)
(* Staged replay of one request through the layers' public functions:
   lookup -> (density weighting) -> spread -> FFT -> crop/deapodize ->
   scale/copy for the adjoint, lookup -> rhs -> CG solve for CG. The
   result must equal [submit]'s image bit for bit. *)

type buffers = {
  grid : Cvec.t;
  line : Cvec.t;
  image : Cvec.t;
  vals : Cvec.t;
  cg : Imaging.Cg.buffers;
}

let make_buffers p =
  { grid = Cvec.create (p.g * p.g);
    line = Cvec.create p.g;
    image = Cvec.create (p.n * p.n);
    vals = Cvec.create p.m;
    cg = Imaging.Cg.make_buffers (p.n * p.n) }

let lookup svc p =
  Ledger.span "plan_cache.lookup" (fun () ->
      ok_or_fail "lookup" (Svc.operator svc ~backend ~n:p.n ~coords:p.coords))

(* Same arithmetic as the service's density weighting: w*re, w*im. *)
let weight_into w values out =
  for j = 0 to Array.length w - 1 do
    let s = w.(j) in
    Cvec.set_parts out j (s *. Cvec.get_re values j) (s *. Cvec.get_im values j)
  done

let staged_adjoint svc p b values =
  let op, canonical = lookup svc p in
  let plan = Option.get (Op.plan_of op) in
  let vals =
    match p.density with
    | None -> values
    | Some w ->
        Ledger.span "svc.weight" (fun () -> weight_into w values b.vals);
        b.vals
  in
  let splan = Plan.compiled plan canonical in
  Ledger.span "sample_plan.spread" (fun () ->
      Sp.spread_into ~simd:plan.Plan.simd splan vals b.grid);
  Ledger.span "fft.transform" (fun () ->
      Fft.Fftnd.transform_2d ~scratch:b.line Fft.Dft.Inverse ~nx:p.g ~ny:p.g b.grid);
  Ledger.span "apod.crop_deapodize" (fun () ->
      Plan.crop_deapodize_2d_into plan b.grid b.image);
  Ledger.span "svc.scale_copy" (fun () ->
      Cvec.scale_inplace (1.0 /. float_of_int p.m) b.image;
      Cvec.copy b.image)

(* An operator whose adjoint/forward applications are spans. *)
let timed_op (op : Op.op) : Op.op =
  let module O = (val op) in
  (module struct
    include O

    let adjoint s = Ledger.span "operator.adjoint" (fun () -> O.adjoint s)
    let forward x = Ledger.span "operator.forward" (fun () -> O.forward x)
  end)

let staged_cg svc p b values =
  let op, _ = lookup svc p in
  let op = timed_op op in
  let samples = Nufft.Sample.with_values p.coords values in
  let weights = p.density in
  let rhs =
    Ledger.span "cg.rhs" (fun () -> Imaging.Cg.normal_equations_rhs_op ?weights op samples)
  in
  let apply x = Ledger.span "cg.normal_map" (fun () -> Imaging.Cg.normal_map ?weights op x) in
  Ledger.span "cg.solve" (fun () ->
      Imaging.Cg.solve ~max_iterations:cg_iterations ~buffers:b.cg ~apply rhs)

(* ------------------------------------------------------------------ *)
(* Output checks *)

(* Relative L2 error of the image on a seeded pixel subset against the
   exact transform ([Nudft.type3] with the pixel positions as targets). *)
let oracle_error rng p values image =
  let vals =
    match p.density with
    | None -> values
    | Some w ->
        let out = Cvec.create p.m in
        weight_into w values out;
        out
  in
  let pix = Array.init oracle_pixels (fun _ -> Random.State.int rng (p.n * p.n)) in
  let half = p.n / 2 in
  let tx = Array.map (fun i -> float_of_int ((i mod p.n) - half)) pix in
  let ty = Array.map (fun i -> float_of_int ((i / p.n) - half)) pix in
  let exact =
    Nufft.Nudft.type3
      ~sources:[| p.traj.Trajectory.Traj.omega_x; p.traj.Trajectory.Traj.omega_y |]
      ~targets:[| tx; ty |] ~values:vals
  in
  let scale = 1.0 /. float_of_int p.m in
  let num = ref 0.0 and den = ref 0.0 in
  Array.iteri
    (fun k i ->
      let er = Cvec.get_re exact k *. scale and ei = Cvec.get_im exact k *. scale in
      let dr = Cvec.get_re image i -. er and di = Cvec.get_im image i -. ei in
      num := !num +. (dr *. dr) +. (di *. di);
      den := !den +. (er *. er) +. (ei *. ei))
    pix;
  sqrt (!num /. !den)

(* The accuracy the sweep machinery records for the service's default
   geometry (serial backend, w = 6, sigma = 2, l = 512), with the
   contract's slack. *)
let oracle_bound =
  lazy (Imaging.Accuracy.contract_slack *. Imaging.Accuracy.backend_rel_l2_err backend)

let rec nonincreasing = function
  | a :: (b :: _ as rest) -> b <= a && nonincreasing rest
  | _ -> true

(* Checks one value vector's first warm response; returns the failures.
   The exact-transform comparison costs O(M) per pixel, so it runs on the
   first value vector only. *)
let check_response ~oracle rng svc p b values (resp : Svc.response) =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match p.spec.method_ with
  | Svc.Adjoint ->
      let staged = staged_adjoint svc p b values in
      if not (Stats.bits_equal staged resp.Svc.image) then
        fail "staged replay differs from submit";
      if oracle then begin
        let err = oracle_error rng p values resp.Svc.image in
        let bound = Lazy.force oracle_bound in
        Printf.printf "%s: oracle relative L2 error %.3g on %d pixels (bound %.3g)\n" p.spec.name
          err oracle_pixels bound;
        if not (err <= bound) then fail "oracle error %.3g exceeds %.3g" err bound
      end
  | Svc.Cg _ ->
      let res = staged_cg svc p b values in
      if not (Stats.bits_equal res.Imaging.Cg.solution resp.Svc.image) then
        fail "staged CG differs from submit";
      if resp.Svc.iterations <> cg_iterations || res.Imaging.Cg.iterations <> cg_iterations
      then fail "CG ran %d iterations, expected %d" resp.Svc.iterations cg_iterations;
      if not (nonincreasing res.Imaging.Cg.residual_norms) then
        fail "CG residual norms increase");
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* Set-up: trajectory generation plus the first (cold) request in a fresh
   service. Repeated until [budget_s] is spent (at least [min_reps]); the
   median of all cold builds of a run is reported. Half the builds run
   before the timed loop and half after it, so they sample the host the
   way the loop does. *)

let min_reps = 3

let cold_build spec values =
  Gc.full_major ();
  let t0 = Stats.now_s () in
  let p = make_problem spec in
  let svc = Svc.create () in
  ignore (ok_or_fail "cold request" (Svc.submit svc (request p values)));
  let dt = Stats.now_s () -. t0 in
  (dt, p, svc)

let setup ~budget_s times spec values =
  let t_start = Stats.now_s () in
  let rec loop reps =
    let dt, p, svc = cold_build spec values in
    Stats.Buf.push times dt;
    if reps + 1 >= min_reps && Stats.now_s () -. t_start >= budget_s then (p, svc)
    else loop (reps + 1)
  in
  loop 0

(* ------------------------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;
  metrics : Stats.metric list;
}

let metric name unit_ value = { Stats.name; value; unit_ }

let cache_delta svc f =
  let before = Pipeline.Plan_cache.stats (Svc.cache svc) in
  let r = f () in
  let after = Pipeline.Plan_cache.stats (Svc.cache svc) in
  ( r,
    ( after.hits - before.hits,
      after.misses - before.misses,
      after.evictions - before.evictions ) )

(* Expected misses during the timed phase: the plan must stay resident. *)
let residency_problems (_, misses, evictions) =
  (if misses <> 0 then [ Printf.sprintf "residency: %d plan-cache misses, expected 0" misses ]
   else [])
  @ if evictions <> 0 then [ Printf.sprintf "residency: %d evictions, expected 0" evictions ]
    else []

let run ~spec ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed; Hashtbl.hash spec.name |] in
  let values =
    let p = make_problem spec in
    Array.init n_values (fun _ ->
        match spec.method_ with
        | Svc.Adjoint -> random_values rng p.m
        | Svc.Cg _ -> acquired_values rng p)
  in
  let setup_times = Stats.Buf.create () in
  let setup_budget = if trace then 0.0 else 1.5 in
  let p, svc = setup ~budget_s:setup_budget setup_times spec values.(0) in
  let b = make_buffers p in
  (* Warm-up and output checks: the first response for every value
     vector is checked in depth; later ones must match it bit for bit. *)
  let problems = ref [] in
  let expected =
    Array.mapi
      (fun i v ->
        let resp = ok_or_fail "warm request" (Svc.submit svc (request p v)) in
        problems := !problems @ check_response ~oracle:(i = 0) rng svc p b v resp;
        resp.Svc.image)
      values
  in
  let reqs = Array.map (request p) values in
  let attempted = ref 0 and failed = ref 0 in
  let submit k =
    let i = k mod n_values in
    incr attempted;
    match Svc.submit svc reqs.(i) with
    | Ok r when Stats.bits_equal r.Svc.image expected.(i) -> true
    | Ok _ | Error _ ->
        incr failed;
        false
  in
  if not trace then begin
    let starts = Stats.Buf.create () and ends = Stats.Buf.create () in
    let oks = ref [] in
    let (), cache =
      cache_delta svc (fun () ->
          let deadline = Stats.now_s () +. seconds in
          let k = ref 0 in
          while Stats.now_s () < deadline do
            let t0 = Stats.now_s () in
            let ok = submit !k in
            Stats.Buf.push starts t0;
            Stats.Buf.push ends (Stats.now_s ());
            oks := ok :: !oks;
            incr k
          done)
    in
    problems := !problems @ residency_problems cache;
    ignore (setup ~budget_s:setup_budget setup_times spec values.(0));
    let starts = Stats.Buf.to_array starts and ends = Stats.Buf.to_array ends in
    let lat_ms = Array.mapi (fun i e -> 1000.0 *. (e -. starts.(i))) ends in
    let q = Stats.quiet ~starts ~ends ~lat_ms ~ok:(Array.of_list (List.rev !oks)) in
    Printf.printf
      "%s: quietest %d of %d windows; latency_ms_tail is %s; failed_frac %.6g (%d/%d)\n"
      spec.name q.Stats.q_kept q.Stats.q_windows (Stats.tail_label q.Stats.q_tail)
      (float_of_int !failed /. float_of_int (max 1 !attempted))
      !failed !attempted;
    { attempted = !attempted;
      failed = !failed;
      problems = !problems;
      metrics =
        [ metric "latency_ms_p50" "ms" q.Stats.q_p50;
          metric "latency_ms_tail" "ms" q.Stats.q_tail.Stats.value;
          metric "throughput_msamples_per_s" "Msamples/s"
            (q.Stats.q_rate *. float_of_int p.m /. 1e6);
          metric "setup_s" "s" (Stats.median (Stats.Buf.to_array setup_times));
          metric "peak_rss_mb" "MB" (Stats.peak_rss_mb ()) ] }
  end
  else begin
    (* Traced run. Layer metrics measured around single calls first. *)
    Ledger.enable ();
    let layer = ref [] in
    let add name unit_ v = layer := metric name unit_ v :: !layer in
    for _ = 1 to 5 do
      ignore (make_problem spec)
    done;
    add "trajectory.gen_s" "s"
      ((Ledger.median_ms "trajectory.gen" +. Ledger.median_ms "trajectory.coords") /. 1000.0);
    (* Cold lookups (plan build + compile) in fresh caches. *)
    for _ = 1 to 3 do
      let fresh = Svc.create () in
      Gc.full_major ();
      ignore
        (Ledger.span "plan_cache.build" (fun () ->
             Svc.operator fresh ~backend ~n:p.n ~coords:p.coords))
    done;
    add "plan_cache.build_s" "s" (Ledger.median_ms "plan_cache.build" /. 1000.0);
    let op, canonical = lookup svc p in
    let plan = Option.get (Op.plan_of op) in
    for _ = 1 to 3 do
      let fresh = Plan.make ~w:plan.Plan.w ~sigma ~l:plan.Plan.l ~n:p.n () in
      Gc.full_major ();
      ignore (Ledger.span "sample_plan.compile" (fun () -> Plan.compiled fresh canonical))
    done;
    let splan = Plan.compiled plan canonical in
    add "sample_plan.compile_s" "s" (Ledger.median_ms "sample_plan.compile" /. 1000.0);
    add "sample_plan.resident_mb" "MB"
      (float_of_int (Sp.memory_words splan * 8) /. 1e6);
    (* Timed loop: untraced and traced requests alternate, so both see
       the same host phase. *)
    let minor = Stats.Buf.create () and untraced = Stats.Buf.create () in
    let majors = ref 0 and traced_n = ref 0 and cg_iters_seen = ref 0 in
    let (), cache =
      cache_delta svc (fun () ->
          let deadline = Stats.now_s () +. seconds in
          let k = ref 0 in
          while Stats.now_s () < deadline do
            let i = !k mod n_values in
            Ledger.set_request !k;
            if !k land 1 = 0 then begin
              let t0 = Stats.now_s () in
              ignore (submit !k);
              Stats.Buf.push untraced ((Stats.now_s () -. t0) *. 1000.0)
            end
            else begin
              let w0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).Gc.major_collections in
              ignore (Ledger.span "svc.submit" (fun () -> submit !k));
              Stats.Buf.push minor (Gc.minor_words () -. w0);
              majors := !majors + (Gc.quick_stat ()).Gc.major_collections - g0;
              incr traced_n;
              match spec.method_ with
              | Svc.Adjoint ->
                  let img = staged_adjoint svc p b values.(i) in
                  if not (Stats.bits_equal img expected.(i)) then incr failed
              | Svc.Cg _ ->
                  let res = staged_cg svc p b values.(i) in
                  cg_iters_seen := res.Imaging.Cg.iterations;
                  if not (Stats.bits_equal res.Imaging.Cg.solution expected.(i)) then
                    incr failed
            end;
            incr k
          done)
    in
    problems := !problems @ residency_problems cache;
    let hits, misses, evictions = cache in
    add "plan_cache.lookup_us" "us" (1000.0 *. Ledger.median_ms "plan_cache.lookup");
    add "plan_cache.hits" "count" (float_of_int hits);
    add "plan_cache.misses" "count" (float_of_int misses);
    add "plan_cache.evictions" "count" (float_of_int evictions);
    add "plan_cache.hit_ratio" "fraction"
      (float_of_int hits /. float_of_int (max 1 (hits + misses)));
    let submit_ms = Ledger.median_ms "svc.submit" in
    let staged =
      List.fold_left
        (fun acc s -> acc +. Ledger.median_ms s)
        0.0
        (match spec.method_ with
        | Svc.Adjoint ->
            [ "plan_cache.lookup"; "svc.weight"; "sample_plan.spread"; "fft.transform";
              "apod.crop_deapodize"; "svc.scale_copy" ]
        | Svc.Cg _ -> [ "plan_cache.lookup"; "cg.rhs"; "cg.solve" ])
    in
    add "svc.submit_ms" "ms" submit_ms;
    add "svc.stage_coverage" "fraction" (staged /. submit_ms);
    add "svc.unattributed_ms" "ms" (submit_ms -. staged);
    add "workspace.minor_words_per_request" "words" (Stats.median (Stats.Buf.to_array minor));
    add "workspace.major_gcs_per_1k" "count"
      (1000.0 *. float_of_int !majors /. float_of_int (max 1 !traced_n));
    add "workspace.in_use_after" "count"
      (float_of_int (Pipeline.Workspace.stats (Svc.workspace svc)).Pipeline.Workspace.in_use);
    (* Stages off the adjoint path, timed on the same plan and buffers. *)
    for _ = 1 to 9 do
      ignore
        (Ledger.span "sample_plan.gather" (fun () ->
             Sp.gather ~simd:plan.Plan.simd splan b.grid));
      ignore (Ledger.span "apod.pad_apodize" (fun () -> Plan.pad_apodize_2d plan b.image))
    done;
    (* The adjoint stages once more on every workload (CG runs them
       inside its operator, where they are not separately visible). *)
    for _ = 1 to 9 do
      ignore (staged_adjoint svc p b values.(0))
    done;
    let spread_ms = Ledger.median_ms "sample_plan.spread" in
    let fft_ms = Ledger.median_ms "fft.transform" in
    let entries = Sp.length splan * Sp.points_per_sample splan in
    (* Computed bytes: index + weight read and grid read-modify-write per
       entry, one value read per sample, the zero fill of the grid. *)
    let bytes = (entries * (8 + 8 + 16 + 16)) + (p.m * 16) + (p.g * p.g * 16) in
    add "sample_plan.spread_ms" "ms" spread_ms;
    add "sample_plan.spread_entries" "count" (float_of_int entries);
    add "sample_plan.spread_gbps_computed" "GB/s" (float_of_int bytes /. (spread_ms *. 1e6));
    add "sample_plan.gather_ms" "ms" (Ledger.median_ms "sample_plan.gather");
    add "fft.transform_ms" "ms" fft_ms;
    add "fft.gflops_est" "GFLOP/s"
      (Fft.Fftnd.flop_estimate_2d ~nx:p.g ~ny:p.g /. (fft_ms *. 1e6));
    add "apod.crop_deapodize_ms" "ms" (Ledger.median_ms "apod.crop_deapodize");
    add "apod.pad_apodize_ms" "ms" (Ledger.median_ms "apod.pad_apodize");
    add "operator.forward_ms" "ms" (Ledger.median_ms "operator.forward");
    add "operator.adjoint_ms" "ms" (Ledger.median_ms "operator.adjoint");
    add "cg.iterations" "count" (float_of_int !cg_iters_seen);
    add "cg.rhs_ms" "ms" (Ledger.median_ms "cg.rhs");
    add "cg.normal_map_ms" "ms" (Ledger.median_ms "cg.normal_map");
    let u = Stats.median (Stats.Buf.to_array untraced) in
    add "trace.overhead_pct" "%" (100.0 *. (submit_ms -. u) /. u);
    { attempted = !attempted; failed = !failed; problems = !problems; metrics = List.rev !layer }
  end
