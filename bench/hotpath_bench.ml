(* Hot-path perf-regression harness.

   Measures, on a fixed seeded workload: gridding throughput (samples/sec)
   and allocation (minor words/sample) for each CPU engine plus the
   compiled-plan replay path, and the wall time of a CG reconstruction
   (right-hand side through the compiled plan, iterations through the
   operator's Toeplitz normal map). With [json := true] the numbers are
   written to BENCH_hotpath.json, one engine per line, so
   check_hotpath.exe (and the CI perf smoke job) can diff them against
   the checked-in baseline with a tolerance. *)

module Cvec = Numerics.Cvec
module Sample = Nufft.Sample
module Op = Nufft.Operator

let json = ref false
let json_path = "BENCH_hotpath.json"

type row = {
  name : string;
  samples_per_sec : float;
  minor_words_per_sample : float;
}

let now () = Unix.gettimeofday ()

(* Run [f] repeatedly for >= 0.3 s (at least twice, after one warmup call)
   and return (samples/sec, minor words/sample). *)
let measure ~m f =
  ignore (f ());
  let t0 = now () in
  let w0 = Gc.minor_words () in
  let reps = ref 0 in
  let elapsed = ref 0.0 in
  while !reps < 2 || !elapsed < 0.3 do
    ignore (f ());
    incr reps;
    elapsed := now () -. t0
  done;
  let words = Gc.minor_words () -. w0 in
  let total = float_of_int (!reps * m) in
  (total /. !elapsed, words /. total)

(* Steady-state serving through the pipeline layer: one cold request pays
   the plan build, then identical-trajectory requests replay the cached
   plan through pooled arenas. Reports cold/warm latency, warm
   requests/sec, and warm minor words per request (the arena discipline
   keeps the latter O(1), a few hundred words). *)
let service_case ~quick =
  let n = if quick then 32 else 64 in
  let spokes = if quick then 16 else 48 in
  let traj = Trajectory.Radial.make ~spokes ~readout:(2 * n) () in
  let coords = Imaging.Recon.coords_of_traj ~g:(2 * n) traj in
  let m = Sample.length coords in
  let values =
    Cvec.init m (fun j ->
        Numerics.Complexd.make (sin (0.1 *. float_of_int j)) 0.25)
  in
  let module Svc = Pipeline.Recon_service in
  let svc = Svc.create () in
  let req =
    { Svc.backend = "serial";
      transform = Nufft.Transform.Type1;
      n;
      coords;
      values;
      density = None;
      method_ = Svc.Adjoint;
      tol = None;
      family = None }
  in
  let ok = function
    | Ok _ -> ()
    | Error e -> failwith ("hotpath service bench: " ^ Svc.error_message e)
  in
  let t0 = now () in
  ok (Svc.submit svc req);
  let cold_ms = 1000.0 *. (now () -. t0) in
  ok (Svc.submit svc req);
  let t0 = now () in
  let w0 = Gc.minor_words () in
  let reps = ref 0 and elapsed = ref 0.0 in
  while !reps < 2 || !elapsed < 0.3 do
    ok (Svc.submit svc req);
    incr reps;
    elapsed := now () -. t0
  done;
  let words = Gc.minor_words () -. w0 in
  let rps = float_of_int !reps /. !elapsed in
  (rps, cold_ms, 1000.0 /. rps, words /. float_of_int !reps, m)

let cg_case ~quick =
  let n = if quick then 32 else 64 in
  let g = 2 * n in
  let m = if quick then 1500 else 6000 in
  let tile = Nufft.Coord.fallback_tile ~g ~w:6 in
  let plan =
    Nufft.Plan.make ~engine:(Nufft.Gridding.Slice_and_dice tile) ~n ()
  in
  let coords = Sample.random_2d ~seed:7 ~g m in
  let op = Op.of_plan plan ~coords in
  let image =
    Cvec.init (n * n) (fun idx ->
        let ix = idx mod n and iy = idx / n in
        let d2 c = (float_of_int c -. (float_of_int n /. 2.0)) ** 2.0 in
        Numerics.Complexd.of_float (exp (-.(d2 ix +. d2 iy) /. 16.0)))
  in
  let data = Op.apply_forward op image in
  let iterations = 8 in
  let t0 = now () in
  let b = Imaging.Cg.normal_equations_rhs_op op data in
  let result =
    Imaging.Cg.solve ~max_iterations:iterations ~tolerance:0.0
      ~apply:(Imaging.Cg.normal_map op) b
  in
  let wall = now () -. t0 in
  ignore result.Imaging.Cg.solution;
  (n, m, result.Imaging.Cg.iterations, wall)

(* Kernel rows, reported and not gated: the forward gather of a
   compiled plan in ns per sample under scalar C and under the widest
   vector implementation, and one 2D inverse FFT of a g^2 grid cropped
   to n = g/2 (the adjoint's pruned transform) under the active
   dispatch. Fixed at g = 128, m = 4000 in every mode, best of three
   interleaved runs each. Each FFT starts from the same grid, reset by
   a copy whose own best time is subtracted: repeated unnormalised
   transforms would overflow to inf and NaN within ~70 calls. *)
type kernels = {
  k_g : int;
  k_m : int;
  gather_impl : string;
  gather_scalar_ns : float;
  gather_simd_ns : float;
  fft_impl : string;
  fft_us : float;
}

let kernels_case () =
  let g = 128 and m = 4000 in
  let n = g / 2 in
  let plan = Nufft.Plan.make ~n () in
  let samples = Sample.random_2d ~seed:42 ~g m in
  let sp = Nufft.Plan.compiled plan samples in
  let grid =
    Cvec.init (g * g) (fun k ->
        Numerics.Complexd.make (cos (0.01 *. float_of_int k)) 0.5)
  in
  let gather impl () =
    Simd.with_impl impl (fun () ->
        ignore (Nufft.Sample_plan.gather ~simd:true sp grid))
  in
  let fft_grid = Cvec.copy grid in
  let reset () = Cvec.blit grid fft_grid in
  let fft () =
    reset ();
    Fft.Fftnd.transform_cropped Fft.Dft.Inverse ~dims:2 ~g ~n fft_grid
  in
  let best = Array.make 4 0.0 in
  for _ = 1 to 3 do
    List.iteri
      (fun i (items, f) ->
        let per_sec, _ = measure ~m:items f in
        best.(i) <- Float.max best.(i) per_sec)
      [ (m, gather Simd.Scalar); (m, gather Simd.available); (1, fft);
        (1, reset) ]
  done;
  { k_g = g;
    k_m = m;
    gather_impl = Simd.impl_name Simd.available;
    gather_scalar_ns = 1e9 /. best.(0);
    gather_simd_ns = 1e9 /. best.(1);
    fft_impl = Simd.impl_name (Simd.active ());
    fft_us = 1e6 /. best.(2) -. (1e6 /. best.(3)) }

let write_json ~quick ~g ~m ~tile ~disabled_pct ~replay:(rsps, psps, domains)
    ~simd:(simd_name, scalar_sps, simd_sps, simd_required)
    ~dispatch:(d_serial, d_sps, d_pool, d_profitable) ~kernels:k rows
    (svc_rps, svc_cold_ms, svc_warm_ms, svc_words, svc_m)
    (cg_n, cg_m, cg_iters, cg_wall) =
  let oc = open_out json_path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"hotpath-1\",\n";
  p "  \"quick\": %b,\n" quick;
  p "  \"g\": %d,\n" g;
  p "  \"m\": %d,\n" m;
  p "  \"w\": %d,\n" Bench_data.w;
  p "  \"tile\": %d,\n" tile;
  p "  \"engines\": [\n";
  List.iteri
    (fun i r ->
      p
        "    { \"name\": %S, \"samples_per_sec\": %.1f, \
         \"minor_words_per_sample\": %.4f }%s\n"
        r.name r.samples_per_sec r.minor_words_per_sample
        (if i < List.length rows - 1 then "," else ""))
    rows;
  p "  ],\n";
  p "  \"telemetry_disabled_overhead_pct\": %.2f,\n" disabled_pct;
  (* required_speedup 0.0 marks the gate as skipped: with one domain the
     parallel path degenerates to serial dispatch and any ratio near 1.0
     would pass (or fail) on noise alone. *)
  p
    "  \"replay\": { \"serial_sps\": %.1f, \"parallel_sps\": %.1f, \
     \"domains\": %d, \"speedup\": %.3f, \"required_speedup\": %.3f },\n"
    rsps psps domains (psps /. rsps)
    (if domains >= 2 then float_of_int domains /. 2.0 else 0.0);
  p
    "  \"simd\": { \"impl\": %S, \"scalar_sps\": %.1f, \"simd_sps\": %.1f, \
     \"speedup\": %.3f, \"required_speedup\": %.3f },\n"
    simd_name scalar_sps simd_sps
    (simd_sps /. scalar_sps)
    simd_required;
  (* Self-asserting dispatch gate: the Slice_parallel engine demotes to
     the bit-identical serial schedule when the profitability model says
     the pool cannot win, so the dispatched path must never be slower
     than serial beyond measurement noise (the 0.90 floor). *)
  p
    "  \"slice_dispatch\": { \"serial_sps\": %.1f, \"dispatched_sps\": \
     %.1f, \"pool_size\": %d, \"profitable\": %b, \"ratio\": %.3f, \
     \"required_ratio\": 0.900 },\n"
    d_serial d_sps d_pool d_profitable
    (d_sps /. d_serial);
  p "  \"kernels\": {\n";
  p
    "    \"gather\": { \"g\": %d, \"m\": %d, \"impl\": %S, \
     \"scalar_ns_per_sample\": %.2f, \"simd_ns_per_sample\": %.2f },\n"
    k.k_g k.k_m k.gather_impl k.gather_scalar_ns k.gather_simd_ns;
  p
    "    \"fft_2d_cropped\": { \"g\": %d, \"n\": %d, \"impl\": %S, \
     \"us\": %.2f }\n"
    k.k_g (k.k_g / 2) k.fft_impl k.fft_us;
  p "  },\n";
  p
    "  \"service\": { \"requests_per_sec\": %.1f, \"cold_plan_ms\": %.3f, \
     \"warm_request_ms\": %.3f, \"minor_words_per_request\": %.1f, \"m\": \
     %d },\n"
    svc_rps svc_cold_ms svc_warm_ms svc_words svc_m;
  p "  \"cg\": { \"n\": %d, \"m\": %d, \"iterations\": %d, \"wall_s\": %.6f }\n"
    cg_n cg_m cg_iters cg_wall;
  p "}\n";
  close_out oc;
  Printf.printf "  wrote %s\n" json_path

let run () =
  let quick = !Bench_data.quick in
  let g = if quick then 128 else 256 in
  let m = if quick then 4000 else 40000 in
  let samples = Sample.random_2d ~seed:42 ~g m in
  let gx = Sample.gx samples and gy = Sample.gy samples in
  let values = samples.Sample.values in
  let table = Perf_models.table_for () in
  let tile = Nufft.Coord.fallback_tile ~g ~w:Bench_data.w in
  Printf.printf
    "\n=== Hot-path regression harness (g=%d, m=%d, w=%d, tile=%d) ===\n" g m
    Bench_data.w tile;
  (* output-parallel is O(M G^2): ~100x the work of the others at this
     size, so it is deliberately not part of the hot-path suite. *)
  Printf.printf "  (output-parallel engine excluded: O(M*G^2) scan)\n";
  let engine name e =
    let f () = Nufft.Gridding.grid_2d e ~table ~g ~gx ~gy values in
    let sps, words = measure ~m f in
    { name; samples_per_sec = sps; minor_words_per_sample = words }
  in
  (* Parallel replay is measured on its own small pool (capped at 4
     domains so the headline is comparable across machines; the
     JIGSAW_BENCH_DOMAINS env var overrides the cap so CI can pin a
     meaningful shard count); the warmup call inside [measure] builds and
     caches the region partition, so the timed reps see only the
     per-shard dispatch — the steady state of a CG loop or a warm
     service. *)
  let replay_domains =
    let auto = min 4 (Domain.recommended_domain_count ()) in
    match Sys.getenv_opt "JIGSAW_BENCH_DOMAINS" with
    | None -> auto
    | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> auto)
  in
  let replay, replay_parallel, replay_simd, replay_simd_parallel, replay_info,
      simd_info =
    let plan =
      Nufft.Plan.make ~engine:(Nufft.Gridding.Slice_and_dice tile)
        ~n:(g / 2) ()
    in
    let sp = Nufft.Plan.compiled plan samples in
    (* Replay through [spread_into] on a reused workspace grid: the
       steady state of a CG loop or warm service, and the path whose
       per-call cost is pure kernel (zero-fill + accumulate) rather
       than bigarray allocation. *)
    let work = Cvec.create (Nufft.Sample_plan.grid_length sp) in
    let f () = Nufft.Sample_plan.spread_into sp values work in
    (* SIMD replay: same compiled stream through the dispatched C spread
       kernel. The 1.5x floor applies only when a vector implementation
       is live — scalar C vs the OCaml loop is a wash by design, and
       required_speedup 0.0 records the gate as skipped. The scalar and
       SIMD sides are measured interleaved, best of three, so the gate
       compares each loop's best showing rather than trusting two
       back-to-back windows on a possibly frequency-drifting host. *)
    let impl = Simd.active () in
    let fs () = Nufft.Sample_plan.spread_into ~simd:true sp values work in
    let sps = ref 0.0 and words = ref 0.0 in
    let ssps = ref 0.0 and swords = ref 0.0 in
    for _ = 1 to 3 do
      let s, w = measure ~m f in
      if s > !sps then begin
        sps := s;
        words := w
      end;
      let s, w = measure ~m fs in
      if s > !ssps then begin
        ssps := s;
        swords := w
      end
    done;
    let sps = !sps and words = !words in
    let ssps = !ssps and swords = !swords in
    let pool = Runtime.Pool.create ~domains:replay_domains () in
    let fp () = Nufft.Sample_plan.spread_parallel ~pool sp values in
    let psps, pwords = measure ~m fp in
    (* Ungated: SIMD replay on the same pool into the reused grid, the
       path a pooled plan's adjoint runs. *)
    let simd_parallel =
      if Simd.enabled () then
        let fsp () =
          Nufft.Sample_plan.spread_parallel_into ~pool ~simd:true sp values
            work
        in
        let s, w = measure ~m fsp in
        Some
          { name = "compiled-replay-simd-parallel";
            samples_per_sec = s;
            minor_words_per_sample = w }
      else None
    in
    Runtime.Pool.shutdown pool;
    let required =
      match impl with Simd.Avx2 | Simd.Neon -> 1.5 | _ -> 0.0
    in
    ( { name = "compiled-replay";
        samples_per_sec = sps;
        minor_words_per_sample = words },
      { name = "compiled-replay-parallel";
        samples_per_sec = psps;
        minor_words_per_sample = pwords },
      (if Simd.enabled () then
         Some
           { name = "compiled-replay-simd";
             samples_per_sec = ssps;
             minor_words_per_sample = swords }
       else None),
      simd_parallel,
      (sps, psps, replay_domains),
      (Simd.impl_name impl, sps, ssps, required) )
  in
  let rows =
    [ engine "serial" Nufft.Gridding.Serial;
      engine "slice" (Nufft.Gridding.Slice_and_dice tile);
      engine "slice-parallel" (Nufft.Gridding.Slice_parallel tile);
      engine "binned" (Nufft.Gridding.Binned tile);
      replay;
      replay_parallel ]
    @ Option.to_list replay_simd
    @ Option.to_list replay_simd_parallel
  in
  Printf.printf "  %-16s %14s %18s\n" "engine" "samples/sec"
    "minor words/sample";
  List.iter
    (fun r ->
      Printf.printf "  %-16s %14.0f %18.4f\n" r.name r.samples_per_sec
        r.minor_words_per_sample)
    rows;
  (* Telemetry overhead: the dispatched serial engine passes through one
     span wrapper (an Atomic read when disabled). The disabled run must
     stay within the 5% overhead budget of a direct engine call; the
     enabled run shows the cost of actually recording spans.

     Both sides are measured interleaved, best of three, with telemetry
     disabled for both: a single back-to-back pair is at the mercy of
     frequency drift and page-cache warmup, which historically inflated
     the "overhead" well past the real dispatch cost (the two loops are
     the same code modulo one Atomic read). Max-of-3 on each side pairs
     each loop's best against the other's best. *)
  let direct () = Nufft.Gridding_serial.grid_2d ~table ~g ~gx ~gy values in
  let dispatched () =
    Nufft.Gridding.grid_2d Nufft.Gridding.Serial ~table ~g ~gx ~gy values
  in
  Telemetry.set_enabled false;
  let sps_direct = ref 0.0 and sps_disabled = ref 0.0 in
  for _ = 1 to 3 do
    let d, _ = measure ~m direct in
    if d > !sps_direct then sps_direct := d;
    let s, _ = measure ~m dispatched in
    if s > !sps_disabled then sps_disabled := s
  done;
  let sps_direct = !sps_direct and sps_disabled = !sps_disabled in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let sps_enabled, _ = measure ~m dispatched in
  Telemetry.set_enabled false;
  Telemetry.reset ();
  let overhead ref_sps sps = 100.0 *. ((ref_sps /. sps) -. 1.0) in
  let disabled_pct = overhead sps_direct sps_disabled in
  Printf.printf "  telemetry overhead (serial engine):\n";
  Printf.printf "  %-24s %14.0f samples/sec\n" "direct call" sps_direct;
  Printf.printf "  %-24s %14.0f samples/sec  (%+.1f%% vs direct)\n"
    "dispatched, disabled" sps_disabled disabled_pct;
  Printf.printf "  %-24s %14.0f samples/sec  (%+.1f%% vs direct)\n"
    "dispatched, enabled" sps_enabled
    (overhead sps_direct sps_enabled);
  Printf.printf "  disabled overhead %.1f%% (budget < 5%%)%s\n" disabled_pct
    (if disabled_pct < 5.0 then "" else "  OVER BUDGET");
  let rsps, psps, rdomains = replay_info in
  if rdomains >= 2 then
    Printf.printf
      "  parallel replay: %.2fx serial on %d domains (required >= %.2fx)\n"
      (psps /. rsps) rdomains
      (float_of_int rdomains /. 2.0)
  else
    Printf.printf
      "  parallel replay: %.2fx on 1 domain — speedup gate SKIPPED (set \
       JIGSAW_BENCH_DOMAINS>=2 for a meaningful gate)\n"
      (psps /. rsps);
  let simd_name, scalar_sps, simd_sps, simd_required = simd_info in
  Option.iter
    (fun r ->
      Printf.printf
        "  simd parallel replay (%s): %.2fx serial simd replay on %d domains \
         (not gated)\n"
        simd_name (r.samples_per_sec /. simd_sps) rdomains)
    replay_simd_parallel;
  if simd_required > 0.0 then
    Printf.printf
      "  simd replay (%s): %.2fx scalar replay (required >= %.2fx)\n"
      simd_name (simd_sps /. scalar_sps) simd_required
  else
    Printf.printf
      "  simd replay (%s): %.2fx scalar replay — speedup gate SKIPPED (no \
       vector unit dispatched)\n"
      simd_name (simd_sps /. scalar_sps);
  (* Dispatch-demotion gate for the slice-parallel cliff: the dispatched
     Slice_parallel engine (which demotes to the bit-identical serial
     schedule when [slice_parallel_profitable] says the pool cannot
     win) must never be slower than the serial engine beyond noise. *)
  let dispatch_info =
    let find name = List.find (fun r -> r.name = name) rows in
    let serial_sps = (find "serial").samples_per_sec in
    let dispatched_sps = (find "slice-parallel").samples_per_sec in
    let pool_size = Runtime.Pool.global_size () in
    let profitable =
      Nufft.Gridding.slice_parallel_profitable ~pool_size ~t:tile
        ~w:Bench_data.w ~m
    in
    Printf.printf
      "  slice-parallel dispatch: %.2fx serial (pool %d, %s; required >= \
       0.90x)%s\n"
      (dispatched_sps /. serial_sps)
      pool_size
      (if profitable then "column-scan path" else "demoted to serial")
      (if dispatched_sps /. serial_sps >= 0.9 then "" else "  BELOW FLOOR");
    (serial_sps, dispatched_sps, pool_size, profitable)
  in
  let ((svc_rps, svc_cold_ms, svc_warm_ms, svc_words, svc_m) as svc) =
    service_case ~quick
  in
  Printf.printf
    "  service (warm plan-cache serving, m=%d): %.0f req/s, cold %.3f ms, \
     warm %.3f ms, %.0f minor words/request\n"
    svc_m svc_rps svc_cold_ms svc_warm_ms svc_words;
  let k = kernels_case () in
  Printf.printf
    "  kernels (g=%d, m=%d, not gated): gather %.1f ns/sample scalar, %.1f \
     ns/sample %s; 2D cropped FFT %.1f us (%s)\n"
    k.k_g k.k_m k.gather_scalar_ns k.gather_simd_ns k.gather_impl k.fft_us
    k.fft_impl;
  let ((_, _, cg_iters, cg_wall) as cg) = cg_case ~quick in
  Printf.printf "  CG (Toeplitz normal map, %d iterations): %.3f s\n" cg_iters
    cg_wall;
  if !json then
    write_json ~quick ~g ~m ~tile ~disabled_pct ~replay:replay_info
      ~simd:simd_info ~dispatch:dispatch_info ~kernels:k rows svc cg
