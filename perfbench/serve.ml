(* The served workload: JGS1 requests over loopback to an in-process
   [Serving.Server] with one worker domain, four tenants round-robin,
   and at most two client connections.

   Load is open loop: request [k] of a phase is due at [start + k/rate]
   and its latency runs from that due time, so a stall is charged to
   every request it delays. The phase at the fixed rate gives the
   end-to-end figures. The traced run adds a bisection over offered
   rates for the highest rate whose tail stays within one 40 frames/s
   frame, with no failed request and no growing backlog.

   One request in 16 carries the next 24 spokes of a seeded golden-angle
   sequence, so its tenant sees a new trajectory: a plan-cache miss and
   a plan build under load. Every response is checked bit for bit
   against the in-process result for the same request. *)

module P = Serving.Protocol
module C = Serving.Client
module S = Serving.Server
module Svc = Pipeline.Recon_service
module Traj = Trajectory.Traj

let n = 64
let spokes = 24
let readout = 128
let m = spokes * readout
let n_tenants = 4
let n_values = 4
let fresh_every = 16
let fixed_rate = 200.0
let tail_limit_ms = 25.0
let connections = 2
let golden = Float.pi *. (3.0 -. sqrt 5.0)

(* ------------------------------------------------------------------ *)
(* The request sequence is a pure function of the global request index
   [k]: tenant [k mod 4], value vector [(k/4) mod 4]. Block [b] (16
   requests) gives tenant [b mod 4] a fresh trajectory (id [4 + b]) at
   its first request in the block; until then a tenant keeps its last
   one (initially id = tenant). *)

let tenant_of k = k mod n_tenants
let value_of k = k / n_tenants mod n_values

let is_fresh k =
  let b = k / fresh_every in
  k mod fresh_every = b mod n_tenants

let traj_of k =
  let t = tenant_of k and b = k / fresh_every in
  let back = ((b - t) mod n_tenants + n_tenants) mod n_tenants in
  let b' = b - back in
  if b' >= 0 && k >= (fresh_every * b') + t then n_tenants + b' else t

type traj = { omega : float array array; density : float array }

(* Trajectory [id]: 24 consecutive golden-angle spokes from a seeded
   starting spoke. *)
let make_traj ~seed id =
  let first = (seed * 100_003) + (spokes * id) in
  let omega_x = Array.make m 0.0 and omega_y = Array.make m 0.0 in
  for s = 0 to spokes - 1 do
    let theta = Float.rem (float_of_int (first + s) *. golden) Float.pi in
    let ct = cos theta and st = sin theta in
    for i = 0 to readout - 1 do
      let r = Float.pi *. ((2.0 *. float_of_int i /. float_of_int readout) -. 1.0) in
      omega_x.((s * readout) + i) <- r *. ct;
      omega_y.((s * readout) + i) <- r *. st
    done
  done;
  let t = Traj.make ~omega_x ~omega_y in
  { omega = [| t.Traj.omega_x; t.Traj.omega_y |];
    density = Trajectory.Radial.density_weights t }

type inputs = {
  seed : int;
  trajs : (int, traj) Hashtbl.t;  (** recently used trajectories *)
  trajs_mu : Mutex.t;
  values : float array array;  (** interleaved re/im *)
}

let make_inputs seed =
  let rng = Random.State.make [| seed; Hashtbl.hash "serve-realtime-64" |] in
  { seed;
    trajs = Hashtbl.create 64;
    trajs_mu = Mutex.create ();
    values =
      Array.init n_values (fun _ ->
          Array.init (2 * m) (fun _ -> Random.State.float rng 2.0 -. 1.0)) }

(* Trajectories are made on demand and regenerated if needed again; a
   request only uses ids a few blocks behind the newest, so the table
   keeps a sliding window of them and memory stays flat. *)
let traj_window = 4 * n_tenants

let traj inputs id =
  Mutex.lock inputs.trajs_mu;
  let t =
    match Hashtbl.find_opt inputs.trajs id with
    | Some t -> t
    | None ->
        let t = make_traj ~seed:inputs.seed id in
        Hashtbl.add inputs.trajs id t;
        Hashtbl.filter_map_inplace
          (fun old t -> if old < id - traj_window then None else Some t)
          inputs.trajs;
        t
  in
  Mutex.unlock inputs.trajs_mu;
  t

let wire_request_of inputs k t =
  { P.tenant = Printf.sprintf "tenant-%d" (tenant_of k);
    backend = "";
    n;
    dims = 2;
    method_ = P.Adjoint;
    tol = None;
    family = None;
    transform = Nufft.Transform.Type1;
    omega = t.omega;
    values = inputs.values.(value_of k);
    density = Some t.density }

let wire_request inputs k = wire_request_of inputs k (traj inputs (traj_of k))

(* The in-process result for the same request, built exactly as the
   tenant layer builds it. *)
let reference svc inputs k =
  let r = wire_request inputs k in
  let values = Numerics.Cvec.create m in
  for j = 0 to m - 1 do
    Numerics.Cvec.set_parts values j r.P.values.(2 * j) r.P.values.((2 * j) + 1)
  done;
  let g = Inproc.grid_of n in
  let coords = Nufft.Sample.of_omega ~g ~omega:r.P.omega ~values in
  let req =
    { Svc.backend = Inproc.backend; transform = Nufft.Transform.Type1; n; coords;
      values; density = r.P.density; method_ = Svc.Adjoint; tol = None; family = None }
  in
  (Inproc.ok_or_fail "reference" (Svc.submit svc req)).Svc.image

(* ------------------------------------------------------------------ *)
(* Server lifecycle *)

(* Handler time per request, recorded on the worker domain. *)
type handler_log = { mu : Mutex.t; log : (int * int) Queue.t  (** start ns, duration ns *) }

let start_server ?log () =
  let config =
    { S.default_config with
      workers = 1;
      record_spans = false;
      tenants = { Serving.Tenants.default_config with max_tenants = n_tenants } }
  in
  let tenants = ref None in
  let handler =
    match log with
    | None -> None
    | Some l ->
        Some
          (fun r ->
            let t0 = Telemetry.Clock.now_ns () in
            let res = Serving.Tenants.handle (Option.get !tenants) r in
            let dt = Telemetry.Clock.now_ns () - t0 in
            Mutex.lock l.mu;
            Queue.push (t0, dt) l.log;
            Mutex.unlock l.mu;
            res)
  in
  let s = S.create ~config ?handler () in
  tenants := Some (S.tenants s);
  S.start s;
  s

let stop_server s = ignore (S.stop ~timeout_s:10.0 s)

(* ------------------------------------------------------------------ *)
(* One open-loop phase at a fixed offered rate *)

type phase = {
  count : int;
  k0 : int;
  due : float array;
  sent : float array;
  done_ : float array;
  ok : bool array;
  digest : int array;
  wall : float;
}

let response_digest (r : P.recon_response) =
  if r.P.image_n = n && r.P.image_dims = 2 && Array.length r.P.image = 2 * n * n then
    Some (Stats.digest_floats r.P.image)
  else None

(* One open-loop phase: request [i] is due at [start + i/rate], the phase
   holds [rate * duration] requests, and latency runs from the due time.
   The [connections] client connections take request indices in turn from
   a shared counter, so whichever connection is free sends the next one. *)
let run_phase ~port inputs ~k0 ~rate ~duration =
  let count = max 1 (int_of_float (rate *. duration)) in
  let due = Array.init count (fun i -> float_of_int i /. rate) in
  let sent = Array.make count 0.0 and done_ = Array.make count 0.0 in
  let ok = Array.make count false and digest = Array.make count 0 in
  let start = Stats.now_s () +. 0.01 in
  let next = Atomic.make 0 in
  let client () =
    let conn = ref None in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < count then begin
        (* The request is built before it is due, so the generator's own
           work stays out of the measured latency. *)
        let req = P.Recon (wire_request inputs (k0 + i)) in
        due.(i) <- start +. due.(i);
        let wait = due.(i) -. Stats.now_s () in
        if wait > 0.0 then Thread.delay wait;
        sent.(i) <- Stats.now_s ();
        (match
           match !conn with
           | Some cn -> cn
           | None ->
               let cn = C.connect ~port () in
               conn := Some cn;
               cn
         with
        | cn -> (
            match C.call cn req with
            | Ok (P.Recon_ok r) -> (
                match response_digest r with
                | Some h ->
                    ok.(i) <- true;
                    digest.(i) <- h
                | None -> ())
            | Ok _ -> ()
            | Error _ ->
                C.close cn;
                conn := None)
        | exception Unix.Unix_error _ -> ());
        done_.(i) <- Stats.now_s ();
        loop ()
      end
    in
    loop ();
    Option.iter C.close !conn
  in
  let threads = Array.init connections (fun _ -> Thread.create client ()) in
  Array.iter Thread.join threads;
  let wall = Array.fold_left Float.max 0.0 done_ -. start in
  { count; k0; due; sent; done_; ok; digest; wall }

let failures ph = Array.fold_left (fun a o -> if o then a else a + 1) 0 ph.ok

let latencies_ms ph =
  Array.init ph.count (fun i -> 1000.0 *. (ph.done_.(i) -. ph.due.(i)))

let late_ms ph = Array.init ph.count (fun i -> 1000.0 *. (ph.sent.(i) -. ph.due.(i)))

let fresh_count ph =
  let c = ref 0 in
  for i = 0 to ph.count - 1 do
    if is_fresh (ph.k0 + i) then incr c
  done;
  !c

(* A rate is sustained when nothing failed, the tail is within one frame
   and the generator did not end behind schedule by more than a frame. *)
let sustained ph =
  failures ph = 0
  && (Stats.tail (latencies_ms ph)).Stats.value <= tail_limit_ms
  && 1000.0 *. (ph.sent.(ph.count - 1) -. ph.due.(ph.count - 1)) <= tail_limit_ms

(* ------------------------------------------------------------------ *)

let cold_setup inputs =
  Gc.full_major ();
  let t0 = Stats.now_s () in
  let s = start_server () in
  let t = make_traj ~seed:inputs.seed 1_000_000 in
  let c = C.connect ~port:(S.port s) () in
  let r = C.call c (P.Recon (wire_request_of inputs 0 t)) in
  let dt = Stats.now_s () -. t0 in
  C.close c;
  stop_server s;
  match r with
  | Ok (P.Recon_ok _) -> dt
  | _ -> failwith "cold served request failed"

let cache_totals s =
  List.fold_left
    (fun (h, mi, e) (_, st) ->
      (h + st.Pipeline.Plan_cache.hits, mi + st.misses, e + st.evictions))
    (0, 0, 0)
    (Serving.Tenants.cache_stats (S.tenants s))

(* Check every recorded response against the in-process result. The
   requests are replayed grouped by trajectory, so the reference service
   builds each plan once and needs to keep only the current one. *)
let verify inputs phases =
  let svc = Svc.create ~cache:(Pipeline.Plan_cache.create ~max_entries:2 ()) () in
  let expected = Hashtbl.create 1024 in
  let answered =
    List.concat_map
      (fun ph ->
        List.filter_map (fun i -> if ph.ok.(i) then Some (ph, i) else None)
          (List.init ph.count Fun.id))
      phases
  in
  let traj_id (ph, i) = traj_of (ph.k0 + i) in
  let by_traj = List.stable_sort (fun a b -> compare (traj_id a) (traj_id b)) answered in
  let mismatches = ref 0 in
  List.iter
    (fun (ph, i) ->
      let k = ph.k0 + i in
      let key = (traj_of k, value_of k) in
      let h =
        match Hashtbl.find_opt expected key with
        | Some h -> h
        | None ->
            let h = Stats.digest_cvec (reference svc inputs k) in
            Hashtbl.add expected key h;
            h
      in
      if h <> ph.digest.(i) then begin
        ph.ok.(i) <- false;
        incr mismatches
      end)
    by_traj;
  !mismatches

(* Max-rate search: bracket by doubling from the fixed rate, then bisect
   geometrically until the bracket is within 2%, or [deadline]. Returns
   the highest sustained rate, the phase measured there, and every probe. *)
let max_rate_search phase ~fixed ~deadline =
  let probes = ref [] and best = ref (fixed_rate, fixed) in
  let try_rate r =
    let ph = phase ~rate:r 0.5 in
    probes := ph :: !probes;
    let pass = sustained ph in
    if pass then best := (r, ph);
    pass
  in
  let lo =
    ref
      (if sustained fixed then fixed_rate
       else begin
         let r = ref (fixed_rate /. 2.0) in
         while (not (try_rate !r)) && !r > 1.0 do
           r := !r /. 2.0
         done;
         !r
       end)
  in
  let hi = ref (2.0 *. !lo) in
  while Stats.now_s () < deadline && try_rate !hi do
    lo := !hi;
    hi := 2.0 *. !hi
  done;
  while !hi /. !lo > 1.02 && Stats.now_s () < deadline do
    let mid = sqrt (!lo *. !hi) in
    if try_rate mid then lo := mid else hi := mid
  done;
  (fst !best, List.rev !probes)

let run ~seed ~seconds ~trace =
  let inputs = make_inputs seed in
  let problems = ref [] in
  (* The traced run first takes the in-process layer metrics on the same
     geometry (Image 1: 24 spokes x 128, n = 64). *)
  let in_proc =
    if trace then
      Some
        (Inproc.run
           ~spec:
             { Inproc.name = "serve-realtime-64"; dataset = Trajectory.Dataset.by_name "Image 1";
               method_ = Svc.Adjoint; density = true }
           ~seed ~seconds:(0.3 *. seconds) ~trace:true)
    else None
  in
  Option.iter (fun o -> problems := o.Inproc.problems) in_proc;
  (* Set-up: a fresh server, a new trajectory and its first (cold)
     request; half the repetitions before the timed phase, half after. *)
  let setup_times = Stats.Buf.create () in
  let setups k =
    if not trace then
      for _ = 1 to k do
        Stats.Buf.push setup_times (cold_setup inputs)
      done
  in
  setups 5;
  let log = if trace then Some { mu = Mutex.create (); log = Queue.create () } else None in
  let s = start_server ?log () in
  let port = S.port s in
  let next_k = ref 0 in
  let phase ~rate duration =
    let ph = run_phase ~port inputs ~k0:!next_k ~rate ~duration in
    next_k := !next_k + ph.count;
    ph
  in
  (* Prime: every tenant builds its first plans before timing. *)
  ignore (phase ~rate:2000.0 (float_of_int (4 * fresh_every) /. 2000.0));
  let hits0, misses0, evictions0 = cache_totals s in
  let t_measure = Stats.now_s () in
  let fixed = phase ~rate:fixed_rate ((if trace then 0.35 else 1.0) *. seconds) in
  let max_rate, probes =
    if trace then max_rate_search phase ~fixed ~deadline:(t_measure +. (0.7 *. seconds))
    else (0.0, [])
  in
  let hits, misses, evictions =
    let h, mi, e = cache_totals s in
    (h - hits0, mi - misses0, e - evictions0)
  in
  let phases = fixed :: probes in
  let fresh = List.fold_left (fun a ph -> a + fresh_count ph) 0 phases in
  if misses <> fresh then
    problems :=
      Printf.sprintf "residency: %d plan-cache misses, expected %d (fresh trajectories)" misses
        fresh
      :: !problems;
  let st = S.stats s in
  stop_server s;
  setups 4;
  let mismatches = verify inputs phases in
  if mismatches > 0 then
    problems :=
      Printf.sprintf "%d served responses differ from the in-process result" mismatches
      :: !problems;
  let attempted = List.fold_left (fun a ph -> a + ph.count) 0 phases in
  let failed = List.fold_left (fun a ph -> a + failures ph) 0 phases in
  let lat = latencies_ms fixed in
  match in_proc with
  | None ->
      let q = Stats.quiet ~starts:fixed.due ~ends:fixed.done_ ~lat_ms:lat ~ok:fixed.ok in
      Printf.printf
        "serve-realtime-64: %g req/s open loop; quietest %d of %d windows; latency_ms_tail is \
         %s; failed_frac %.6g (%d/%d)\n"
        fixed_rate q.Stats.q_kept q.Stats.q_windows (Stats.tail_label q.Stats.q_tail)
        (float_of_int failed /. float_of_int (max 1 attempted))
        failed attempted;
      { Inproc.attempted;
        failed;
        problems = !problems;
        metrics =
          [ Inproc.metric "latency_ms_p50" "ms" q.Stats.q_p50;
            Inproc.metric "latency_ms_tail" "ms" q.Stats.q_tail.Stats.value;
            (* At a fixed offered rate this echoes the rate unless requests
               fail or the server falls behind; capacity is the traced
               run's serve.max_rate_rps. *)
            Inproc.metric "throughput_msamples_per_s" "Msamples/s"
              (float_of_int ((fixed.count - failures fixed) * m) /. fixed.wall /. 1e6);
            Inproc.metric "setup_s" "s" (Stats.median (Stats.Buf.to_array setup_times));
            Inproc.metric "peak_rss_mb" "MB" (Stats.peak_rss_mb ()) ] }
  | Some in_proc ->
      let log = Option.get log in
      let handle_ms =
        Array.of_seq (Seq.map (fun (_, d) -> float_of_int d *. 1e-6) (Queue.to_seq log.log))
      in
      Queue.iter
        (fun (ts, d) -> Ledger.record "tenants.handle" ~ts_ns:ts ~dur_ns:d ~req:(-1))
        log.log;
      (* Codec costs on a representative request and response. *)
      let req = P.Recon (wire_request inputs fixed.k0) in
      let resp =
        P.Recon_ok
          { P.iterations = 0; elapsed_s = 0.0; image_n = n; image_dims = 2;
            image = Array.init (2 * n * n) float_of_int }
      in
      let frame_of bytes =
        let d = P.Decoder.create () in
        P.Decoder.feed_string d bytes;
        match P.Decoder.next d with Ok (Some f) -> f | _ -> failwith "frame"
      in
      let req_bytes = P.encode_request req and resp_bytes = P.encode_response resp in
      for _ = 1 to 50 do
        ignore (Ledger.span "protocol.encode_request" (fun () -> P.encode_request req));
        ignore
          (Ledger.span "protocol.decode_request" (fun () ->
               P.decode_request (frame_of req_bytes)));
        ignore (Ledger.span "protocol.encode_response" (fun () -> P.encode_response resp));
        ignore
          (Ledger.span "protocol.decode_response" (fun () ->
               P.decode_response (frame_of resp_bytes)))
      done;
      let us name = 1000.0 *. Ledger.median_ms name in
      let codec_ms =
        (us "protocol.encode_request" +. us "protocol.decode_request"
        +. us "protocol.encode_response" +. us "protocol.decode_response")
        /. 1000.0
      in
      (* Handler time on the worker during the fixed-rate phase only. *)
      let busy =
        Queue.fold
          (fun acc (ts, d) ->
            let t = float_of_int ts *. 1e-9 in
            if t >= fixed.due.(0) && t <= fixed.due.(0) +. fixed.wall then
              acc +. (float_of_int d *. 1e-9)
            else acc)
          0.0 log.log
      in
      let handle_med = if handle_ms = [||] then 0.0 else Stats.median handle_ms in
      let override =
        [ ("plan_cache.hits", "count", float_of_int hits);
          ("plan_cache.misses", "count", float_of_int misses);
          ("plan_cache.evictions", "count", float_of_int evictions);
          ( "plan_cache.hit_ratio", "fraction",
            float_of_int hits /. float_of_int (max 1 (hits + misses)) );
          ("protocol.encode_request_us", "us", us "protocol.encode_request");
          ("protocol.decode_request_us", "us", us "protocol.decode_request");
          ("protocol.encode_response_us", "us", us "protocol.encode_response");
          ("protocol.decode_response_us", "us", us "protocol.decode_response");
          ("protocol.request_bytes", "bytes", float_of_int (String.length req_bytes));
          ("protocol.response_bytes", "bytes", float_of_int (String.length resp_bytes));
          ("tenants.handle_ms", "ms", handle_med);
          ("server.worker_busy_frac", "fraction", busy /. fixed.wall);
          ("server.wait_ms", "ms", Stats.median lat -. handle_med -. codec_ms);
          ("server.shed", "count", float_of_int st.S.s_shed);
          ("server.timeouts", "count", float_of_int st.S.s_timeouts);
          ("server.protocol_errors", "count", float_of_int st.S.s_protocol_errors);
          ("serve.max_rate_rps", "1/s", max_rate);
          ("serve.max_rate_probes", "count", float_of_int (List.length probes));
          ("generator.late_ms_tail", "ms", (Stats.tail (late_ms fixed)).Stats.value) ]
      in
      let metrics =
        List.filter
          (fun mt -> not (List.exists (fun (nm, _, _) -> nm = mt.Stats.name) override))
          in_proc.Inproc.metrics
        @ List.map (fun (name, unit_, value) -> Inproc.metric name unit_ value) override
      in
      { Inproc.attempted = attempted + in_proc.Inproc.attempted;
        failed = failed + in_proc.Inproc.failed;
        problems = !problems;
        metrics }
