(* Fault-injection and lifecycle battery for the serving tier: shedding
   under a full admission queue, deterministic graceful drain on a
   latch, mid-request disconnects, slow-loris timeouts, malformed and
   oversized frames — all answered with typed errors, no exception
   escaping a worker or connection thread, and no arena or plan-cache
   leakage (asserted through Workspace/Plan_cache counters). *)

module P = Serving.Protocol
module S = Serving.Server
module C = Serving.Client
module Prom = Serving.Prometheus

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let wait_until ?(timeout = 10.0) ?(what = "condition") pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () >= deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let with_server ?config ?handler f =
  let t = S.create ?config ?handler () in
  S.start t;
  Fun.protect ~finally:(fun () -> ignore (S.stop ~timeout_s:20.0 t)) (fun () -> f t)

let quick_config =
  { S.default_config with queue_capacity = 8; workers = 1;
    read_timeout_s = 5.0 }

(* ------------------------------------------------------------------ *)
(* Latch: a handler the test releases explicitly, making queue depth and
   drain timing deterministic. *)

type latch = {
  lm : Mutex.t;
  lc : Condition.t;
  mutable open_ : bool;
  mutable entered : int;
}

let latch () =
  { lm = Mutex.create (); lc = Condition.create (); open_ = false; entered = 0 }

let latch_entered l =
  Mutex.lock l.lm;
  let n = l.entered in
  Mutex.unlock l.lm;
  n

let latch_open l =
  Mutex.lock l.lm;
  l.open_ <- true;
  Condition.broadcast l.lc;
  Mutex.unlock l.lm

let dummy_response =
  { P.iterations = 0; elapsed_s = 0.0; image_n = 2; image_dims = 2;
    image = [| 0.0; 0.0 |] }

let latch_handler l _req =
  Mutex.lock l.lm;
  l.entered <- l.entered + 1;
  while not l.open_ do
    Condition.wait l.lc l.lm
  done;
  Mutex.unlock l.lm;
  Ok dummy_response

let tiny_recon ?(tenant = "t") ?(m = 4) () =
  { P.tenant; backend = ""; transform = Nufft.Transform.Type1;
    n = 8; dims = 2; method_ = P.Adjoint; tol = None;
    family = None;
    omega =
      [| Array.init m (fun j -> -3.0 +. (0.37 *. float_of_int j));
         Array.init m (fun j -> 3.0 -. (0.53 *. float_of_int j)) |];
    values = Array.init (2 * m) (fun j -> float_of_int (j + 1));
    density = None }

let call_recon port req =
  let c = C.connect ~port () in
  Fun.protect ~finally:(fun () -> C.close c) (fun () ->
      C.call c (P.Recon req))

(* ------------------------------------------------------------------ *)
(* Admission control: full queue sheds with a typed error, and the
   connection survives the shed (typed errors are not protocol errors) *)

let test_shedding () =
  let l = latch () in
  let config = { quick_config with queue_capacity = 2; workers = 1 } in
  with_server ~config ~handler:(latch_handler l) (fun t ->
      (* the latch must open even on an assertion failure, or [S.stop]
         would wait forever on the latched worker domain *)
      Fun.protect ~finally:(fun () -> latch_open l) @@ fun () ->
      let port = S.port t in
      let results = Array.make 3 None in
      let send i =
        Thread.create
          (fun () -> results.(i) <- Some (call_recon port (tiny_recon ())))
          ()
      in
      (* first request occupies the single worker before the next two go
         out, so exactly two sit in the queue — without the ordering, all
         three could enqueue before the worker wakes and the third would
         be shed early *)
      let first = send 0 in
      wait_until ~what:"worker latched" (fun () -> latch_entered l = 1);
      let rest = [ send 1; send 2 ] in
      let senders = first :: rest in
      wait_until ~what:"queue full" (fun () ->
          (S.stats t).S.s_queue_depth = 2);
      (* the fourth request is shed immediately, and the same connection
         still answers a ping afterwards — shedding is not a framing
         error *)
      let c = C.connect ~port () in
      (match C.call c (P.Recon (tiny_recon ())) with
      | Ok (P.Err (P.Shed, _)) -> ()
      | r ->
          Alcotest.failf "expected Shed, got %s"
            (match r with
            | Ok _ -> "another response"
            | Error e -> C.call_error_message e));
      (match C.ping c with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "connection dead after shed: %s"
            (C.call_error_message e));
      C.close c;
      latch_open l;
      List.iter Thread.join senders;
      Array.iter
        (fun r ->
          match r with
          | Some (Ok (P.Recon_ok _)) -> ()
          | _ -> Alcotest.fail "latched request did not complete")
        results;
      let s = S.stats t in
      checki "exactly one shed" 1 s.S.s_shed;
      checkb "all latched answered" true (s.S.s_responses >= 4))

(* ------------------------------------------------------------------ *)
(* Graceful drain: in-flight requests complete, new connections get the
   typed draining error, the listener closes *)

let test_graceful_drain () =
  let l = latch () in
  let config = { quick_config with queue_capacity = 8; workers = 1 } in
  with_server ~config ~handler:(latch_handler l) (fun t ->
      Fun.protect ~finally:(fun () -> latch_open l) @@ fun () ->
      let port = S.port t in
      let results = Array.make 3 None in
      let senders =
        Array.init 3 (fun i ->
            Thread.create
              (fun () -> results.(i) <- Some (call_recon port (tiny_recon ())))
              ())
      in
      wait_until ~what:"worker latched" (fun () -> latch_entered l = 1);
      wait_until ~what:"two queued" (fun () ->
          (S.stats t).S.s_queue_depth = 2);
      S.drain t;
      checkb "not yet drained (in-flight work)" false (S.drained t);
      (* a connection arriving during the drain is answered with the
         typed Draining status, not a hangup *)
      let c = C.connect ~port () in
      (match C.recv_response c with
      | Ok (P.Err (P.Draining, _)) -> ()
      | r ->
          Alcotest.failf "expected Draining, got %s"
            (match r with
            | Ok _ -> "another response"
            | Error e -> C.call_error_message e));
      C.close c;
      (* release: every in-flight request completes and is answered *)
      latch_open l;
      Array.iter Thread.join senders;
      Array.iter
        (fun r ->
          match r with
          | Some (Ok (P.Recon_ok _)) -> ()
          | _ -> Alcotest.fail "in-flight request lost during drain")
        results;
      checkb "drain completes" true (S.await_drained ~timeout_s:10.0 t);
      checkb "drained" true (S.drained t);
      (* the listener is closed once stopped: connects are refused *)
      wait_until ~what:"listener closed" (fun () ->
          match C.connect ~port () with
          | c ->
              (* accept backlog may still absorb one; a closed listener
                 surfaces as ECONNREFUSED or an immediate EOF *)
              let dead =
                match C.recv_response c with
                | Error C.Closed -> true
                | Ok (P.Err (P.Draining, _)) -> false
                | _ -> false
              in
              C.close c;
              dead
          | exception Unix.Unix_error (ECONNREFUSED, _, _) -> true);
      let s = S.stats t in
      checkb "draining rejections counted" true (s.S.s_draining_rejected >= 1);
      checki "nothing left queued" 0 s.S.s_queue_depth;
      checki "nothing executing" 0 s.S.s_executing)

(* ------------------------------------------------------------------ *)
(* Worker isolation: a handler exception becomes a typed internal error *)

let test_handler_exception_is_typed () =
  with_server ~config:quick_config
    ~handler:(fun _ -> failwith "boom")
    (fun t ->
      match call_recon (S.port t) (tiny_recon ()) with
      | Ok (P.Err (P.Internal_error, msg)) ->
          checkb "carries the exception text" true
            (String.length msg > 0)
      | _ -> Alcotest.fail "expected a typed Internal_error")

(* ------------------------------------------------------------------ *)
(* Fault injection on the wire *)

let test_malformed_frame () =
  with_server ~config:quick_config (fun t ->
      let c = C.connect ~port:(S.port t) () in
      (match C.send_raw c "XXXXXXXXXXXXXXXX" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" (C.call_error_message e));
      (match C.recv_response c with
      | Ok (P.Err (P.Bad_request, _)) -> ()
      | _ -> Alcotest.fail "expected typed Bad_request for garbage");
      (* after a framing error the server hangs up *)
      (match C.recv_response c with
      | Error C.Closed -> ()
      | _ -> Alcotest.fail "connection must close after a framing error");
      C.close c;
      wait_until ~what:"conn unregistered" (fun () ->
          (S.stats t).S.s_active_connections = 0);
      checkb "protocol error counted" true
        ((S.stats t).S.s_protocol_errors >= 1);
      (* the server is unharmed: a fresh connection works *)
      let c2 = C.connect ~port:(S.port t) () in
      (match C.ping c2 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "ping: %s" (C.call_error_message e));
      C.close c2)

let test_oversized_frame () =
  let config =
    { quick_config with limits = { P.default_limits with max_payload = 4096 } }
  in
  with_server ~config (fun t ->
      let c = C.connect ~port:(S.port t) () in
      let b = Buffer.create 16 in
      Buffer.add_string b P.magic;
      Buffer.add_char b '\x02';
      Buffer.add_char b '\x00';
      Buffer.add_int32_be b 16_777_216l;
      (match C.send_raw c (Buffer.contents b) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" (C.call_error_message e));
      (match C.recv_response c with
      | Ok (P.Err (P.Too_large, _)) -> ()
      | _ -> Alcotest.fail "expected typed Too_large");
      C.close c)

let test_mid_request_disconnect () =
  with_server ~config:quick_config (fun t ->
      let req = P.encode_request (P.Recon (tiny_recon ())) in
      let c = C.connect ~port:(S.port t) () in
      (* half a frame, then vanish *)
      (match C.send_raw c (String.sub req 0 (String.length req / 2)) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" (C.call_error_message e));
      C.close c;
      wait_until ~what:"disconnect counted" (fun () ->
          (S.stats t).S.s_disconnects >= 1);
      wait_until ~what:"connection reaped" (fun () ->
          (S.stats t).S.s_active_connections = 0);
      (* no state poisoned: next client is served *)
      let c2 = C.connect ~port:(S.port t) () in
      (match C.ping c2 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "ping: %s" (C.call_error_message e));
      C.close c2)

let test_slow_loris () =
  let config = { quick_config with read_timeout_s = 0.3 } in
  with_server ~config (fun t ->
      let req = P.encode_request (P.Recon (tiny_recon ())) in
      let c = C.connect ~port:(S.port t) () in
      (match C.send_raw c (String.sub req 0 7) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" (C.call_error_message e));
      (* ...and stall. The read timeout fires with a partial frame
         buffered: typed Timeout, then hangup. *)
      (match C.recv_response c with
      | Ok (P.Err (P.Timeout, _)) -> ()
      | r ->
          Alcotest.failf "expected Timeout, got %s"
            (match r with
            | Ok _ -> "another response"
            | Error e -> C.call_error_message e));
      (match C.recv_response c with
      | Error C.Closed -> ()
      | _ -> Alcotest.fail "connection must close after loris timeout");
      C.close c;
      checkb "timeout counted" true ((S.stats t).S.s_timeouts >= 1))

(* ------------------------------------------------------------------ *)
(* End-to-end reconstruction through the default tenant handler, plus
   resource-stability assertions: plan-cache reuse within quota, arenas
   all returned, across a GC. *)

let test_end_to_end_recon () =
  let config =
    { quick_config with
      workers = 2;
      tenants = { Serving.Tenants.default_config with cache_entries = 4 } }
  in
  with_server ~config (fun t ->
      let port = S.port t in
      let req = tiny_recon ~tenant:"alice" ~m:32 () in
      let expect_image r =
        match r with
        | Ok (P.Recon_ok resp) ->
            checki "image length" (2 * 8 * 8) (Array.length resp.P.image);
            checki "iterations" 0 resp.P.iterations;
            checkb "finite image" true
              (Array.for_all Float.is_finite resp.P.image);
            resp.P.image
        | Ok (P.Err (st, msg)) ->
            Alcotest.failf "recon failed: %s: %s" (P.status_name st) msg
        | Ok _ -> Alcotest.fail "unexpected response"
        | Error e -> Alcotest.failf "call: %s" (C.call_error_message e)
      in
      let img1 = expect_image (call_recon port req) in
      let img2 = expect_image (call_recon port req) in
      checkb "identical requests give bitwise-identical images" true
        (Array.for_all2
           (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
           img1 img2);
      (* the second request rode the tenant's plan cache *)
      let stats = Serving.Tenants.cache_stats (S.tenants t) in
      (match List.assoc_opt "alice" stats with
      | Some cs ->
          checkb "cache hit on repeat" true (cs.Pipeline.Plan_cache.hits >= 1);
          checkb "entries within quota" true
            (cs.Pipeline.Plan_cache.entries <= 4)
      | None -> Alcotest.fail "tenant cache missing");
      (* CG path, and its iteration cap *)
      (match call_recon port { req with method_ = P.Cg 4 } with
      | Ok (P.Recon_ok resp) -> checkb "cg iterated" true (resp.P.iterations >= 1)
      | _ -> Alcotest.fail "cg recon failed");
      (match call_recon port { req with method_ = P.Cg 1_000_000 } with
      | Ok (P.Err (P.Bad_request, _)) -> ()
      | _ -> Alcotest.fail "iteration cap must be a typed Bad_request");
      (* semantic validation is typed, connection survives *)
      (match call_recon port { req with dims = 3 } with
      | Ok (P.Err (P.Bad_request, _)) -> ()
      | _ -> Alcotest.fail "axis mismatch must be a typed Bad_request");
      (* type-2 forward projections are not served over the wire (the
         response frame carries one value per sample, not an image) *)
      (match
         call_recon port { req with transform = Nufft.Transform.Type2 }
       with
      | Ok (P.Err (P.Bad_request, _)) -> ()
      | _ -> Alcotest.fail "wire type-2 must be a typed Bad_request");
      (* type-3 reconstructs on the default lattice targets *)
      (match
         call_recon port { req with transform = Nufft.Transform.Type3 }
       with
      | Ok (P.Recon_ok resp) ->
          checki "type-3 image length" (Array.length img1)
            (Array.length resp.P.image)
      | _ -> Alcotest.fail "wire type-3 recon failed");
      (* every arena came back, and stays back across a GC *)
      Gc.full_major ();
      let ws = Pipeline.Workspace.stats (Serving.Tenants.workspace (S.tenants t)) in
      checki "no arena checked out" 0 ws.Pipeline.Workspace.in_use;
      checkb "arenas were exercised" true (ws.Pipeline.Workspace.checkouts >= 3))

(* Tenants rejects a non-finite density weight next to its omega check,
   before any service work. *)
let test_nonfinite_density_bad_request () =
  let t = Serving.Tenants.create () in
  List.iter
    (fun bad ->
      let density = Array.make 4 1.0 in
      density.(2) <- bad;
      let req = { (tiny_recon ()) with P.density = Some density } in
      match Serving.Tenants.handle t req with
      | Error (P.Bad_request, msg) ->
          Alcotest.(check string) "message" "non-finite density weight" msg
      | Error (_, msg) -> Alcotest.failf "wrong status: %s" msg
      | Ok _ -> Alcotest.failf "weight %g accepted" bad)
    [ Float.nan; Float.infinity ]

let test_tenant_quota () =
  let config =
    { quick_config with
      tenants = { Serving.Tenants.default_config with max_tenants = 1 } }
  in
  with_server ~config (fun t ->
      let port = S.port t in
      (match call_recon port (tiny_recon ~tenant:"only" ()) with
      | Ok (P.Recon_ok _) -> ()
      | _ -> Alcotest.fail "first tenant must be admitted");
      match call_recon port (tiny_recon ~tenant:"second" ()) with
      | Ok (P.Err (P.Quota, _)) -> ()
      | _ -> Alcotest.fail "tenant past the quota must get typed Quota")

(* ------------------------------------------------------------------ *)
(* Metrics: the exposition parses, is structurally valid, and counters
   are monotonic across scrapes; HTTP interop serves the same document *)

let scrape_binary port =
  let c = C.connect ~port () in
  Fun.protect ~finally:(fun () -> C.close c) (fun () ->
      match C.metrics c with
      | Ok body -> body
      | Error e -> Alcotest.failf "metrics: %s" (C.call_error_message e))

let test_metrics_exposition () =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) (fun () ->
      with_server ~config:quick_config (fun t ->
          let port = S.port t in
          ignore (call_recon port (tiny_recon ()));
          let body1 = scrape_binary port in
          let samples1, _types =
            match Prom.validate body1 with
            | Ok v -> v
            | Error msg -> Alcotest.failf "invalid exposition: %s" msg
          in
          let v1 =
            match Prom.find samples1 "srv_requests_total" with
            | Some v -> v
            | None -> Alcotest.fail "srv_requests_total missing"
          in
          checkb "request histogram exported" true
            (Prom.find samples1 "srv_request_us_count" <> None);
          checkb "queue gauge exported" true
            (Prom.find samples1 "srv_queue_depth" <> None);
          ignore (call_recon port (tiny_recon ()));
          let body2 = scrape_binary port in
          let samples2, _ =
            match Prom.validate body2 with
            | Ok v -> v
            | Error msg -> Alcotest.failf "invalid exposition: %s" msg
          in
          (match Prom.find samples2 "srv_requests_total" with
          | Some v2 -> checkb "counter is monotonic" true (v2 > v1)
          | None -> Alcotest.fail "srv_requests_total vanished")))

(* A CG request builds its operator's Toeplitz spectrum, and /metrics
   exports the build counter. The request has four samples per unknown
   (a 16 x 16 lattice for n = 8), so CG runs on the Toeplitz map. *)
let test_normal_counter_exported () =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) (fun () ->
      with_server ~config:quick_config (fun t ->
          let port = S.port t in
          let m = 256 in
          let at k = -.Float.pi +. 0.1 +. (2.0 *. Float.pi *. float_of_int k /. 16.0) in
          let req =
            { (tiny_recon ~m ()) with
              P.method_ = P.Cg 3;
              omega =
                [| Array.init m (fun j -> at (j mod 16));
                   Array.init m (fun j -> at (j / 16)) |] }
          in
          (match call_recon port req with
          | Ok (P.Recon_ok r) ->
              checkb "cg iterations" true (r.P.iterations >= 1)
          | _ -> Alcotest.fail "cg request failed");
          let samples, _ =
            match Prom.validate (scrape_binary port) with
            | Ok v -> v
            | Error msg -> Alcotest.failf "invalid exposition: %s" msg
          in
          match Prom.find samples "op_normal_spectra_built_total" with
          | Some v -> checkb "one spectrum built" true (v = 1.0)
          | None -> Alcotest.fail "op_normal_spectra_built_total missing"))

let http_get port path =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\n\r\n" path in
      let b = Bytes.of_string req in
      ignore (Unix.write fd b 0 (Bytes.length b));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec read_all () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            read_all ()
        | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ()
      in
      read_all ();
      Buffer.contents buf)

let test_http_metrics () =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) (fun () ->
      with_server ~config:quick_config (fun t ->
          let port = S.port t in
          ignore (call_recon port (tiny_recon ()));
          let doc = http_get port "/metrics" in
          checkb "200" true
            (String.length doc > 12 && String.sub doc 0 12 = "HTTP/1.1 200");
          (match String.index_opt doc '\r' with
          | None -> Alcotest.fail "no status line"
          | Some _ -> ());
          let body =
            let rec find i =
              if i + 4 > String.length doc then Alcotest.fail "no header end"
              else if String.sub doc i 4 = "\r\n\r\n" then
                String.sub doc (i + 4) (String.length doc - i - 4)
              else find (i + 1)
            in
            find 0
          in
          (match Prom.validate body with
          | Ok (samples, _) ->
              checkb "http scrape has requests counter" true
                (Prom.find samples "srv_requests_total" <> None)
          | Error msg -> Alcotest.failf "invalid http exposition: %s" msg);
          let hz = http_get port "/healthz" in
          checkb "healthz ok" true
            (String.length hz > 12 && String.sub hz 0 12 = "HTTP/1.1 200");
          let nf = http_get port "/nope" in
          checkb "404 for unknown path" true
            (String.length nf > 12 && String.sub nf 0 12 = "HTTP/1.1 404")))

(* Creating a server caps the major GC's space overhead (request buffers
   are large and short-lived) and never raises it. *)
let test_space_overhead_cap () =
  let before = (Gc.get ()).Gc.space_overhead in
  ignore (S.create ());
  let capped = (Gc.get ()).Gc.space_overhead in
  Alcotest.(check int) "capped at 80" (min before 80) capped;
  Gc.set { (Gc.get ()) with Gc.space_overhead = 60 };
  ignore (S.create ());
  Alcotest.(check int) "a lower setting is kept" 60
    (Gc.get ()).Gc.space_overhead;
  Gc.set { (Gc.get ()) with Gc.space_overhead = capped }

let () =
  Alcotest.run "server"
    [ ( "admission",
        [ Alcotest.test_case "full queue sheds typed" `Quick test_shedding;
          Alcotest.test_case "handler exception is typed" `Quick
            test_handler_exception_is_typed ] );
      ( "drain",
        [ Alcotest.test_case "graceful drain" `Quick test_graceful_drain ] );
      ( "faults",
        [ Alcotest.test_case "malformed frame" `Quick test_malformed_frame;
          Alcotest.test_case "oversized frame" `Quick test_oversized_frame;
          Alcotest.test_case "mid-request disconnect" `Quick
            test_mid_request_disconnect;
          Alcotest.test_case "slow loris" `Quick test_slow_loris ] );
      ( "recon",
        [ Alcotest.test_case "end-to-end with cache and arenas" `Quick
            test_end_to_end_recon;
          Alcotest.test_case "tenant quota" `Quick test_tenant_quota;
          Alcotest.test_case "create caps the GC space overhead" `Quick
            test_space_overhead_cap;
          Alcotest.test_case "non-finite density is a bad request" `Quick
            test_nonfinite_density_bad_request ] );
      ( "metrics",
        [ Alcotest.test_case "exposition and monotonicity" `Quick
            test_metrics_exposition;
          Alcotest.test_case "http interop" `Quick test_http_metrics;
          Alcotest.test_case "normal spectra counter" `Quick
            test_normal_counter_exported ] ) ]
