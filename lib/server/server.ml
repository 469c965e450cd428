(* The serving tier: accept loop, per-connection protocol threads,
   worker domains behind a bounded admission queue, graceful drain.

   Thread/domain model on OCaml 5:

   - one systhread runs the accept loop (select with a 50 ms tick so it
     observes drain promptly, then non-blocking accept);
   - one systhread per connection decodes frames incrementally and
     writes responses — these block on socket I/O, which releases the
     runtime lock, so any number of them coexist with the workers;
   - [workers] spawned {e domains} execute reconstructions pulled from
     the bounded queue — the only CPU-parallel tier, sized to cores.

   Admission control: [Recon] frames pass through the bounded queue;
   when it is full the connection thread answers a typed [Shed] frame
   immediately (never blocks the client on a saturated server), and
   when the server is draining it answers [Draining]. Cheap requests
   (ping, metrics, stats) are served inline on the connection thread and
   bypass the queue, so observability survives overload.

   Graceful drain is a three-state machine (Running -> Draining ->
   Stopped), transitions under the queue mutex: drain() stops admission
   and shuts the read side of every live connection (in-flight requests
   still get their responses — the write side stays open); the last
   worker to finish flips Draining -> Stopped; the accept thread
   observes Stopped and closes the listener. *)

let c_accepted = Telemetry.Counter.make "srv.accepted"
let c_requests = Telemetry.Counter.make "srv.requests"
let c_responses = Telemetry.Counter.make "srv.responses"
let c_shed = Telemetry.Counter.make "srv.shed"
let c_draining = Telemetry.Counter.make "srv.draining_rejected"
let c_timeouts = Telemetry.Counter.make "srv.timeouts"
let c_protocol_errors = Telemetry.Counter.make "srv.protocol_errors"
let c_disconnects = Telemetry.Counter.make "srv.disconnects"
let c_http = Telemetry.Counter.make "srv.http_requests"
let h_request_us = Telemetry.Histogram.make "srv.request_us"

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  backlog : int;
  queue_capacity : int;
  workers : int;
  read_timeout_s : float;
  max_connections : int;
  limits : Protocol.limits;
  tenants : Tenants.config;
  record_spans : bool;
}

let default_config =
  { host = "127.0.0.1";
    port = 0;
    backlog = 64;
    queue_capacity = 32;
    workers = 2;
    read_timeout_s = 5.0;
    max_connections = 128;
    limits = Protocol.default_limits;
    tenants = Tenants.default_config;
    record_spans = false }

type handler =
  Protocol.recon_request ->
  (Protocol.recon_response, Protocol.status * string) result

(* Response rendezvous between a connection thread and a worker. *)
type cell = {
  cm : Mutex.t;
  cc : Condition.t;
  mutable result :
    (Protocol.recon_response, Protocol.status * string) result option;
}

type work = { req : Protocol.recon_request; cell : cell }

let running = 0
let draining = 1
let stopped = 2

type counters = {
  accepted : int Atomic.t;
  active_connections : int Atomic.t;
  http_requests : int Atomic.t;
  requests : int Atomic.t;
  responses : int Atomic.t;
  shed : int Atomic.t;
  draining_rejected : int Atomic.t;
  timeouts : int Atomic.t;
  protocol_errors : int Atomic.t;
  disconnects : int Atomic.t;
}

type t = {
  cfg : config;
  tenants : Tenants.t;
  handler : handler;
  (* queue + drain state, all under [qm] *)
  qm : Mutex.t;
  q_cond : Condition.t;
  done_cond : Condition.t;
  queue : work Queue.t;
  mutable executing : int;
  state : int Atomic.t;
  (* sockets / threads *)
  mutable listener : Unix.file_descr option;
  mutable bound_port : int;
  mutable accept_thread : Thread.t option;
  mutable worker_domains : unit Domain.t list;
  conns_m : Mutex.t;
  conns : (int, Unix.file_descr) Hashtbl.t;
  mutable conn_seq : int;
  mutable conn_threads : Thread.t list;
  (* plain-int mirrors of the telemetry counters, live even when
     telemetry is disabled *)
  n : counters;
}

type stats = {
  s_accepted : int;
  s_active_connections : int;
  s_http_requests : int;
  s_requests : int;
  s_responses : int;
  s_shed : int;
  s_draining_rejected : int;
  s_timeouts : int;
  s_protocol_errors : int;
  s_disconnects : int;
  s_queue_depth : int;
  s_executing : int;
  s_tenants : int;
}

(* The serving tier's major-GC pace: [Gc.space_overhead] (the floating
   garbage the major collector allows, as a percentage of live data) is
   capped at 80, from the runtime's default of 120. Every request
   allocates a few hundred KiB of short-lived major-heap arrays (frames,
   decoded samples, coordinates, a fresh trajectory's compiled windows)
   on the connection threads and the workers, while live data stays
   small. Large blocks are malloc'd, so at 120 the collector frees them
   late enough that each thread's malloc arena grows to hold them, and
   the arenas keep that memory after it is freed. *)
let space_overhead = 80

let create ?(config = default_config) ?handler () =
  if config.workers < 1 then invalid_arg "Server.create: workers < 1";
  if config.queue_capacity < 1 then
    invalid_arg "Server.create: queue_capacity < 1";
  (let gc = Gc.get () in
   if gc.Gc.space_overhead > space_overhead then
     Gc.set { gc with Gc.space_overhead });
  let tenants = Tenants.create ~config:config.tenants () in
  let handler =
    match handler with Some h -> h | None -> Tenants.handle tenants
  in
  { cfg = config;
    tenants;
    handler;
    qm = Mutex.create ();
    q_cond = Condition.create ();
    done_cond = Condition.create ();
    queue = Queue.create ();
    executing = 0;
    state = Atomic.make running;
    listener = None;
    bound_port = 0;
    accept_thread = None;
    worker_domains = [];
    conns_m = Mutex.create ();
    conns = Hashtbl.create 64;
    conn_seq = 0;
    conn_threads = [];
    n =
      { accepted = Atomic.make 0;
        active_connections = Atomic.make 0;
        http_requests = Atomic.make 0;
        requests = Atomic.make 0;
        responses = Atomic.make 0;
        shed = Atomic.make 0;
        draining_rejected = Atomic.make 0;
        timeouts = Atomic.make 0;
        protocol_errors = Atomic.make 0;
        disconnects = Atomic.make 0 } }

let port t = t.bound_port
let tenants t = t.tenants

let stats t =
  Mutex.lock t.qm;
  let depth = Queue.length t.queue and executing = t.executing in
  Mutex.unlock t.qm;
  { s_accepted = Atomic.get t.n.accepted;
    s_active_connections = Atomic.get t.n.active_connections;
    s_http_requests = Atomic.get t.n.http_requests;
    s_requests = Atomic.get t.n.requests;
    s_responses = Atomic.get t.n.responses;
    s_shed = Atomic.get t.n.shed;
    s_draining_rejected = Atomic.get t.n.draining_rejected;
    s_timeouts = Atomic.get t.n.timeouts;
    s_protocol_errors = Atomic.get t.n.protocol_errors;
    s_disconnects = Atomic.get t.n.disconnects;
    s_queue_depth = depth;
    s_executing = executing;
    s_tenants = Tenants.count t.tenants }

let stats_json t =
  let s = stats t in
  let ws = Pipeline.Workspace.stats (Tenants.workspace t.tenants) in
  Printf.sprintf
    "{\"accepted\":%d,\"active_connections\":%d,\"http_requests\":%d,\
     \"requests\":%d,\"responses\":%d,\"shed\":%d,\"draining_rejected\":%d,\
     \"timeouts\":%d,\"protocol_errors\":%d,\"disconnects\":%d,\
     \"queue_depth\":%d,\"executing\":%d,\"tenants\":%d,\
     \"arena_in_use\":%d,\"arena_retained\":%d}"
    s.s_accepted s.s_active_connections s.s_http_requests s.s_requests
    s.s_responses s.s_shed s.s_draining_rejected s.s_timeouts
    s.s_protocol_errors s.s_disconnects s.s_queue_depth s.s_executing
    s.s_tenants ws.Pipeline.Workspace.in_use ws.Pipeline.Workspace.retained

let metrics_text t =
  let s = stats t in
  Prometheus.render
    ~extra_gauges:
      [ ("srv.queue_depth", float_of_int s.s_queue_depth);
        ("srv.executing", float_of_int s.s_executing);
        ("srv.active_connections", float_of_int s.s_active_connections);
        ("srv.tenants", float_of_int s.s_tenants) ]
    ()

(* ------------------------------------------------------------------ *)
(* Queue / drain machinery (invariants under [t.qm]) *)

let maybe_finish_drain_locked t =
  if
    Atomic.get t.state = draining
    && Queue.is_empty t.queue && t.executing = 0
  then begin
    Atomic.set t.state stopped;
    Condition.broadcast t.q_cond;
    Condition.broadcast t.done_cond
  end

type admission =
  | Admitted of cell
  | Rejected of Protocol.status * string

let admit t req =
  Mutex.lock t.qm;
  let r =
    if Atomic.get t.state <> running then
      Rejected (Protocol.Draining, "server is draining")
    else if Queue.length t.queue >= t.cfg.queue_capacity then
      Rejected
        ( Protocol.Shed,
          Printf.sprintf "admission queue full (%d)" t.cfg.queue_capacity )
    else begin
      let cell =
        { cm = Mutex.create (); cc = Condition.create (); result = None }
      in
      Queue.push { req; cell } t.queue;
      Condition.signal t.q_cond;
      Admitted cell
    end
  in
  Mutex.unlock t.qm;
  r

let await_cell cell =
  Mutex.lock cell.cm;
  let rec go () =
    match cell.result with
    | Some r -> r
    | None ->
        Condition.wait cell.cc cell.cm;
        go ()
  in
  let r = go () in
  Mutex.unlock cell.cm;
  r

let deliver cell r =
  Mutex.lock cell.cm;
  cell.result <- Some r;
  Condition.signal cell.cc;
  Mutex.unlock cell.cm

let worker_loop t () =
  let rec next_work () =
    (* under qm *)
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if Atomic.get t.state <> running then None
    else begin
      Condition.wait t.q_cond t.qm;
      next_work ()
    end
  in
  let rec loop () =
    Mutex.lock t.qm;
    match next_work () with
    | None ->
        maybe_finish_drain_locked t;
        Mutex.unlock t.qm
    | Some { req; cell } ->
        t.executing <- t.executing + 1;
        Mutex.unlock t.qm;
        let t0 = Telemetry.Clock.now_ns () in
        let result =
          try t.handler req
          with exn ->
            (Protocol.Internal_error, Printexc.to_string exn) |> Result.error
        in
        let dt_us =
          float_of_int (Telemetry.Clock.now_ns () - t0) /. 1_000.0
        in
        Telemetry.Histogram.observe h_request_us dt_us;
        deliver cell result;
        Mutex.lock t.qm;
        t.executing <- t.executing - 1;
        maybe_finish_drain_locked t;
        Mutex.unlock t.qm;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Socket plumbing *)

let write_all fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then begin
      let n = Unix.write fd b off (len - off) in
      go (off + n)
    end
  in
  go 0

let register_conn t fd =
  Mutex.lock t.conns_m;
  t.conn_seq <- t.conn_seq + 1;
  let id = t.conn_seq in
  Hashtbl.replace t.conns id fd;
  Mutex.unlock t.conns_m;
  id

let unregister_conn t id =
  Mutex.lock t.conns_m;
  Hashtbl.remove t.conns id;
  Mutex.unlock t.conns_m

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* HTTP interop: just enough of HTTP/1.1 for curl /metrics. *)

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
     Connection: close\r\n\r\n%s"
    status content_type (String.length body) body

let handle_http t fd first_chunk =
  Atomic.incr t.n.http_requests;
  Telemetry.Counter.incr c_http;
  (* Read until the end of the header block, bounded at 8 KiB. *)
  let buf = Buffer.create 512 in
  Buffer.add_string buf first_chunk;
  let chunk = Bytes.create 1024 in
  let rec fill () =
    let s = Buffer.contents buf in
    if Buffer.length buf > 8192 then ()
    else if
      String.length s >= 4
      && (let found = ref false in
          for i = 0 to String.length s - 4 do
            if String.sub s i 4 = "\r\n\r\n" then found := true
          done;
          !found)
    then ()
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          fill ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _)
        ->
          ()
  in
  fill ();
  let request = Buffer.contents buf in
  let path =
    match String.split_on_char ' ' request with
    | _meth :: path :: _ -> path
    | _ -> "/"
  in
  let response =
    match path with
    | "/metrics" -> http_response ~status:"200 OK"
        ~content_type:"text/plain; version=0.0.4" (metrics_text t)
    | "/healthz" ->
        let body =
          if Atomic.get t.state = running then "ok\n" else "draining\n"
        in
        http_response ~status:"200 OK" ~content_type:"text/plain" body
    | "/stats" ->
        http_response ~status:"200 OK" ~content_type:"application/json"
          (stats_json t)
    | _ ->
        http_response ~status:"404 Not Found" ~content_type:"text/plain"
          "not found\n"
  in
  try write_all fd response with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Connection protocol loop *)

let respond t fd response =
  write_all fd (Protocol.encode_response response);
  Atomic.incr t.n.responses;
  Telemetry.Counter.incr c_responses

let handle_request t fd (req : Protocol.request) =
  Atomic.incr t.n.requests;
  Telemetry.Counter.incr c_requests;
  match req with
  | Protocol.Ping -> respond t fd Protocol.Pong
  | Protocol.Metrics -> respond t fd (Protocol.Text (metrics_text t))
  | Protocol.Stats -> respond t fd (Protocol.Text (stats_json t))
  | Protocol.Recon r -> (
      match admit t r with
      | Rejected (status, msg) ->
          (match status with
          | Protocol.Shed ->
              Atomic.incr t.n.shed;
              Telemetry.Counter.incr c_shed
          | _ ->
              Atomic.incr t.n.draining_rejected;
              Telemetry.Counter.incr c_draining);
          respond t fd (Protocol.Err (status, msg))
      | Admitted cell -> (
          match await_cell cell with
          | Ok resp -> respond t fd (Protocol.Recon_ok resp)
          | Error (status, msg) -> respond t fd (Protocol.Err (status, msg))))

(* One connection: sniff HTTP on the first chunk, else run the framed
   protocol until EOF, timeout, or a framing error. *)
let conn_loop t fd =
  let dec = Protocol.Decoder.create ~limits:t.cfg.limits () in
  let chunk = Bytes.create 65536 in
  let rec drain_frames () =
    match Protocol.Decoder.next dec with
    | Ok None -> `Continue
    | Ok (Some frame) -> (
        match Protocol.decode_request ~limits:t.cfg.limits frame with
        | Ok req ->
            handle_request t fd req;
            drain_frames ()
        | Error e ->
            (* Payload-level error: typed response, then close — the
               stream itself framed correctly but the content is bad. *)
            Atomic.incr t.n.protocol_errors;
            Telemetry.Counter.incr c_protocol_errors;
            respond t fd
              (Protocol.Err (Protocol.status_of_error e, Protocol.error_message e));
            `Close)
    | Error e ->
        (* Framing error: the decoder is poisoned and the byte stream
           untrustworthy. Answer once, then close. *)
        Atomic.incr t.n.protocol_errors;
        Telemetry.Counter.incr c_protocol_errors;
        respond t fd
          (Protocol.Err (Protocol.status_of_error e, Protocol.error_message e));
        `Close
  in
  let rec read_loop ~first =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 ->
        if Protocol.Decoder.pending_bytes dec > 0 then begin
          (* mid-frame disconnect *)
          Atomic.incr t.n.disconnects;
          Telemetry.Counter.incr c_disconnects
        end
    | nread -> (
        if
          first
          && Protocol.looks_like_http (Bytes.sub_string chunk 0 (min nread 4))
        then handle_http t fd (Bytes.sub_string chunk 0 nread)
        else begin
          (* [feed] copies the bytes out before the chunk is reused. *)
          Protocol.Decoder.feed dec (Bytes.unsafe_to_string chunk) 0 nread;
          match drain_frames () with
          | `Continue -> read_loop ~first:false
          | `Close -> ()
        end)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _) ->
        if Protocol.Decoder.pending_bytes dec > 0 then begin
          (* Slow loris: a partial frame sat in the buffer past the read
             timeout. Tell the client, then hang up. *)
          Atomic.incr t.n.timeouts;
          Telemetry.Counter.incr c_timeouts;
          try respond t fd (Protocol.Err (Protocol.Timeout, "read timed out"))
          with Unix.Unix_error _ -> ()
        end
        (* else: idle keep-alive connection timed out — close silently *)
    | exception Unix.Unix_error (EINTR, _, _) -> read_loop ~first
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
        Atomic.incr t.n.disconnects;
        Telemetry.Counter.incr c_disconnects
  in
  (* Any other socket error mid-conversation (a write timing out against
     a stalled client, a reset during respond) counts as a disconnect;
     nothing propagates past the connection thread. *)
  (try read_loop ~first:true
   with Unix.Unix_error _ ->
     Atomic.incr t.n.disconnects;
     Telemetry.Counter.incr c_disconnects)

let conn_thread t fd =
  let id = register_conn t fd in
  Fun.protect
    ~finally:(fun () ->
      unregister_conn t id;
      close_quietly fd;
      Atomic.decr t.n.active_connections)
    (fun () -> conn_loop t fd)

(* ------------------------------------------------------------------ *)
(* Accept loop *)

let accept_loop t listener =
  let rec loop () =
    if Atomic.get t.state = stopped then close_quietly listener
    else begin
      (match Unix.select [ listener ] [] [] 0.05 with
      | [ _ ], _, _ -> (
          match Unix.accept listener with
          | fd, _addr ->
              Atomic.incr t.n.accepted;
              Telemetry.Counter.incr c_accepted;
              (try
                 Unix.setsockopt_float fd SO_RCVTIMEO t.cfg.read_timeout_s;
                 Unix.setsockopt_float fd SO_SNDTIMEO t.cfg.read_timeout_s;
                 Unix.setsockopt fd TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              if Atomic.get t.state <> running then begin
                Atomic.incr t.n.draining_rejected;
                Telemetry.Counter.incr c_draining;
                (try
                   write_all fd
                     (Protocol.encode_response
                        (Protocol.Err (Protocol.Draining, "server is draining")))
                 with Unix.Unix_error _ -> ());
                close_quietly fd
              end
              else if
                Atomic.get t.n.active_connections >= t.cfg.max_connections
              then begin
                Atomic.incr t.n.shed;
                Telemetry.Counter.incr c_shed;
                (try
                   write_all fd
                     (Protocol.encode_response
                        (Protocol.Err
                           (Protocol.Shed, "connection limit reached")))
                 with Unix.Unix_error _ -> ());
                close_quietly fd
              end
              else begin
                Atomic.incr t.n.active_connections;
                let th = Thread.create (fun () -> conn_thread t fd) () in
                Mutex.lock t.conns_m;
                t.conn_threads <- th :: t.conn_threads;
                Mutex.unlock t.conns_m
              end
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
            ->
              ()
          | exception Unix.Unix_error ((EBADF | EINVAL), _, _) ->
              (* listener closed under us during stop *)
              Atomic.set t.state stopped)
      | _ -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let start t =
  if t.listener <> None then invalid_arg "Server.start: already started";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Telemetry.set_span_recording t.cfg.record_spans;
  let addr = Unix.inet_addr_of_string t.cfg.host in
  let listener = Unix.socket PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt listener SO_REUSEADDR true;
     Unix.bind listener (ADDR_INET (addr, t.cfg.port));
     Unix.listen listener t.cfg.backlog
   with e ->
     close_quietly listener;
     raise e);
  t.bound_port <-
    (match Unix.getsockname listener with
    | ADDR_INET (_, p) -> p
    | _ -> t.cfg.port);
  t.listener <- Some listener;
  t.worker_domains <-
    List.init t.cfg.workers (fun _ -> Domain.spawn (worker_loop t));
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t listener) ())

let drain t =
  Mutex.lock t.qm;
  if Atomic.get t.state = running then Atomic.set t.state draining;
  Condition.broadcast t.q_cond;
  maybe_finish_drain_locked t;
  Mutex.unlock t.qm;
  (* Unblock reads on every live connection so idle keep-alive threads
     exit now instead of at their read timeout. Threads waiting on an
     in-flight response are not reading — their response still goes out
     on the intact write side. *)
  Mutex.lock t.conns_m;
  Hashtbl.iter
    (fun _ fd -> try Unix.shutdown fd SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.conns;
  Mutex.unlock t.conns_m

let drained t = Atomic.get t.state = stopped

let await_drained ?(timeout_s = 30.0) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    if drained t then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Mutex.lock t.qm;
      if not (drained t) then Condition.wait t.done_cond t.qm;
      Mutex.unlock t.qm;
      wait ()
    end
  in
  (* A waker tick so the condition wait cannot miss the deadline. *)
  if drained t then true
  else begin
    let stop_tick = Atomic.make false in
    let ticker =
      Thread.create
        (fun () ->
          while (not (Atomic.get stop_tick)) && not (drained t) do
            Thread.delay 0.02;
            Mutex.lock t.qm;
            Condition.broadcast t.done_cond;
            Mutex.unlock t.qm
          done)
        ()
    in
    let ok = wait () in
    Atomic.set stop_tick true;
    Thread.join ticker;
    ok
  end

let stop ?(timeout_s = 30.0) t =
  drain t;
  let ok = await_drained ~timeout_s t in
  if not ok then begin
    (* Hard deadline passed: force the state over so threads can exit. *)
    Mutex.lock t.qm;
    Atomic.set t.state stopped;
    Condition.broadcast t.q_cond;
    Condition.broadcast t.done_cond;
    Mutex.unlock t.qm
  end;
  List.iter Domain.join t.worker_domains;
  t.worker_domains <- [];
  (match t.accept_thread with
  | Some th ->
      Thread.join th;
      t.accept_thread <- None
  | None -> ());
  (* The accept thread closed the listener on its way out. *)
  t.listener <- None;
  Mutex.lock t.conns_m;
  let threads = t.conn_threads in
  t.conn_threads <- [];
  Mutex.unlock t.conns_m;
  List.iter Thread.join threads;
  ok
