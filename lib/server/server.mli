(** The serving tier: a length-prefixed binary protocol server over
    OCaml 5 domains, with admission control and graceful drain.

    Execution model: one systhread accepts connections, one systhread
    per connection runs the {!Protocol.Decoder} and writes responses
    (blocking I/O releases the runtime lock), and [workers] spawned
    {e domains} execute reconstructions pulled from a bounded queue —
    request-level CPU parallelism without nested-pool deadlocks (tenant
    services are pool-less by construction, see {!Tenants}).

    Admission control: [Recon] requests pass the bounded queue; a full
    queue answers a typed {!Protocol.Shed} immediately (load shedding —
    a saturated server never blocks its clients), a draining server
    answers {!Protocol.Draining}. Ping, metrics and stats are served
    inline on the connection thread, bypassing the queue, so
    observability survives overload.

    Defence: per-socket read/write timeouts (a partial frame older than
    the timeout is answered {!Protocol.Timeout} and the connection
    closed — slow-loris); framing errors poison the decoder, get one
    typed error response, and close; payload errors answer typed
    statuses on a still-live connection. No exception escapes a
    connection thread or worker (asserted by the fault-injection
    tests).

    HTTP interop: a first chunk that looks like an HTTP request line is
    served a minimal HTTP/1.1 response — [GET /metrics] returns the
    Prometheus exposition, [/healthz] and [/stats] likewise — so [curl]
    works against the same port.

    Graceful drain: {!drain} stops admission (new connections and new
    requests get {!Protocol.Draining}) while every in-flight request
    completes and is answered; the last finishing worker flips the
    server to stopped, the accept thread closes the listener. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  backlog : int;
  queue_capacity : int;  (** admission queue bound; beyond it, [Shed] *)
  workers : int;  (** reconstruction worker domains *)
  read_timeout_s : float;
  max_connections : int;
  limits : Protocol.limits;
  tenants : Tenants.config;
  record_spans : bool;
      (** keep span recording on (default off: a long-running server's
          span sinks grow without bound; counters and histograms stay
          live either way) *)
}

val default_config : config
(** Loopback, ephemeral port, queue of 32, 2 workers, 5 s timeouts,
    128 connections. *)

type handler =
  Protocol.recon_request ->
  (Protocol.recon_response, Protocol.status * string) result
(** The work an admitted request performs on a worker domain. The
    default is {!Tenants.handle}; tests inject latching handlers to make
    drain and shedding deterministic. *)

type t

val create : ?config:config -> ?handler:handler -> unit -> t
(** A stopped server. Lowers the process's [Gc.space_overhead] to 80 if
    it is higher: requests allocate large short-lived buffers, and the
    runtime's default pace lets their garbage grow the allocator's
    per-thread arenas, which keep that memory once it is freed. *)

val start : t -> unit
(** Bind, listen, spawn workers and the accept thread. Raises
    [Invalid_argument] if already started; [Unix.Unix_error] if the
    bind fails. *)

val port : t -> int
(** The bound port (meaningful after {!start}). *)

val tenants : t -> Tenants.t

val drain : t -> unit
(** Begin graceful drain: stop admitting, unblock idle connection reads,
    let in-flight requests finish and answer. Idempotent. *)

val drained : t -> bool

val await_drained : ?timeout_s:float -> t -> bool
(** Block until the drain completes (queue empty, nothing executing);
    [false] on timeout. *)

val stop : ?timeout_s:float -> t -> bool
(** {!drain}, await, then join every worker domain and thread and close
    the listener. Returns whether the drain completed within
    [timeout_s] (the join happens regardless). *)

(** {1 Introspection} *)

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

val stats : t -> stats
(** Live counters (plain atomics — meaningful even with telemetry
    disabled). *)

val stats_json : t -> string
val metrics_text : t -> string
(** The Prometheus exposition a [/metrics] scrape returns. *)
