module Op = Nufft.Operator
module Sample = Nufft.Sample
module Plan = Nufft.Plan
module Sample_plan = Nufft.Sample_plan

(* Cache taxonomy: process-wide monotonic counters, mirrored by the
   per-instance stats record below (counters survive across instances;
   the record is per-cache). *)
let c_hit = Telemetry.Counter.make "cache.hit"
let c_miss = Telemetry.Counter.make "cache.miss"
let c_eviction = Telemetry.Counter.make "cache.eviction"

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

(* Geometry part of the key; the trajectory part is [fp] plus a structural
   coordinate comparison on fingerprint match (collisions on distinct
   coordinates must never alias). The resolved kernel and the requested
   tolerance are part of the geometry: tenants asking for tol = 1e-3 and
   tol = 1e-6 (or ES vs Kaiser-Bessel at equal width) must never share a
   plan. *)
type key = {
  backend : string;
  n : int;
  sigma : float;
  w : int;
  l : int;
  g : int;
  tol : float option;
  kernel : Numerics.Window.t;
  transform : Nufft.Transform.t;
  targets : float array array option;
      (* type-3 target frequencies; compared structurally (finite floats,
         validated at context construction) *)
  fp : int;
}

type state = Building | Ready of Op.op

type entry = {
  key : key;
  canonical : Sample.t;
      (* the coordinate arrays of the first request for this key; every
         warm lookup replays transforms through these exact arrays so the
         plan-level compiled-decomposition cache hits physically *)
  mutable state : state;
  mutable bytes : int;
  mutable last_use : int;
}

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  max_entries : int;
  max_bytes : int;
  fingerprint : Sample.t -> int;
  mutable entries : entry list;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

(* djb2-xor over the raw bits of every coordinate (plus the grid size):
   deterministic, order-sensitive, cheap. Equal trajectories held in
   distinct arrays fingerprint identically — that is the point. The hash
   is defined on 64-bit words and keeps their low 62 bits. Multiply and
   xor never carry information downwards, so native 63-bit ints compute
   the same low bits without boxing an [Int64] per coordinate. *)
let default_fingerprint (s : Sample.t) =
  let h = ref ((5381 * 33) lxor s.Sample.g) in
  let coords = s.Sample.coords in
  for a = 0 to Array.length coords - 1 do
    let axis = coords.(a) in
    h := (!h * 33) lxor Array.length axis;
    for j = 0 to Array.length axis - 1 do
      h := (!h * 33) lxor Int64.to_int (Int64.bits_of_float axis.(j))
    done
  done;
  !h land max_int

let create ?(max_entries = 32) ?(max_bytes = 256 * 1024 * 1024)
    ?(fingerprint = default_fingerprint) () =
  if max_entries < 1 then invalid_arg "Plan_cache.create: max_entries < 1";
  if max_bytes < 1 then invalid_arg "Plan_cache.create: max_bytes < 1";
  { mutex = Mutex.create ();
    cond = Condition.create ();
    max_entries;
    max_bytes;
    fingerprint;
    entries = [];
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0 }

(* An entry's bytes: what it held when built, plus the Toeplitz spectrum
   its operator builds on the first normal-map application (read at each
   budget check, so a spectrum built after insertion still counts). *)
let entry_bytes e =
  match e.state with
  | Building -> e.bytes
  | Ready op -> (
      match Op.normal_of op with
      | Some tp -> e.bytes + Nufft.Toeplitz.bytes tp
      | None -> e.bytes)

let total_bytes t =
  List.fold_left (fun acc e -> acc + entry_bytes e) 0 t.entries

let stats t =
  Mutex.lock t.mutex;
  let s =
    { hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      entries = List.length t.entries;
      bytes = total_bytes t }
  in
  Mutex.unlock t.mutex;
  s

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

let key_of t ~backend (ctx : Op.ctx) =
  { backend;
    n = ctx.Op.n;
    sigma = ctx.Op.sigma;
    w = ctx.Op.w;
    l = ctx.Op.l;
    g = Op.ctx_grid ctx;
    tol = ctx.Op.tol;
    kernel = ctx.Op.kernel;
    transform = ctx.Op.transform;
    targets = ctx.Op.targets;
    fp = t.fingerprint ctx.Op.coords }

(* Structural coordinate equality guards against fingerprint collisions:
   two distinct trajectories that happen to share a fingerprint get
   separate entries. Coordinates are finite floats in [0, g), so float
   [=] is sound; physical identity short-circuits the common warm case.
   The axis loop has the semantics of polymorphic [=] on the arrays
   (0.0 = -0.0, NaN <> NaN) without its generic traversal. *)
let axis_equal (x : float array) (y : float array) =
  let n = Array.length x in
  n = Array.length y
  &&
  let i = ref 0 in
  while !i < n && Array.unsafe_get x !i = Array.unsafe_get y !i do
    incr i
  done;
  !i = n

let coords_equal (a : Sample.t) (b : Sample.t) =
  a.Sample.coords == b.Sample.coords
  || Array.length a.Sample.coords = Array.length b.Sample.coords
     && Array.for_all2 axis_equal a.Sample.coords b.Sample.coords

let find t key (coords : Sample.t) =
  List.find_opt
    (fun e -> e.key = key && coords_equal e.canonical coords)
    t.entries

(* Fingerprint-free lookup on the physical identity of the coordinate
   arrays — the steady-state serving case, where every request carries the
   canonical arrays. Keeps warm lookups from re-hashing the whole
   trajectory (boxed-int64 churn) on each request. *)
let geometry_matches ~backend (ctx : Op.ctx) e =
  e.key.backend = backend && e.key.n = ctx.Op.n
  && e.key.sigma = ctx.Op.sigma && e.key.w = ctx.Op.w && e.key.l = ctx.Op.l
  && e.key.g = Op.ctx_grid ctx
  && e.key.tol = ctx.Op.tol
  && e.key.kernel = ctx.Op.kernel
  && e.key.transform = ctx.Op.transform
  && (e.key.targets == ctx.Op.targets || e.key.targets = ctx.Op.targets)

let find_physical t ~backend (ctx : Op.ctx) =
  List.find_opt
    (fun e ->
      geometry_matches ~backend ctx e
      && e.canonical.Sample.coords == ctx.Op.coords.Sample.coords)
    t.entries

(* Warm lookups may carry coordinate arrays that are equal to but
   physically distinct from the canonical ones; rebinding the sample set
   onto the canonical arrays keeps the plan's compiled-decomposition cache
   (keyed on physical identity) hitting, and keeps concurrent requests
   from racing to recompile it. *)
let with_canonical (canonical : Sample.t) ((module O : Op.NUFFT_OP) : Op.op) :
    Op.op =
  (module struct
    include O

    let adjoint (s : Sample.t) =
      if
        s.Sample.coords != canonical.Sample.coords
        && s.Sample.g = canonical.Sample.g
        && coords_equal s canonical
      then O.adjoint (Sample.with_values canonical s.Sample.values)
      else O.adjoint s
  end)

let coord_bytes (s : Sample.t) =
  Array.fold_left (fun acc a -> acc + (8 * Array.length a)) 0 s.Sample.coords

(* Build outside the cache mutex (concurrent misses on different keys
   build in parallel); the Building marker makes same-key waiters block
   instead of building again. Pre-compiling the plan's sample-plan here is
   what makes the single-build guarantee observable: it charges
   [sample_plan.cache_miss] exactly once per cache entry, and every
   subsequent application through the canonical coordinates replays it.
   The entry's bytes also count the grid each plan retains between
   transforms ({!Plan.grid_bytes}); the Toeplitz spectrum, built later
   if at all, is added by [entry_bytes]. *)
let build ~backend (ctx : Op.ctx) =
  let op = Op.create backend ctx in
  let plan_bytes =
    match Op.plan_of op with
    | Some plan when ctx.Op.transform <> Nufft.Transform.Type3 ->
        let splan = Plan.compiled plan ctx.Op.coords in
        (8 * Sample_plan.memory_words splan)
        + Plan.grid_bytes plan ~dims:(Sample.dims ctx.Op.coords)
    | _ ->
        (* Type-3 operators compile their own internal spread + inner
           type-2 plans eagerly in [of_plan]; the bound coordinates are
           sources, not grid-coupled samples, so there is nothing to
           pre-compile here. *)
        0
  in
  (with_canonical ctx.Op.coords op, plan_bytes + coord_bytes ctx.Op.coords + 4096)

(* Caller holds the mutex. Evict least-recently-used Ready entries until
   both budgets hold; in-flight Building entries are never evicted. *)
let evict_over_budget t =
  let removable e = match e.state with Ready _ -> true | Building -> false in
  let over () =
    List.length t.entries > t.max_entries || total_bytes t > t.max_bytes
  in
  while over () && List.exists removable t.entries do
    let victim =
      List.fold_left
        (fun acc e ->
          if not (removable e) then acc
          else
            match acc with
            | Some b when b.last_use <= e.last_use -> acc
            | _ -> Some e)
        None t.entries
    in
    match victim with
    | Some v ->
        t.entries <- List.filter (fun e -> e != v) t.entries;
        t.evictions <- t.evictions + 1;
        Telemetry.Counter.incr c_eviction
    | None -> ()
  done

let rec operator t ~backend ~(ctx : Op.ctx) =
  Mutex.lock t.mutex;
  let fast =
    match find_physical t ~backend ctx with
    | Some ({ state = Ready op; _ } as e) ->
        e.last_use <- next_tick t;
        t.hits <- t.hits + 1;
        Telemetry.Counter.incr c_hit;
        Some (op, e.canonical)
    | _ -> None
  in
  Mutex.unlock t.mutex;
  match fast with
  | Some r -> r
  | None -> operator_slow t ~backend ~ctx

(* Full-key path: fingerprint the trajectory, wait out in-flight builds,
   build on a true miss. *)
and operator_slow t ~backend ~(ctx : Op.ctx) =
  let key = key_of t ~backend ctx in
  Mutex.lock t.mutex;
  let rec obtain () =
    match find t key ctx.Op.coords with
    | Some e -> (
        match e.state with
        | Ready op ->
            e.last_use <- next_tick t;
            t.hits <- t.hits + 1;
            Telemetry.Counter.incr c_hit;
            Mutex.unlock t.mutex;
            (op, e.canonical)
        | Building ->
            (* A same-key build is in flight; wait for its broadcast.
               Counted as a hit on completion: this lookup performed no
               build. *)
            Condition.wait t.cond t.mutex;
            obtain ())
    | None ->
        let e =
          { key;
            canonical = ctx.Op.coords;
            state = Building;
            bytes = 0;
            last_use = next_tick t }
        in
        t.entries <- t.entries @ [ e ];
        t.misses <- t.misses + 1;
        Telemetry.Counter.incr c_miss;
        Mutex.unlock t.mutex;
        (match build ~backend ctx with
        | op, bytes ->
            Mutex.lock t.mutex;
            e.state <- Ready op;
            e.bytes <- bytes;
            evict_over_budget t;
            Condition.broadcast t.cond;
            Mutex.unlock t.mutex;
            (op, e.canonical)
        | exception exn ->
            Mutex.lock t.mutex;
            t.entries <- List.filter (fun x -> x != e) t.entries;
            Condition.broadcast t.cond;
            Mutex.unlock t.mutex;
            raise exn)
  in
  obtain ()
