(* Per-tenant reconstruction services with quota'd plan caches.

   Each tenant gets its own [Recon_service] over its own bounded
   [Plan_cache], so one tenant's trajectory churn cannot evict another's
   hot plans; all tenants share one [Workspace] (arenas are
   request-scoped, so sharing them is pure amortisation with no
   cross-tenant state). The tenant population itself is bounded —
   admitting a new tenant past [max_tenants] is a typed [Quota] error,
   not an unbounded hashtable. *)

module Svc = Pipeline.Recon_service

let cg_iteration_cap = 10_000

type config = {
  max_tenants : int;
  cache_entries : int;
  cache_bytes : int option;
  default_backend : string;
  sigma : float;
}

let default_config =
  { max_tenants = 64;
    cache_entries = 8;
    cache_bytes = None;
    default_backend = "serial";
    sigma = 2.0 }

type t = {
  cfg : config;
  workspace : Pipeline.Workspace.t;
  services : (string, Svc.t) Hashtbl.t;
  mutex : Mutex.t;
}

let create ?(config = default_config) () =
  { cfg = config;
    workspace = Pipeline.Workspace.create ();
    services = Hashtbl.create 16;
    mutex = Mutex.create () }

let workspace t = t.workspace

let count t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.services in
  Mutex.unlock t.mutex;
  n

let service t tenant =
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.services tenant with
    | Some svc -> Ok svc
    | None ->
        if Hashtbl.length t.services >= t.cfg.max_tenants then
          Error
            ( Protocol.Quota,
              Printf.sprintf "tenant limit %d reached" t.cfg.max_tenants )
        else begin
          let cache =
            Pipeline.Plan_cache.create ~max_entries:t.cfg.cache_entries
              ?max_bytes:t.cfg.cache_bytes ()
          in
          (* Pool-less on purpose: server worker domains provide the
             request-level parallelism; a nested pool submission from a
             worker domain would deadlock. *)
          let svc =
            Svc.create ~cache ~workspace:t.workspace ~sigma:t.cfg.sigma ()
          in
          Hashtbl.add t.services tenant svc;
          Ok svc
        end
  in
  Mutex.unlock t.mutex;
  r

let cache_stats t =
  Mutex.lock t.mutex;
  let out =
    Hashtbl.fold
      (fun tenant svc acc -> (tenant, Pipeline.Plan_cache.stats (Svc.cache svc)) :: acc)
      t.services []
  in
  Mutex.unlock t.mutex;
  List.sort compare out

(* ------------------------------------------------------------------ *)
(* Wire request -> service request *)

let to_service_request t (r : Protocol.recon_request) =
  let m = Array.length r.values / 2 in
  if r.n < 2 || r.n > 4096 then
    Error (Protocol.Bad_request, Printf.sprintf "n %d not in 2..4096" r.n)
  else if m = 0 then Error (Protocol.Bad_request, "empty sample set")
  else if Array.length r.values <> 2 * m then
    Error (Protocol.Bad_request, "values length must be even")
  else if Array.length r.omega <> r.dims then
    Error
      ( Protocol.Bad_request,
        Printf.sprintf "%d omega axes for dims %d" (Array.length r.omega)
          r.dims )
  else if Array.exists (fun ax -> Array.length ax <> m) r.omega then
    Error (Protocol.Bad_request, "omega axis length differs from sample count")
  else if not (Array.for_all Nufft.Sample.all_finite r.omega) then
    Error (Protocol.Bad_request, "non-finite omega coordinate")
  else if not (Option.fold ~none:true ~some:Nufft.Sample.all_finite r.density)
  then
    Error (Protocol.Bad_request, "non-finite density weight")
  else if r.transform = Nufft.Transform.Type2 then
    (* A JGS1 recon frame carries one value per sample; a forward (type-2)
       evaluation consumes an n^dims image payload the frame format does
       not model. In-process callers use [Recon_service] directly. *)
    Error
      ( Protocol.Bad_request,
        "type-2 (forward) requests are not served over the wire" )
  else
    match r.method_ with
    | Protocol.Cg iters when iters < 1 || iters > cg_iteration_cap ->
        Error
          ( Protocol.Bad_request,
            Printf.sprintf "cg iterations %d not in 1..%d" iters
              cg_iteration_cap )
    | _ ->
        let g =
          int_of_float (Float.round (t.cfg.sigma *. float_of_int r.n))
        in
        let values = Numerics.Cvec.create m in
        for j = 0 to m - 1 do
          Numerics.Cvec.unsafe_set_parts values j r.values.(2 * j)
            r.values.((2 * j) + 1)
        done;
        (match Nufft.Sample.of_omega ~g ~omega:r.omega ~values with
        | coords ->
            Ok
              {
                Svc.backend =
                  (if r.backend = "" then t.cfg.default_backend else r.backend);
                transform = r.transform;
                n = r.n;
                coords;
                values;
                density = r.density;
                method_ =
                  (match r.method_ with
                  | Protocol.Adjoint -> Svc.Adjoint
                  | Protocol.Cg k -> Svc.Cg k);
                tol = r.tol;
                family = r.family;
              }
        | exception Invalid_argument msg -> Error (Protocol.Bad_request, msg))

let status_of_service_error = function
  | Svc.Invalid_request _ | Svc.Recon_error _ -> Protocol.Bad_request
  | Svc.Internal _ -> Protocol.Internal_error

let handle t (r : Protocol.recon_request) =
  match service t r.tenant with
  | Error _ as e -> e
  | Ok svc -> (
      match to_service_request t r with
      | Error _ as e -> e
      | Ok req -> (
          match Svc.submit svc req with
          | Error e -> Error (status_of_service_error e, Svc.error_message e)
          | Ok resp ->
              let src = resp.Svc.image in
              let ilen = Numerics.Cvec.length src in
              let image = Array.create_float (2 * ilen) in
              for j = 0 to ilen - 1 do
                image.(2 * j) <- Numerics.Cvec.unsafe_get_re src j;
                image.((2 * j) + 1) <- Numerics.Cvec.unsafe_get_im src j
              done;
              Ok
                {
                  Protocol.iterations = resp.Svc.iterations;
                  elapsed_s = resp.Svc.elapsed_s;
                  image_n = r.n;
                  image_dims = r.dims;
                  image;
                }))
