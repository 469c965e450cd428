module Op = Nufft.Operator
module Sample = Nufft.Sample
module Plan = Nufft.Plan
module Sample_plan = Nufft.Sample_plan
module Cvec = Numerics.Cvec
module Pool = Runtime.Pool

let now () = Unix.gettimeofday ()

let c_requests = Telemetry.Counter.make "svc.requests"
let c_errors = Telemetry.Counter.make "svc.errors"
let c_batches = Telemetry.Counter.make "svc.batches"

type method_ = Adjoint | Cg of int

type request = {
  backend : string;
  transform : Nufft.Transform.t;
  n : int;
  coords : Sample.t;
  values : Cvec.t;
  density : float array option;
  method_ : method_;
  tol : float option;
  family : Numerics.Window.family option;
}

type response = { image : Cvec.t; iterations : int; elapsed_s : float }

type error =
  | Invalid_request of string
  | Recon_error of Imaging.Recon.error
  | Internal of string

let error_message = function
  | Invalid_request msg -> "invalid request: " ^ msg
  | Recon_error e -> Imaging.Recon.error_message e
  | Internal msg -> "internal error: " ^ msg

(* [w] / [l] stay unset unless given, so {!Op.context} applies the one
   geometry default ({!Plan.resolve_geometry}) at every [sigma]. *)
type t = {
  pool : Pool.t option;
  cache : Plan_cache.t;
  ws : Workspace.t;
  w : int option;
  sigma : float;
  l : int option;
}

let create ?pool ?cache ?workspace ?w ?(sigma = 2.0) ?l () =
  { pool;
    cache = (match cache with Some c -> c | None -> Plan_cache.create ());
    ws = (match workspace with Some w -> w | None -> Workspace.create ());
    w;
    sigma;
    l }

let cache t = t.cache
let workspace t = t.ws

let method_name = function
  | Adjoint -> "adjoint"
  | Cg k -> Printf.sprintf "cg-%d" k

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

(* ------------------------------------------------------------------ *)
(* Validation: every malformed request becomes a typed error before any
   work is scheduled. Shape rules are per-transform: type-1 and type-3
   carry one value per sample; type-2 carries the n^dims image whose
   spectrum is evaluated at the trajectory. *)

let validate req =
  let m = Sample.length req.coords in
  if req.n < 2 then Error (Invalid_request "n must be >= 2")
  else if m = 0 then Error (Recon_error Imaging.Recon.Empty_sample_set)
  else
    match req.transform with
    | Nufft.Transform.Type2 ->
        let ilen = pow req.n (Sample.dims req.coords) in
        if Cvec.length req.values <> ilen then
          Error
            (Invalid_request
               (Printf.sprintf
                  "type-2 values length %d does not match the %d-voxel image"
                  (Cvec.length req.values) ilen))
        else if req.density <> None then
          Error
            (Invalid_request
               "density weights do not apply to a type-2 (forward) request")
        else (
          match req.method_ with
          | Adjoint -> Ok ()
          | Cg _ ->
              Error (Invalid_request "cg applies to type-1 requests only"))
    | (Nufft.Transform.Type1 | Nufft.Transform.Type3) as tr ->
        if Cvec.length req.values <> m then
          Error
            (Invalid_request
               (Printf.sprintf
                  "values length %d does not match the %d-sample set"
                  (Cvec.length req.values) m))
        else (
          match req.density with
          | Some d when Array.length d <> m ->
              Error
                (Recon_error
                   (Imaging.Recon.Density_length_mismatch
                      { expected = m; got = Array.length d }))
          | Some d when not (Sample.all_finite d) ->
              (* A NaN weight would otherwise surface as a NaN image. *)
              Error (Invalid_request "non-finite density weight")
          | _ -> (
              match (req.method_, tr) with
              | Cg _, Nufft.Transform.Type3 ->
                  Error (Invalid_request "cg applies to type-1 requests only")
              | Cg iters, _ when iters < 1 ->
                  Error (Invalid_request "cg iterations must be >= 1")
              | _ -> Ok ()))

(* Cached operators are always built pool-less: their applications run
   inside the service pool's [parallel_for] during batch execution, and a
   nested submission to the same pool deadlocks. The pool parallelises
   across requests instead. *)
let op_of ?tol ?family ?(transform = Nufft.Transform.Type1) t ~backend ~n
    ~coords =
  match
    (* A per-request tolerance overrides the service geometry entirely —
       kernel, width and table oversampling are all derived from it, so a
       tenant at 1e-6 never rides a 1e-3 tenant's plan (distinct cache
       keys by construction). *)
    match tol with
    | Some tol ->
        Op.context ~tol ?family ~sigma:t.sigma ~transform ~n ~coords ()
    | None ->
        Op.context ?family ?w:t.w ~sigma:t.sigma ?l:t.l ~transform ~n ~coords
          ()
  with
  | ctx -> (
      match Plan_cache.operator t.cache ~backend ~ctx with
      | pair -> Ok pair
      | exception Invalid_argument msg -> Error (Invalid_request msg))
  | exception Invalid_argument msg -> Error (Invalid_request msg)

let operator ?tol ?family ?transform t ~backend ~n ~coords =
  op_of ?tol ?family ?transform t ~backend ~n ~coords

(* ------------------------------------------------------------------ *)
(* Fast direct path: for operators that expose their CPU plan, the
   adjoint runs through the plan's stage function on the pooled arena —
   replay-spread into the arena grid, in-place FFT, de-apodize into the
   arena image — with arithmetic identical
   (operation order and all) to [Recon.reconstruct_op], so results are
   bitwise the same while steady-state allocation stays O(1) minor
   words. *)

let fast_adjoint ?fft_pool t ~(plan : Plan.plan) ~canonical req =
  let dims = Sample.dims req.coords in
  let m = Cvec.length req.values in
  let g = plan.Plan.g and n = plan.Plan.n in
  let glen = pow g dims and ilen = pow n dims in
  Workspace.with_arena t.ws ~grid:glen ~line:0 ~image:ilen ~samples:m
  @@ fun a ->
  let vals =
    match req.density with
    | None -> req.values
    | Some w ->
        Sample.weight_into w req.values a.Workspace.vals;
        a.Workspace.vals
  in
  (* Physical-identity hit on the decomposition compiled at cache-build
     time: zero plan builds on the warm path. [fft_pool] (present only on
     direct, caller-thread submissions) also drives region-sharded replay:
     the partition is cached in the compiled plan, so the warm path pays
     only the per-shard dispatch. Batch execution passes no pool and
     replays serially — bitwise the same image either way. *)
  let splan = Plan.compiled plan canonical in
  Plan.grid_to_image ?pool:fft_pool plan
    a.Workspace.image ~spread:(fun () ->
      Sample_plan.spread_parallel_into ?pool:fft_pool ~simd:plan.Plan.simd
        splan vals a.Workspace.grid;
      a.Workspace.grid);
  Cvec.scale_inplace (1.0 /. float_of_int m) a.Workspace.image;
  (* The response must outlive the arena: hand back a fresh copy (one
     bigarray allocation — O(1) minor words). *)
  Cvec.copy a.Workspace.image

let run_cg t op req iters =
  let ilen = Op.image_length op in
  Workspace.with_arena t.ws ~grid:0 ~line:0 ~image:ilen ~samples:0
  @@ fun a ->
  let samples = Sample.with_values req.coords req.values in
  let rhs = Imaging.Cg.normal_equations_rhs_op ?weights:req.density op samples in
  let res =
    Imaging.Cg.solve_normal ~max_iterations:iters ~buffers:a.Workspace.cg
      ?weights:req.density op rhs
  in
  (res.Imaging.Cg.solution, res.Imaging.Cg.iterations)

let execute ?fft_pool t req (op, canonical) =
  match req.transform with
  | Nufft.Transform.Type2 ->
      (* Forward projection: evaluate the request's image spectrum at the
         bound trajectory. The response carries the M k-space values
         (unscaled — type-2 is the pure evaluation, not a recon). *)
      let s = Op.apply_forward op req.values in
      Ok (s.Sample.values, 0)
  | Nufft.Transform.Type3 ->
      (* Type-3 reconstruction on the operator's bound target set (the
         centred lattice unless the context bound explicit targets):
         density-weight the strengths, apply, scale by 1/m — parity with
         the type-1 adjoint recon on the lattice. *)
      let m = Cvec.length req.values in
      let vals =
        match req.density with
        | None -> req.values
        | Some w ->
            let out = Cvec.create m in
            Sample.weight_into w req.values out;
            out
      in
      let image = Op.apply_type3 op vals in
      Cvec.scale_inplace (1.0 /. float_of_int m) image;
      Ok (image, 0)
  | Nufft.Transform.Type1 -> (
      match req.method_ with
      | Adjoint -> (
          match Op.plan_of op with
          | Some plan -> Ok (fast_adjoint ?fft_pool t ~plan ~canonical req, 0)
          | None -> (
              (* Hardware-model backends (fixed-point, f32 simulation) own
                 their numerics: run them through the generic driver rather
                 than substituting a CPU plan. *)
              let samples = Sample.with_values req.coords req.values in
              match
                Imaging.Recon.reconstruct_op ?density:req.density op samples
              with
              | Ok image -> Ok (image, 0)
              | Error e -> Error (Recon_error e)))
      | Cg iters -> Ok (run_cg t op req iters))

(* One request, start to finish; never raises — the batch scheduler runs
   this inside the domain pool, where an escaped exception would poison
   the whole submission. *)
let run_one ?fft_pool t req =
  let sp =
    if Telemetry.enabled () then
      Telemetry.span_begin ~cat:"svc"
        ~args:
          [ ("backend", req.backend);
            ("transform", Nufft.Transform.to_string req.transform);
            ("method", method_name req.method_) ]
        "svc.request"
    else Telemetry.null_span
  in
  Telemetry.Counter.incr c_requests;
  let t0 = now () in
  let result =
    match validate req with
    | Error e -> Error e
    | Ok () -> (
        match
          op_of ?tol:req.tol ?family:req.family ~transform:req.transform t
            ~backend:(Op.resolve_backend req.backend) ~n:req.n
            ~coords:req.coords
        with
        | Error e -> Error e
        | Ok pair -> (
            match execute ?fft_pool t req pair with
            | r -> r
            | exception Invalid_argument msg -> Error (Invalid_request msg)
            | exception Failure msg -> Error (Internal msg)
            | exception exn -> Error (Internal (Printexc.to_string exn))))
  in
  let elapsed_s = now () -. t0 in
  Telemetry.span_end sp;
  match result with
  | Ok (image, iterations) -> Ok { image; iterations; elapsed_s }
  | Error e ->
      Telemetry.Counter.incr c_errors;
      Error e

(* Direct submissions run on the caller's thread, outside any pool body,
   so the FFT passes of the fast path may use the service pool; batch
   execution must not (nested submission to the pool deadlocks). *)
let submit t req = run_one ?fft_pool:t.pool t req

let submit_batch t reqs =
  let sp =
    if Telemetry.enabled () then
      Telemetry.span_begin ~cat:"svc"
        ~args:[ ("requests", string_of_int (List.length reqs)) ]
        "svc.batch"
    else Telemetry.null_span
  in
  Telemetry.Counter.incr c_batches;
  let arr = Array.of_list reqs in
  let nreq = Array.length arr in
  let out = Array.make nreq (Error (Internal "request not executed")) in
  (match t.pool with
  | Some p when Pool.size p > 1 && nreq > 1 ->
      (* chunk:1 so each request is one unit of dynamic load balancing:
         independent requests overlap on different domains, heavy ones do
         not serialise light ones behind them. *)
      Pool.parallel_for ~chunk:1 p ~start:0 ~stop:nreq (fun i ->
          out.(i) <- run_one t arr.(i))
  | _ -> Array.iteri (fun i r -> out.(i) <- run_one t r) arr);
  Telemetry.span_end sp;
  Array.to_list out
