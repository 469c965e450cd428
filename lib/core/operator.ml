module Cvec = Numerics.Cvec

type stats = {
  mutable adjoints : int;
  mutable forwards : int;
  mutable type3s : int;
  stages : Plan.timings;
  mutable adjoint_s : float;
  mutable forward_s : float;
  mutable type3_s : float;
  mutable cycles : int;
  grid : Gridding_stats.t;
}

let create_stats () =
  { adjoints = 0;
    forwards = 0;
    type3s = 0;
    stages = Plan.create_timings ();
    adjoint_s = 0.0;
    forward_s = 0.0;
    type3_s = 0.0;
    cycles = 0;
    grid = Gridding_stats.create () }

(* Telemetry unification: every backend (CPU, jigsaw, gpusim) funnels its
   applications through the helpers below, which update the per-operator
   [stats] record and mirror the same deltas into the process-wide
   {!Telemetry} registry. The span names are static strings and the
   backend arg list is only built once telemetry is known enabled, so the
   disabled path costs one atomic read. *)

let c_adjoints = Telemetry.Counter.make "op.adjoints"
let c_forwards = Telemetry.Counter.make "op.forwards"
let c_type3s = Telemetry.Counter.make "op.type3s"
let c_cycles = Telemetry.Counter.make "op.cycles"

let op_span kind name =
  if Telemetry.enabled () then
    Telemetry.span_begin ~cat:"op" ~args:[ ("backend", name) ] kind
  else Telemetry.null_span

let adjoint_span name = op_span "op.adjoint" name
let forward_span name = op_span "op.forward" name

let record_adjoint ?(cycles = 0) st ~elapsed_s =
  st.adjoints <- st.adjoints + 1;
  st.adjoint_s <- st.adjoint_s +. elapsed_s;
  st.cycles <- st.cycles + cycles;
  Telemetry.Counter.incr c_adjoints;
  if cycles > 0 then Telemetry.Counter.add c_cycles cycles

let record_forward ?(cycles = 0) st ~elapsed_s =
  st.forwards <- st.forwards + 1;
  st.forward_s <- st.forward_s +. elapsed_s;
  st.cycles <- st.cycles + cycles;
  Telemetry.Counter.incr c_forwards;
  if cycles > 0 then Telemetry.Counter.add c_cycles cycles

let record_type3 st ~elapsed_s =
  st.type3s <- st.type3s + 1;
  st.type3_s <- st.type3_s +. elapsed_s;
  Telemetry.Counter.incr c_type3s

let pp_stats ppf st =
  Format.fprintf ppf
    "@[<v>adjoints %d (gridding %.4fs, fft %.4fs, deapod %.4fs)@,\
     forwards %d (%.4fs)" st.adjoints st.stages.Plan.gridding_s
    st.stages.Plan.fft_s st.stages.Plan.deapod_s
    st.forwards st.forward_s;
  if st.type3s > 0 then
    Format.fprintf ppf "@,type3s %d (%.4fs)" st.type3s st.type3_s;
  if st.cycles > 0 then Format.fprintf ppf "@,simulated cycles %d" st.cycles;
  Format.fprintf ppf "@]"

module type NUFFT_OP = sig
  val name : string
  val dims : int
  val n : int
  val g : int
  val plan : Plan.plan option
  val transforms : Transform.t list
  val adjoint : Sample.t -> Cvec.t
  val forward : Cvec.t -> Sample.t
  val type3 : (Cvec.t -> Cvec.t) option
  val normal : Toeplitz.t option
  val stats : unit -> stats
end

type op = (module NUFFT_OP)

type ctx = {
  n : int;
  sigma : float;
  w : int;
  l : int;
  tol : float option;
  family : Numerics.Window.family option;
  kernel : Numerics.Window.t;
  transform : Transform.t;
  targets : float array array option;
  coords : Sample.t;
  pool : Runtime.Pool.t option;
}

type factory = ctx -> op

let context ?tol ?family ?kernel ?w ?(sigma = 2.0) ?l ?pool
    ?(transform = Transform.Type1) ?targets ~n ~coords () =
  if n < 2 then invalid_arg "Operator.context: n must be >= 2";
  if sigma <= 1.0 then invalid_arg "Operator.context: sigma must be > 1";
  let g = int_of_float (Float.round (sigma *. float_of_int n)) in
  if coords.Sample.g <> g then
    invalid_arg
      (Printf.sprintf
         "Operator.context: coords are on grid %d, but sigma * n rounds to \
          %d"
         coords.Sample.g g);
  (match (transform, targets) with
  | (Transform.Type1 | Transform.Type2), Some _ ->
      invalid_arg
        "Operator.context: targets only apply to the type-3 transform"
  | Transform.Type3, Some t ->
      let dims = Sample.dims coords in
      if Array.length t <> dims then
        invalid_arg
          (Printf.sprintf
             "Operator.context: targets have %d axes for a %dD problem"
             (Array.length t) dims);
      let m = if Array.length t = 0 then 0 else Array.length t.(0) in
      if m < 1 then invalid_arg "Operator.context: empty target set";
      Array.iter
        (fun a ->
          if Array.length a <> m then
            invalid_arg "Operator.context: ragged target axes";
          Array.iter
            (fun x ->
              if not (Float.is_finite x) then
                invalid_arg "Operator.context: non-finite target frequency")
            a)
        t
  | _, None -> ());
  (* Same derivation as the plan the factory will build, so [c.w]/[c.l]
     (which the hardware-model backends read directly) always equal the
     CPU plan's geometry. *)
  let tol, kernel, w, l =
    Plan.resolve_geometry ?tol ?family ?kernel ?w ?l ~sigma ()
  in
  { n; sigma; w; l; tol; family; kernel; transform; targets; coords; pool }

let ctx_dims c = Sample.dims c.coords
let ctx_grid c = c.coords.Sample.g

(* Registry. *)

type entry = {
  name : string;
  dims : int list;
  transforms : Transform.t list;
  doc : string;
  factory : factory;
}

let registry : entry list ref = ref []

let register ?(dims = [ 2; 3 ]) ?(transforms = [ Transform.Type1; Transform.Type2 ])
    ?(doc = "") name factory =
  if List.exists (fun e -> e.name = name) !registry then
    invalid_arg (Printf.sprintf "Operator.register: duplicate backend %S" name);
  registry := !registry @ [ { name; dims; transforms; doc; factory } ]

let entries () = !registry
let all () = List.map (fun e -> (e.name, e.factory)) !registry

let names ?dims ?transform () =
  List.filter_map
    (fun e ->
      match dims with
      | Some d when not (List.mem d e.dims) -> None
      | _ -> (
          match transform with
          | Some t when not (List.mem t e.transforms) -> None
          | _ -> Some e.name))
    !registry

let find name = List.find_opt (fun e -> e.name = name) !registry

let create name ctx =
  match find name with
  | None ->
      invalid_arg
        (Printf.sprintf "Operator: unknown backend %S (registered: %s)" name
           (String.concat ", " (names ())))
  | Some e ->
      let d = ctx_dims ctx in
      if not (List.mem d e.dims) then
        invalid_arg
          (Printf.sprintf "Operator: backend %S does not support %dD" name d);
      if not (List.mem ctx.transform e.transforms) then
        invalid_arg
          (Printf.sprintf
             "Operator: backend %S does not support %s (supported: %s)" name
             (Transform.to_string ctx.transform)
             (Transform.list_to_string e.transforms));
      e.factory ctx

(* An empirical spread-trial tuner picked compiled replay on every
   problem it measured (n 64-256, M 4k-200k, 1-2 domains, every SIMD
   dispatch state), and every CPU plan replays through the dispatched
   kernels, so "auto" is "serial". "replay-simd" was a registry entry
   that built the same plan; clients may still send it. *)
let resolve_backend = function
  | "auto" | "replay-simd" -> "serial"
  | name -> name

(* Generic helpers over a packed operator. *)

let name_of (module O : NUFFT_OP) = O.name
let dims_of (module O : NUFFT_OP) = O.dims

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)
let image_length (module O : NUFFT_OP) = pow O.n O.dims
let apply_adjoint (module O : NUFFT_OP) s = O.adjoint s
let apply_forward (module O : NUFFT_OP) x = O.forward x

let apply_type3 (module O : NUFFT_OP) values =
  match O.type3 with
  | Some f -> f values
  | None ->
      invalid_arg
        (Printf.sprintf
           "Operator: backend %S was not built for the type-3 transform \
            (supported: %s)"
           O.name
           (Transform.list_to_string O.transforms))

let stats_of (module O : NUFFT_OP) = O.stats ()
let plan_of (module O : NUFFT_OP) = O.plan
let transforms_of (module O : NUFFT_OP) = O.transforms
let type3_of (module O : NUFFT_OP) = O.type3

let normal_of (module O : NUFFT_OP) = O.normal

let gridded ?weights (module O : NUFFT_OP) x =
  O.adjoint (Sample.weighted ?weights (O.forward x))

(* One [op.normal] span per application, whichever path runs. *)
let normal ?weights ((module O : NUFFT_OP) as op) x =
  let sp = op_span "op.normal" O.name in
  let y =
    match O.normal with
    | Some t -> Toeplitz.apply ?weights t x
    | None -> gridded ?weights op x
  in
  Telemetry.span_end sp;
  y

let normal_gridded ?weights ((module O : NUFFT_OP) as op) x =
  let sp = op_span "op.normal" O.name in
  let y = gridded ?weights op x in
  Telemetry.span_end sp;
  y

(* Same monotonic clock as the plan's stage timings, so the stages of
   one application always sum to at most its elapsed time. *)
let now () = float_of_int (Telemetry.Clock.now_ns ()) *. 1e-9

let two_pi = 2.0 *. Float.pi

(* Default type-3 targets: the centred integer lattice, row-major with x
   fastest — the target set on which type-3 reduces exactly to type-1, so
   a lattice-targeted type-3 operator is a drop-in (approximate) adjoint. *)
let lattice_targets ~dims ~n =
  let total = pow n dims in
  let h = n / 2 in
  Array.init dims (fun d ->
      let stride = pow n d in
      Array.init total (fun idx -> float_of_int ((idx / stride mod n) - h)))

let of_plan ?name ?(transform = Transform.Type1) ?targets
    (plan : Plan.plan) ~coords : op =
  if coords.Sample.g <> plan.Plan.g then
    invalid_arg
      (Printf.sprintf "Operator.of_plan: coords are for grid %d, plan uses %d"
         coords.Sample.g plan.Plan.g);
  let name =
    match name with
    | Some n -> n
    | None -> Gridding.engine_name plan.Plan.engine
  in
  let st = create_stats () in
  let p = plan in
  (* The type-3 leg is prepared eagerly when requested: a plan cache entry
     built for Type3 is ready to replay, and geometry errors (target
     extents forcing an oversized fine grid) surface at build time. *)
  let type3_exec =
    match transform with
    | Transform.Type1 | Transform.Type2 -> None
    | Transform.Type3 ->
        let dims = Sample.dims coords in
        let g = p.Plan.g in
        let sources =
          Array.init dims (fun d ->
              Array.map
                (fun u ->
                  let om = two_pi *. u /. float_of_int g in
                  if om >= Float.pi then om -. two_pi else om)
                coords.Sample.coords.(d))
        in
        let targets =
          match targets with
          | Some t -> t
          | None -> lattice_targets ~dims ~n:p.Plan.n
        in
        let t3 =
          Plan.make_type3 ~kernel:p.Plan.kernel ~w:p.Plan.w ~sigma:p.Plan.sigma
            ~l:p.Plan.l ?pool:p.Plan.pool ~sources ~targets ()
        in
        Some (t3, st)
  in
  (module struct
    let name = name
    let dims = Sample.dims coords
    let n = p.Plan.n
    let g = p.Plan.g
    let plan = Some p

    let transforms =
      match type3_exec with
      | Some _ -> Transform.all
      | None -> [ Transform.Type1; Transform.Type2 ]

    (* Forward/adjoint replay the plan's compiled sample plan: the
       engine's decomposition is paid on the first application and every
       subsequent CG iteration streams the precomputed indices and
       weights. *)

    let adjoint s =
      let sp = adjoint_span name in
      let t0 = now () in
      let image =
        Plan.adjoint_compiled ~stats:st.grid ~timings:st.stages p s
      in
      record_adjoint st ~elapsed_s:(now () -. t0);
      Telemetry.span_end sp;
      image

    let forward image =
      let sp = forward_span name in
      let t0 = now () in
      let values = Plan.forward_compiled ~stats:st.grid p ~coords image in
      record_forward st ~elapsed_s:(now () -. t0);
      Telemetry.span_end sp;
      Sample.with_values coords values

    let type3 =
      Option.map
        (fun (t3, st) values ->
          let sp = op_span "op.type3" name in
          let t0 = now () in
          let out = Plan.type3_exec ~stats:st.grid t3 values in
          record_type3 st ~elapsed_s:(now () -. t0);
          Telemetry.span_end sp;
          out)
        type3_exec

    (* Built lazily, on the first normal-map application. *)
    let normal = Some (Toeplitz.create p ~coords)
    let stats () = st
  end : NUFFT_OP)

(* CPU backends: one registry entry per gridding engine. The 3D adjoint
   grids with the (pool-)sliced Gridding3d schedule whatever the 2D engine,
   so in 3D the names differ only in the plan they carry. *)

let cpu_backend name engine_of : factory =
 fun c ->
  let engine = engine_of ~g:(ctx_grid c) ~w:c.w in
  let plan =
    match c.tol with
    | Some t ->
        (* Re-deriving from [tol] records the request in the plan; the
           deterministic shared derivation guarantees the result matches
           the context's (kernel, w, l). *)
        Plan.make ~tol:t ?family:c.family ~sigma:c.sigma ~l:c.l ~engine
          ?pool:c.pool ~n:c.n ()
    | None ->
        Plan.make ~kernel:c.kernel ~w:c.w ~sigma:c.sigma ~l:c.l ~engine
          ?pool:c.pool ~n:c.n ()
  in
  of_plan ~name ~transform:c.transform ?targets:c.targets plan ~coords:c.coords

let () =
  List.iter
    (fun (name, doc, engine_of) ->
      register ~transforms:Transform.all ~doc name (cpu_backend name engine_of))
    [ ( "serial",
        "input-driven double-precision CPU reference (MIRT-class); \
         replay region-sharded across domains when given a pool",
        fun ~g:_ ~w:_ -> Gridding.Serial );
      ( "output-parallel",
        "naive output-driven model, M*G^d boundary checks",
        fun ~g:_ ~w:_ -> Gridding.Output_parallel );
      ( "binned",
        "Impatient-class presorted geometric bins",
        fun ~g ~w -> Gridding.Binned (Coord.fallback_tile ~g ~w) );
      ( "slice",
        "Slice-and-Dice, sample-outer CPU schedule (bit-identical to serial)",
        fun ~g ~w -> Gridding.Slice_and_dice (Coord.fallback_tile ~g ~w) );
      ( "slice-parallel",
        "Slice-and-Dice column-outer schedule on the domain pool",
        fun ~g ~w -> Gridding.Slice_parallel (Coord.fallback_tile ~g ~w) ) ]
