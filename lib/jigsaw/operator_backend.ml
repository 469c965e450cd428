(* End-to-end NuFFT operators backed by the JIGSAW fixed-point engines:
   the hardware model grids, then the plan's stage function
   ({!Nufft.Plan.grid_to_image}: FFT + de-apodization) finishes the
   adjoint, making the ASIC drivable from any Operator consumer. *)

module Op = Nufft.Operator
module Sample = Nufft.Sample
module Cvec = Numerics.Cvec
module Wt = Numerics.Weight_table

(* The plan's stage clock: stage times never exceed [adjoint_s]. *)
let now () = float_of_int (Telemetry.Clock.now_ns ()) *. 1e-9

(* Synthetic span for the cycle model: the simulated gridding pass is
   replayed on its own trace row (tid 900) with a duration derived from
   the modelled cycle count and the configured clock, so hardware time
   shows up in the same chrome trace as the software wall-clock spans. *)
let model_tid = 900

let emit_cycle_span (cfg : Config.t) ~cycles =
  if Telemetry.enabled () && cycles > 0 then
    Telemetry.emit_span ~cat:"model" ~tid:model_tid
      ~args:[ ("cycles", string_of_int cycles) ]
      ~name:"jigsaw.cycles" ~ts_ns:(Telemetry.Clock.now_ns ())
      ~dur_ns:(int_of_float (float_of_int cycles /. cfg.Config.clock_ghz))
      ()

(* Table I restricts the on-chip table oversampling to a power of two
   <= 64; software callers routinely ask for L = 512. *)
let hardware_l l =
  let l = max 1 (min l 64) in
  let rec pow2 p = if p * 2 > l then p else pow2 (p * 2) in
  pow2 1

(* Shared per-backend plumbing: hardware config, Q1.15 table, and a
   double-precision plan built over the *same* kernel and table
   oversampling, used for the forward direction and the de-apodization
   factors. Sample coordinates are snapped to the hardware coordinate
   grid so forward and adjoint see bit-identical geometry; the remaining
   forward/adjoint asymmetry is pure fixed-point quantization. *)
let setup (c : Op.ctx) =
  let g = Op.ctx_grid c in
  let l = hardware_l c.Op.l in
  let cfg = Config.make ~n:g ~w:c.Op.w ~l () in
  (* The context's resolved kernel (Kaiser-Bessel by default, ES for
     tolerance-driven plans) — both engines' tables and the companion
     double plan must agree on it. *)
  let kernel = c.Op.kernel in
  let table = Wt.shared ~precision:Wt.Fixed16 ~kernel ~width:c.Op.w ~l () in
  let plan =
    Nufft.Plan.make ~kernel ~w:c.Op.w ~sigma:c.Op.sigma ~l ?pool:c.Op.pool
      ~n:c.Op.n ()
  in
  let snap u = Config.to_float_coord cfg (Config.of_float_coord cfg u) in
  let coords =
    Sample.make ~g
      ~coords:(Array.map (Array.map snap) c.Op.coords.Sample.coords)
      ~values:c.Op.coords.Sample.values
  in
  (cfg, table, plan, coords)

let check_grid ~g (s : Sample.t) =
  if s.Sample.g <> g then
    invalid_arg
      (Printf.sprintf "jigsaw operator: sample set is for grid %d, not %d"
         s.Sample.g g)

let make_2d (c : Op.ctx) : Op.op =
  let g = Op.ctx_grid c in
  let cfg, table, plan, coords = setup c in
  let engine = Engine2d.create cfg ~table in
  let st = Op.create_stats () in
  (module struct
    let name = "jigsaw-2d"
    let dims = 2
    let n = c.Op.n
    let g = g

    let adjoint s =
      check_grid ~g s;
      let sp = Op.adjoint_span name in
      let t0 = now () in
      let image = Cvec.create (n * n) in
      Nufft.Plan.grid_to_image ~timings:st.Op.stages plan image
        ~spread:(fun () ->
          Engine2d.reset engine;
          Engine2d.stream engine ~gx:(Sample.gx s) ~gy:(Sample.gy s)
            s.Sample.values;
          Engine2d.readout engine);
      let cycles = Engine2d.gridding_cycles engine in
      emit_cycle_span cfg ~cycles;
      Op.record_adjoint ~cycles st ~elapsed_s:(now () -. t0);
      Telemetry.span_end sp;
      image

    let forward image =
      let sp = Op.forward_span name in
      let t0 = now () in
      let values = Nufft.Plan.forward ~stats:st.Op.grid plan ~coords image in
      Op.record_forward st ~elapsed_s:(now () -. t0);
      Telemetry.span_end sp;
      Sample.with_values coords values

    let stats () = st

    (* Hardware models grid on the lattice-coupled path only: type-1
       (adjoint) and type-2 (forward). No type-3 leg. *)
    let transforms = [ Nufft.Transform.Type1; Nufft.Transform.Type2 ]
    let type3 = None
    let normal = None

    (* Fixed-point numerics: a CPU plan must never stand in for this
       backend's own transforms. *)
    let plan = None
  end : Op.NUFFT_OP)

let make_3d (c : Op.ctx) : Op.op =
  let g = Op.ctx_grid c in
  let cfg, table, plan, coords = setup c in
  let engine = Engine3d.create cfg ~table ~nz:g in
  let st = Op.create_stats () in
  (module struct
    let name = "jigsaw-3d"
    let dims = 3
    let n = c.Op.n
    let g = g

    let adjoint s =
      check_grid ~g s;
      let sp = Op.adjoint_span name in
      let t0 = now () in
      let volume = Cvec.create (n * n * n) in
      Nufft.Plan.grid_to_image ~timings:st.Op.stages plan volume
        ~spread:(fun () ->
          let slices =
            Engine3d.grid_volume engine ~gx:(Sample.gx s) ~gy:(Sample.gy s)
              ~gz:(Sample.gz s) s.Sample.values
          in
          let big = Cvec.create (g * g * g) in
          Array.iteri
            (fun z slice ->
              let base = z * g * g in
              for i = 0 to (g * g) - 1 do
                Cvec.set big (base + i) (Cvec.get slice i)
              done)
            slices;
          big);
      let cycles = Engine3d.unsorted_cycles engine ~m:(Sample.length s) in
      emit_cycle_span cfg ~cycles;
      Op.record_adjoint ~cycles st ~elapsed_s:(now () -. t0);
      Telemetry.span_end sp;
      volume

    let forward image =
      let sp = Op.forward_span name in
      let t0 = now () in
      let values = Nufft.Plan.forward ~stats:st.Op.grid plan ~coords image in
      Op.record_forward st ~elapsed_s:(now () -. t0);
      Telemetry.span_end sp;
      Sample.with_values coords values

    let stats () = st

    (* Hardware models grid on the lattice-coupled path only: type-1
       (adjoint) and type-2 (forward). No type-3 leg. *)
    let transforms = [ Nufft.Transform.Type1; Nufft.Transform.Type2 ]
    let type3 = None
    let normal = None

    (* Fixed-point numerics: a CPU plan must never stand in for this
       backend's own transforms. *)
    let plan = None
  end : Op.NUFFT_OP)

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    (* Default [~transforms] = type-1/type-2 only: the fixed-point engines
       grid onto the lattice-coupled oversampled grid and have no type-3
       scale/shift path — the registry rejects a Type3 context up front. *)
    Op.register ~dims:[ 2 ]
      ~doc:
        "JIGSAW 2D streaming fixed-point engine (M+12 cycles), FFT + \
         de-apodization in software"
      "jigsaw-2d" make_2d;
    Op.register ~dims:[ 3 ]
      ~doc:
        "JIGSAW 3D-Slice engine: one 2D fixed-point pass per z-slice, \
         unsorted schedule"
      "jigsaw-3d" make_3d
  end
