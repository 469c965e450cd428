(* End-to-end NuFFT operators backed by the SIMT timing simulator: the
   numeric result is computed by the matching CPU engine (the GPU kernels
   are memory/compute traces, not value-producing), while Sim.run replays
   the kernel over the actual sample coordinates and the simulated cycle
   count is accumulated into the operator's stats. *)

module Op = Nufft.Operator
module Sample = Nufft.Sample
module Wt = Numerics.Weight_table

(* The plan's stage clock: stage times never exceed [adjoint_s]. *)
let now () = float_of_int (Telemetry.Clock.now_ns ()) *. 1e-9

(* Synthetic span for the cycle model, mirroring the jigsaw backend: the
   simulated kernel time lands on its own trace row (tid 901) with a
   duration derived from the cycle count and the simulated GPU's clock. *)
let model_tid = 901

let emit_cycle_span ~cycles =
  if Telemetry.enabled () && cycles > 0 then
    Telemetry.emit_span ~cat:"model" ~tid:model_tid
      ~args:[ ("cycles", string_of_int cycles) ]
      ~name:"gpusim.cycles" ~ts_ns:(Telemetry.Clock.now_ns ())
      ~dur_ns:
        (int_of_float
           (float_of_int cycles /. Config.titan_xp.Config.clock_ghz))
      ()

(* The paper's launch geometry is 128 x 128 blocks; scale down for small
   problems so a toy adjoint does not replay thousands of empty blocks,
   converging to the paper's constant once m is bench-sized. *)
let slice_blocks ~m = min 16384 (max 1 ((m + 3) / 4))

type flavour = Slice | Binned

let kernels_of flavour ~w (s : Sample.t) =
  let p = Kernels.problem_of_samples ~w s in
  match flavour with
  | Slice ->
      [ Kernels.slice_and_dice ~grid_blocks:(slice_blocks ~m:(Sample.length s)) p ]
  | Binned ->
      (* Impatient's presort pass is part of its gridding time (Fig 6). *)
      [ Kernels.binned_presort p; Kernels.binned p ]

let make flavour op_name (c : Op.ctx) : Op.op =
  let g = Op.ctx_grid c in
  let engine =
    let tile = Nufft.Coord.fallback_tile ~g ~w:c.Op.w in
    match flavour with
    | Slice -> Nufft.Gridding.Slice_and_dice tile
    | Binned -> Nufft.Gridding.Binned tile
  in
  (* Single-precision weight LUT, mirroring the GPU's f32 table; the
     context's resolved kernel so tolerance-driven (ES) contexts carry
     through. *)
  let plan =
    Nufft.Plan.make ~kernel:c.Op.kernel ~w:c.Op.w ~sigma:c.Op.sigma ~l:c.Op.l
      ~engine ~table_precision:Wt.Single ?pool:c.Op.pool ~n:c.Op.n ()
  in
  let coords = c.Op.coords in
  let st = Op.create_stats () in
  (* One timing replay per distinct coordinate set: CG re-applies the
     operator on identical coordinates every iteration. *)
  let last_sim : float array array option ref = ref None in
  let last_cycles = ref 0 in
  let simulate (s : Sample.t) =
    match !last_sim with
    | Some c when c == s.Sample.coords -> !last_cycles
    | _ ->
        let cycles =
          List.fold_left
            (fun acc k -> acc + (Sim.run k).Sim.cycles)
            0
            (kernels_of flavour ~w:c.Op.w s)
        in
        last_sim := Some s.Sample.coords;
        last_cycles := cycles;
        cycles
  in
  (module struct
    let name = op_name
    let dims = 2
    let n = c.Op.n
    let g = g

    let adjoint s =
      let sp = Op.adjoint_span name in
      let t0 = now () in
      let image =
        Nufft.Plan.adjoint ~stats:st.Op.grid ~timings:st.Op.stages plan s
      in
      let cycles = simulate s in
      emit_cycle_span ~cycles;
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

    (* f32-LUT numerics: a CPU double plan must never stand in for this
       backend's own transforms. *)
    let plan = None
  end : Op.NUFFT_OP)

let make_slice c = make Slice "gpusim-slice" c
let make_binned c = make Binned "gpusim-binned" c

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    (* Default [~transforms] = type-1/type-2 only: the simulated kernels
       model lattice gridding; no type-3 path. *)
    Op.register ~dims:[ 2 ]
      ~doc:
        "Slice-and-Dice GPU kernel replayed on the Titan Xp timing \
         simulator; numeric result from the CPU slice engine"
      "gpusim-slice" make_slice;
    Op.register ~dims:[ 2 ]
      ~doc:
        "Impatient-style binned GPU kernel (presort + gridding passes) on \
         the timing simulator; numeric result from the CPU binned engine"
      "gpusim-binned" make_binned
  end
