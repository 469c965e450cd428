(* Figure 9: reconstruction quality across numeric representations.

   The paper reconstructs 2D liver slices with (a) table oversampling
   L=1024 in double precision and (b) L=32 in 16-bit fixed point, finds
   them visually indistinguishable, and reports NRMSD of 0.047% for 32-bit
   floating point and 0.012% for the 32-bit fixed-point pipeline, both vs
   the double-precision Matlab reference.

   We reconstruct the Shepp-Logan phantom from a fully sampled radial
   acquisition (density-compensated so the fixed-point accumulators stay
   in range, as a real host would) and compare:
     reference : double gridding, L=1024 table
     float32   : simulated single-precision gridding, L=1024 table
     jigsaw    : the fixed-point hardware engine, L=32, Q1.15 weights
   The gridded k-space of each variant goes through the identical double
   FFT + deapodization, isolating gridding numerics. PGM images of the
   reference and fixed-point reconstructions are written next to the
   benchmark for the visual half of the figure. *)

module Cvec = Numerics.Cvec
module C = Numerics.Complexd
module Wt = Numerics.Weight_table

let n = 128

let reconstruct_from_grid plan grid =
  let g = plan.Nufft.Plan.g in
  Fft.Fftnd.transform_2d Fft.Dft.Inverse ~nx:g ~ny:g grid;
  let image = Cvec.create (n * n) in
  for iy = 0 to n - 1 do
    for ix = 0 to n - 1 do
      let cx = ix - (n / 2) and cy = iy - (n / 2) in
      let src = (Nufft.Coord.wrap ~g cy * g) + Nufft.Coord.wrap ~g cx in
      Cvec.set image ((iy * n) + ix)
        (C.scale
           (1.0
           /. (plan.Nufft.Plan.deapod.values.(ix)
              *. plan.Nufft.Plan.deapod.values.(iy)))
           (Cvec.get grid src))
    done
  done;
  image

let run () =
  Printf.printf "\n=== Figure 9: image quality vs numeric representation ===\n";
  let w = Bench_data.w in
  let kernel = Numerics.Window.default_kaiser_bessel ~width:w ~sigma:2.0 in
  let plan = Nufft.Plan.make ~n ~w ~l:1024 () in
  let g = plan.Nufft.Plan.g in
  let phantom = Imaging.Phantom.make ~n () in
  let traj =
    Trajectory.Radial.make
      ~spokes:(Trajectory.Radial.fully_sampled_spokes ~n)
      ~readout:(2 * n) ()
  in
  let samples = Imaging.Recon.acquire plan traj phantom in
  (* Density-compensate and normalise so |values| <= 1: what a host feeds
     fixed-point hardware. *)
  let dcf = Trajectory.Radial.density_weights traj in
  let m = Nufft.Sample.length samples in
  let peak = ref 0.0 in
  for j = 0 to m - 1 do
    let v = C.norm (Cvec.get samples.Nufft.Sample.values j) *. dcf.(j) in
    if v > !peak then peak := v
  done;
  let values =
    Cvec.init m (fun j ->
        C.scale (dcf.(j) /. !peak) (Cvec.get samples.Nufft.Sample.values j))
  in
  let gx = (Nufft.Sample.gx samples) and gy = (Nufft.Sample.gy samples) in
  (* Reference: double, L=1024. *)
  let table_ref = Wt.make ~kernel ~width:w ~l:1024 () in
  let grid_ref = Nufft.Gridding_serial.grid_2d ~table:table_ref ~g ~gx ~gy values in
  let img_ref = reconstruct_from_grid plan (Cvec.copy grid_ref) in
  (* 32-bit float, L=1024 (the GPU implementations' numerics). *)
  let table_f32 = Wt.make ~precision:Wt.Single ~kernel ~width:w ~l:1024 () in
  let grid_f32 =
    Nufft.Gridding_serial.grid_2d ~precision:`Single ~table:table_f32 ~g ~gx
      ~gy values
  in
  let img_f32 = reconstruct_from_grid plan (Cvec.copy grid_f32) in
  (* JIGSAW: 32-bit fixed point, L=32, Q1.15 weights. *)
  let cfg = Jigsaw.Config.make ~n:g ~w ~l:32 () in
  let table_fx = Wt.make ~precision:Wt.Fixed16 ~kernel ~width:w ~l:32 () in
  let engine = Jigsaw.Engine2d.create cfg ~table:table_fx in
  Jigsaw.Engine2d.stream engine ~gx ~gy values;
  let grid_fx = Jigsaw.Engine2d.readout engine in
  let img_fx = reconstruct_from_grid plan (Cvec.copy grid_fx) in
  (* Also JIGSAW at its maximum table resolution, L=64. *)
  let cfg64 = Jigsaw.Config.make ~n:g ~w ~l:64 () in
  let table_fx64 = Wt.make ~precision:Wt.Fixed16 ~kernel ~width:w ~l:64 () in
  let engine64 = Jigsaw.Engine2d.create cfg64 ~table:table_fx64 in
  Jigsaw.Engine2d.stream engine64 ~gx ~gy values;
  let img_fx64 = reconstruct_from_grid plan (Cvec.copy (Jigsaw.Engine2d.readout engine64)) in
  let report name img =
    Printf.printf "  %-34s NRMSD vs double/L=1024: %8.4f%%\n" name
      (Imaging.Metrics.nrmsd_percent ~reference:img_ref img)
  in
  Printf.printf "  dataset: %dx%d phantom, %d radial samples, W=%d\n" n n m w;
  report "float32 gridding, L=1024" img_f32;
  report "JIGSAW 32-bit fixed, L=32" img_fx;
  report "JIGSAW 32-bit fixed, L=64" img_fx64;
  Printf.printf
    "  (paper: float32 0.047%%, 32-bit fixed 0.012%%; shape target: both \
     well under 1%%, images indistinguishable)\n";
  Printf.printf "  jigsaw accumulator saturations: %d (must be 0)\n"
    (Jigsaw.Engine2d.saturation_events engine);
  Imaging.Pgm.write_magnitude ~path:"fig9_reference.pgm" ~n img_ref;
  Imaging.Pgm.write_magnitude ~path:"fig9_fixed_point.pgm" ~n img_fx;
  Printf.printf
    "  wrote fig9_reference.pgm / fig9_fixed_point.pgm for visual \
     comparison\n"
