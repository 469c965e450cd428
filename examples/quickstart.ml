(* Quickstart: the five-minute tour of the library.

   1. Build a NuFFT plan.
   2. Generate a radial MRI trajectory and synthetic k-space data.
   3. Run the adjoint NuFFT (gridding -> FFT -> deapodization).
   4. Check the result against the exact (slow) NuDFT.
   5. Swap the gridding engine for Slice-and-Dice and observe identical
      output.

   Run with:  dune exec examples/quickstart.exe *)

module Cvec = Numerics.Cvec
module C = Numerics.Complexd

let () =
  (* A 32 x 32 image keeps the exact NuDFT reference fast. *)
  let n = 32 in
  let plan = Nufft.Plan.make ~n () in
  Printf.printf "Plan: n=%d sigma=%.1f -> oversampled grid g=%d, window w=%d, \
                 table L=%d\n"
    plan.Nufft.Plan.n plan.Nufft.Plan.sigma plan.Nufft.Plan.g
    plan.Nufft.Plan.w plan.Nufft.Plan.l;

  (* An undersampled radial acquisition: 24 spokes of 64 readout points. *)
  let traj = Trajectory.Radial.make ~spokes:24 ~readout:64 () in
  let m = Trajectory.Traj.length traj in
  let rng = Random.State.make [| 7 |] in
  let values =
    Cvec.init m (fun _ ->
        C.make
          (Random.State.float rng 2.0 -. 1.0)
          (Random.State.float rng 2.0 -. 1.0))
  in
  let samples =
    Nufft.Sample.of_omega_2d ~g:plan.Nufft.Plan.g
      ~omega_x:traj.Trajectory.Traj.omega_x
      ~omega_y:traj.Trajectory.Traj.omega_y ~values
  in
  Printf.printf "Trajectory: %d radial samples\n" m;

  (* Adjoint NuFFT: k-space -> image. *)
  let timings = Nufft.Plan.create_timings () in
  let image = Nufft.Plan.adjoint ~timings plan samples in
  Printf.printf "Adjoint NuFFT: gridding %.3f ms, FFT %.3f ms, deapod %.3f \
                 ms (gridding share %.1f%%)\n"
    (1e3 *. timings.Nufft.Plan.gridding_s)
    (1e3 *. timings.Nufft.Plan.fft_s)
    (1e3 *. timings.Nufft.Plan.deapod_s)
    (100.0 *. Nufft.Plan.gridding_fraction timings);

  (* Validate against the exact NuDFT. *)
  let exact =
    Nufft.Nudft.adjoint_2d ~n ~omega_x:traj.Trajectory.Traj.omega_x
      ~omega_y:traj.Trajectory.Traj.omega_y ~values
  in
  Printf.printf "NRMSD vs exact NuDFT: %.2e (fast approximation error)\n"
    (Cvec.nrmsd ~reference:exact image);

  (* The paper's contribution: the Slice-and-Dice engine computes the same
     grid without any presorting — bit-identical here. *)
  let plan_sd =
    Nufft.Plan.make ~n ~engine:(Nufft.Gridding.Slice_and_dice 8) ()
  in
  let image_sd = Nufft.Plan.adjoint plan_sd samples in
  Printf.printf "Slice-and-Dice engine max deviation from serial: %g\n"
    (Cvec.max_abs_diff image image_sd);
  print_endline "Done."
