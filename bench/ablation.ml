(* Ablations of the design choices DESIGN.md calls out.

   A1  LUT vs on-line weights in the Slice-and-Dice GPU kernel
       (the paper's "reason 1" for beating Impatient, §VI-A).
   A2  Block-grid size for Slice-and-Dice (the paper populates 128x128
       blocks "to improve occupancy", §VI-A).
   A3  Bin/tile edge for the binned kernel (cache residency vs
       parallelism, §II-C).
   A4  Oversampling factor sigma with Beatty-matched window width
       (smaller sigma: cheaper FFT + less memory, pricier gridding,
       §II-B).
   A5  Window function family at fixed W/sigma/L (choice is
       "application-specific", §II-B).
   A6  Naive output-parallel GPU gridding on a thumbnail — why M*G^2
       checks were never viable.
   A7  Multicore CPU Slice-and-Dice (OCaml 5 domains): the model's
       interaction-free columns on a real parallel machine. *)

module Cvec = Numerics.Cvec
module C = Numerics.Complexd

let midsize () =
  Bench_data.load (Trajectory.Dataset.by_name "Image 3")

let a1_lut_vs_online () =
  Printf.printf "\n  A1: slice-and-dice weight source (Image 3)\n";
  let ds = midsize () in
  let p = Gpusim.Kernels.problem_of_samples ~w:Bench_data.w ds.Bench_data.samples in
  let lut = Gpusim.Sim.run (Gpusim.Kernels.slice_and_dice p) in
  let online = Gpusim.Sim.run (Gpusim.Kernels.slice_and_dice ~online_weights:true p) in
  Printf.printf "    LUT (shared memory): %8.3f ms\n" (1e3 *. lut.Gpusim.Sim.time_s);
  Printf.printf "    on-line evaluation : %8.3f ms (%.1fx slower)\n"
    (1e3 *. online.Gpusim.Sim.time_s)
    (online.Gpusim.Sim.time_s /. lut.Gpusim.Sim.time_s)

let a2_grid_blocks () =
  Printf.printf "\n  A2: slice-and-dice block-grid size (Image 3)\n";
  let ds = midsize () in
  let p = Gpusim.Kernels.problem_of_samples ~w:Bench_data.w ds.Bench_data.samples in
  List.iter
    (fun blocks ->
      let r = Gpusim.Sim.run (Gpusim.Kernels.slice_and_dice ~grid_blocks:blocks p) in
      Printf.printf "    %6d blocks: %8.3f ms  (L2 %4.1f%%)\n" blocks
        (1e3 *. r.Gpusim.Sim.time_s)
        (100.0 *. r.Gpusim.Sim.l2_hit_rate))
    [ 256; 1024; 4096; 16384; 65536 ];
  Printf.printf
    "    (too few blocks starve the SMs; the paper's 16384 sits on the \
     plateau)\n"

let a3_bin_size () =
  Printf.printf "\n  A3: binned kernel tile edge (Image 3)\n";
  let ds = midsize () in
  let p = Gpusim.Kernels.problem_of_samples ~w:Bench_data.w ds.Bench_data.samples in
  List.iter
    (fun bin ->
      let main = Gpusim.Sim.run (Gpusim.Kernels.binned ~bin p) in
      let pre = Gpusim.Sim.run (Gpusim.Kernels.binned_presort ~bin p) in
      (* Duplication shrinks as tiles grow; parallelism shrinks too. *)
      let dup =
        Nufft.Gridding_binned.duplication_factor ~w:Bench_data.w ~bin
          ~g:ds.Bench_data.g ~coords:(Nufft.Sample.gx ds.Bench_data.samples)
      in
      Printf.printf
        "    bin=%2d: %8.3f ms (+%5.3f presort)  1D dup %.2fx  blocks %d\n"
        bin
        (1e3 *. main.Gpusim.Sim.time_s)
        (1e3 *. pre.Gpusim.Sim.time_s)
        dup
        ((ds.Bench_data.g / bin) * (ds.Bench_data.g / bin)))
    [ 8; 16 ]

let a4_sigma_sweep () =
  Printf.printf "\n  A4: oversampling factor sigma (Beatty-matched W), n=32, m=400\n";
  Printf.printf "    %-8s %-4s %-6s %14s %14s %14s\n" "sigma" "W" "G"
    "adjoint NRMSD" "grid ops" "fft flops";
  let n = 32 and m = 400 in
  let rng = Random.State.make [| 303 |] in
  let omega () =
    Array.init m (fun _ -> Random.State.float rng (2.0 *. Float.pi) -. Float.pi)
  in
  let ox = omega () and oy = omega () in
  let values =
    Cvec.init m (fun _ ->
        C.make
          (Random.State.float rng 2.0 -. 1.0)
          (Random.State.float rng 2.0 -. 1.0))
  in
  let exact = Nufft.Nudft.adjoint_2d ~n ~omega_x:ox ~omega_y:oy ~values in
  List.iter
    (fun (sigma, w) ->
      let plan = Nufft.Plan.make ~n ~sigma ~w ~l:1024 () in
      let samples =
        Nufft.Sample.of_omega_2d ~g:plan.Nufft.Plan.g ~omega_x:ox ~omega_y:oy
          ~values
      in
      let fast = Nufft.Plan.adjoint plan samples in
      Printf.printf "    %-8.2f %-4d %-6d %14.2e %14d %14.0f\n" sigma w
        plan.Nufft.Plan.g
        (Cvec.nrmsd ~reference:exact fast)
        (m * w * w)
        (Fft.Fftnd.flop_estimate_2d ~nx:plan.Nufft.Plan.g ~ny:plan.Nufft.Plan.g))
    [ (2.0, 6); (1.5, 7); (1.25, 8) ];
  Printf.printf
    "    (sigma < 2 shrinks the FFT/memory at the cost of wider windows — \
     more gridding work, the trade of Beatty et al.)\n"

let a5_window_families () =
  Printf.printf "\n  A5: window function family (w=6, sigma=2, L=1024), n=32, m=400\n";
  let n = 32 and m = 400 and w = 6 in
  let rng = Random.State.make [| 404 |] in
  let omega () =
    Array.init m (fun _ -> Random.State.float rng (2.0 *. Float.pi) -. Float.pi)
  in
  let ox = omega () and oy = omega () in
  let values =
    Cvec.init m (fun _ ->
        C.make
          (Random.State.float rng 2.0 -. 1.0)
          (Random.State.float rng 2.0 -. 1.0))
  in
  let exact = Nufft.Nudft.adjoint_2d ~n ~omega_x:ox ~omega_y:oy ~values in
  List.iter
    (fun (name, kernel) ->
      let plan = Nufft.Plan.make ~n ~kernel ~w ~l:1024 () in
      let samples =
        Nufft.Sample.of_omega_2d ~g:plan.Nufft.Plan.g ~omega_x:ox ~omega_y:oy
          ~values
      in
      let fast = Nufft.Plan.adjoint plan samples in
      Printf.printf "    %-16s %12.2e\n" name
        (Cvec.nrmsd ~reference:exact fast))
    [ ("kaiser-bessel", Numerics.Window.default_kaiser_bessel ~width:w ~sigma:2.0);
      ("gaussian", Numerics.Window.default_gaussian ~width:w);
      ("bspline", Numerics.Window.Bspline);
      ("sinc", Numerics.Window.Sinc) ];
  (* MIRT's exact min-max interpolator (solve-per-sample), for reference. *)
  let g = 2 * n in
  let gx = Array.map (Nufft.Sample.omega_to_grid ~g) ox in
  let gy = Array.map (Nufft.Sample.omega_to_grid ~g) oy in
  let mm =
    Nufft.Minmax.adjoint_2d ~scaling:Nufft.Minmax.Kaiser_bessel_scaling ~n ~g
      ~w ~gx ~gy values
  in
  Printf.printf "    %-16s %12.2e\n" "min-max (exact)"
    (Cvec.nrmsd ~reference:exact mm);
  Printf.printf
    "    (Kaiser-Bessel with the Beatty beta wins among tabulated windows \
     — the choice every system in the paper makes; MIRT's exact min-max \
     interpolation beats them all at the cost of a per-sample solve)\n"

let a6_naive_gpu () =
  Printf.printf "\n  A6: naive output-parallel GPU gridding (thumbnail: g=64, m=2048)\n";
  let traj = Trajectory.Radial.make ~spokes:16 ~readout:128 () in
  let g = 64 in
  let values = Cvec.create (Trajectory.Traj.length traj) in
  let s =
    Nufft.Sample.of_omega_2d ~g ~omega_x:traj.Trajectory.Traj.omega_x
      ~omega_y:traj.Trajectory.Traj.omega_y ~values
  in
  let p = Gpusim.Kernels.problem_of_samples ~w:Bench_data.w s in
  let naive = Gpusim.Sim.run (Gpusim.Kernels.naive_output p) in
  let slice = Gpusim.Sim.run (Gpusim.Kernels.slice_and_dice ~grid_blocks:1024 p) in
  Printf.printf "    naive:          %10.3f ms (%d instructions)\n"
    (1e3 *. naive.Gpusim.Sim.time_s)
    naive.Gpusim.Sim.instructions;
  Printf.printf "    slice-and-dice: %10.3f ms  -> %.0fx faster at g=%d;\n"
    (1e3 *. slice.Gpusim.Sim.time_s)
    (naive.Gpusim.Sim.time_s /. slice.Gpusim.Sim.time_s)
    g;
  Printf.printf
    "    the gap scales as G^2/T^2 = %.0fx of boundary-check work at \
     g=1024.\n"
    (float_of_int (1024 * 1024) /. 64.0)

let a7_multicore_cpu () =
  Printf.printf
    "\n  A7: multicore CPU slice-and-dice (OCaml 5 domains; this host \
     reports %d core(s))\n"
    (Domain.recommended_domain_count ());
  let ds =
    Bench_data.load
      (Trajectory.Dataset.small_variant (Trajectory.Dataset.by_name "Image 3"))
  in
  let table = Perf_models.table_for ~l:32 () in
  let s = ds.Bench_data.samples in
  List.iter
    (fun domains ->
      let dt =
        Perf_models.time_best ~repeats:2 (fun () ->
            Nufft.Gridding_slice.grid_2d_parallel ~domains ~table
              ~g:ds.Bench_data.g ~t:8 ~gx:(Nufft.Sample.gx s)
              ~gy:(Nufft.Sample.gy s) s.Nufft.Sample.values)
      in
      Printf.printf "    %d domain(s): %8.2f ms\n" domains (1e3 *. dt))
    [ 1; 2; 4 ];
  Printf.printf
    "    (columns partition with no interaction — scaling tracks the \
     physical core count; the M*T^2-check schedule only pays off with \
     real parallel lanes, which is the paper's whole point)\n"

let run () =
  Printf.printf "\n=== Ablations (design-choice studies) ===\n";
  a1_lut_vs_online ();
  a2_grid_blocks ();
  a3_bin_size ();
  a4_sigma_sweep ();
  a5_window_families ();
  a6_naive_gpu ();
  a7_multicore_cpu ()
