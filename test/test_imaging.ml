(* Tests for the imaging substrate and the end-to-end reconstruction
   pipeline (Cartesian consistency, radial phantom roundtrip, PGM). *)

module Cvec = Numerics.Cvec
module C = Numerics.Complexd
module Phantom = Imaging.Phantom
module Metrics = Imaging.Metrics

let check_close ?(eps = 1e-12) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let rok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "recon error: %s" (Imaging.Recon.error_message e)

let test_phantom_basic () =
  let n = 64 in
  let img = Phantom.make ~n () in
  Alcotest.(check int) "size" (n * n) (Cvec.length img);
  let lo, hi = Phantom.intensity_bounds img in
  Alcotest.(check bool) "background zero" true (lo >= -1e-12);
  Alcotest.(check bool) "peak positive" true (hi > 0.9 && hi <= 2.0);
  (* Phantom is purely real. *)
  let imag_mass = ref 0.0 in
  Cvec.iteri (fun _ c -> imag_mass := !imag_mass +. Float.abs c.C.im) img;
  check_close "real" 0.0 !imag_mass;
  (* Centre pixel is inside the head (non-zero), corner is background. *)
  Alcotest.(check bool) "centre inside" true
    (Cvec.get_re img ((n / 2 * n) + (n / 2)) > 0.0);
  check_close "corner background" 0.0 (Cvec.get_re img 0)

let test_phantom_known_regions () =
  (* Probe canonical anatomy: skull rim (1.0 - 0.8 inside the second
     ellipse), brain matter, the top "ventricle" ellipse, and a point
     inside the right dark ellipse. *)
  let n = 128 in
  let img = Phantom.make ~n () in
  let at x y =
    let ix = int_of_float ((x +. 1.0) /. 2.0 *. float_of_int n) in
    let iy = int_of_float ((1.0 -. y) /. 2.0 *. float_of_int n) in
    Cvec.get_re img ((iy * n) + ix)
  in
  check_close ~eps:1e-9 "brain matter" 0.2 (at 0.0 (-0.3));
  check_close ~eps:1e-9 "top ellipse" 0.3 (at 0.0 0.35);
  (* Centre of the right dark ellipse (x0 = 0.22, intensity -0.2). *)
  check_close ~eps:1e-9 "right ventricle" 0.0 (at 0.22 0.0);
  (* Between the outer skull ellipses: intensity 1.0. *)
  check_close ~eps:1e-9 "skull rim" 1.0 (at 0.0 0.9)

let test_phantom_original_variant () =
  let m = Phantom.make ~modified:true ~n:32 () in
  let o = Phantom.make ~modified:false ~n:32 () in
  let _, hi_m = Phantom.intensity_bounds m in
  let _, hi_o = Phantom.intensity_bounds o in
  Alcotest.(check bool) "different intensity scales" true (hi_o > hi_m)

let test_metrics () =
  let r = Cvec.of_complex_array [| C.make 1.0 0.0; C.make 0.0 2.0 |] in
  check_close "nrmsd identical" 0.0 (Metrics.nrmsd ~reference:r (Cvec.copy r));
  Alcotest.(check bool) "psnr identical" true
    (Float.is_integer (Metrics.psnr ~reference:r (Cvec.copy r))
     = Float.is_integer Float.infinity);
  let v = Cvec.of_complex_array [| C.make 1.1 0.0; C.make 0.0 2.0 |] in
  check_close ~eps:1e-12 "nrmsd" (0.1 /. sqrt 5.0) (Metrics.nrmsd ~reference:r v);
  check_close ~eps:1e-12 "percent" (10.0 /. sqrt 5.0)
    (Metrics.nrmsd_percent ~reference:r v);
  check_close ~eps:1e-12 "max err" 0.1 (Metrics.max_abs_error ~reference:r v);
  Alcotest.(check bool) "psnr finite" true
    (Float.is_finite (Metrics.psnr ~reference:r v))

let test_pgm_roundtrip_bytes () =
  let n = 4 in
  let values = Array.init (n * n) float_of_int in
  let path = Filename.temp_file "jigsaw_test" ".pgm" in
  Imaging.Pgm.write ~path ~n values;
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "header" true (String.length content > 10);
  Alcotest.(check string) "magic" "P5" (String.sub content 0 2);
  (* 16 pixel bytes after the header; min -> 0, max -> 255. *)
  let pixels = String.sub content (String.length content - 16) 16 in
  Alcotest.(check int) "min byte" 0 (Char.code pixels.[0]);
  Alcotest.(check int) "max byte" 255 (Char.code pixels.[15])

let test_cartesian_consistency () =
  (* Acquire the phantom on a full Cartesian grid and reconstruct: the
     result must match the original almost exactly (NuFFT == DFT here). *)
  let n = 32 in
  let plan = Nufft.Plan.make ~n () in
  let img = Phantom.make ~n () in
  let traj = Trajectory.Cartesian.make ~n in
  let recon, err = rok (Imaging.Recon.roundtrip plan traj img) in
  Alcotest.(check int) "size" (n * n) (Cvec.length recon);
  Alcotest.(check bool) (Printf.sprintf "nrmsd %.2e" err) true (err < 5e-3)

let test_radial_roundtrip () =
  (* Fully sampled radial + ramp density compensation: direct gridding
     reconstruction (no iterations) of a hard-edged phantom is Gibbs- and
     DCF-limited; the scaled NRMSD shrinks with resolution (0.31 at n=32,
     0.22 at n=64). *)
  let n = 64 in
  let plan = Nufft.Plan.make ~n () in
  let img = Phantom.make ~n () in
  let traj =
    Trajectory.Radial.make
      ~spokes:(Trajectory.Radial.fully_sampled_spokes ~n)
      ~readout:(2 * n) ()
  in
  let density = Trajectory.Radial.density_weights traj in
  let recon, _abs_err = rok (Imaging.Recon.roundtrip ~density plan traj img) in
  (* Ramp compensation leaves an arbitrary global gain; judge structure
     with the scale-optimal NRMSD. *)
  let err = Metrics.nrmsd_scaled ~reference:img recon in
  Alcotest.(check bool) (Printf.sprintf "scaled nrmsd %.3f" err) true
    (err < 0.25)

let test_undersampling_degrades () =
  let n = 32 in
  let plan = Nufft.Plan.make ~n () in
  let img = Phantom.make ~n () in
  let run spokes =
    let traj = Trajectory.Radial.make ~spokes ~readout:(2 * n) () in
    let density = Trajectory.Radial.density_weights traj in
    let recon, _ = rok (Imaging.Recon.roundtrip ~density plan traj img) in
    Metrics.nrmsd_scaled ~reference:img recon
  in
  let full = run (Trajectory.Radial.fully_sampled_spokes ~n) in
  let under = run 8 in
  Alcotest.(check bool)
    (Printf.sprintf "full %.3f < undersampled %.3f" full under)
    true (full < under)

(* ------------------------------------------------------------------ *)
(* Toeplitz normal operator and CG iterative reconstruction *)

(* A fixed random 2D trajectory bound to a default plan, with
   nonnegative density weights. *)
let small_problem () =
  let n = 16 and m = 300 in
  let rng = Random.State.make [| 101 |] in
  let omega () = Array.init m (fun _ ->
      Random.State.float rng (2.0 *. Float.pi) -. Float.pi) in
  let plan = Nufft.Plan.make ~n () in
  let coords =
    Nufft.Sample.of_omega_2d ~g:plan.Nufft.Plan.g ~omega_x:(omega ())
      ~omega_y:(omega ()) ~values:(Cvec.create m)
  in
  let weights = Array.init m (fun _ -> Random.State.float rng 2.0) in
  (n, plan, coords, weights)

let random_image rng n =
  let r () = Random.State.float rng 2.0 -. 1.0 in
  Cvec.init (n * n) (fun _ ->
      let im = r () in
      C.make (r ()) im)

let test_toeplitz_matches_normal_operator () =
  let n, plan, coords, _ = small_problem () in
  let op = Nufft.Operator.of_plan plan ~coords in
  let rng = Random.State.make [| 7 |] in
  let x = random_image rng n in
  let via_toeplitz = Nufft.Operator.normal op x in
  (* Explicit A^H (A x) with the plan's gridding pair. *)
  let ax = Nufft.Plan.forward plan ~coords x in
  let s = Nufft.Sample.with_values coords ax in
  let via_pair = Nufft.Plan.adjoint plan s in
  let err = Cvec.nrmsd ~reference:via_pair via_toeplitz in
  Alcotest.(check bool) (Printf.sprintf "toeplitz = A^H A (nrmsd %.2e)" err)
    true (err < 5e-3)

let test_toeplitz_hermitian () =
  let n, plan, coords, weights = small_problem () in
  let op = Nufft.Operator.of_plan plan ~coords in
  let rng = Random.State.make [| 8 |] in
  let x = random_image rng n and y = random_image rng n in
  List.iter
    (fun weights ->
      let lhs = Cvec.dot (Nufft.Operator.normal ?weights op x) y in
      let rhs = Cvec.dot x (Nufft.Operator.normal ?weights op y) in
      let scale = C.norm lhs +. C.norm rhs +. 1.0 in
      check_close ~eps:(1e-8 *. scale) "re" lhs.C.re rhs.C.re;
      check_close ~eps:(1e-8 *. scale) "im" lhs.C.im rhs.C.im)
    [ None; Some weights ]

let test_toeplitz_psd () =
  let n, plan, coords, weights = small_problem () in
  let op = Nufft.Operator.of_plan plan ~coords in
  let rng = Random.State.make [| 9 |] in
  for _ = 1 to 5 do
    let x = random_image rng n in
    List.iter
      (fun weights ->
        let q = (Cvec.dot x (Nufft.Operator.normal ?weights op x)).C.re in
        Alcotest.(check bool) (Printf.sprintf "<x,Tx> = %g >= 0" q) true
          (q >= -1e-6))
      [ None; Some weights ]
  done

let test_cg_diagonal () =
  (* T = 2I: CG solves in one iteration. *)
  let b = Cvec.init 8 (fun k -> C.make (float_of_int k) 1.0) in
  let r = Imaging.Cg.solve ~apply:(fun v ->
      let c = Cvec.copy v in
      Cvec.scale_inplace 2.0 c;
      c) b in
  Alcotest.(check bool) "converged" true r.Imaging.Cg.converged;
  Alcotest.(check bool) "few iterations" true (r.Imaging.Cg.iterations <= 2);
  let expected = Cvec.map (fun c -> C.scale 0.5 c) b in
  check_close ~eps:1e-12 "solution" 0.0
    (Cvec.max_abs_diff expected r.Imaging.Cg.solution)

let test_cg_residual_decreases () =
  (* Tikhonov-regularised normal equations (T + lambda I) x = b — the
     realistic iterative-recon system, and well-conditioned enough that
     the residual 2-norm falls decisively (plain CG residuals need not be
     monotone on ill-conditioned operators). *)
  let n, plan, coords, _ = small_problem () in
  let op = Nufft.Operator.of_plan plan ~coords in
  let lambda = 50.0 in
  let apply x =
    let tx = Nufft.Operator.normal op x in
    Cvec.iteri
      (fun k c -> Cvec.set tx k (C.add (Cvec.get tx k) (C.scale lambda c)))
      x;
    tx
  in
  let rng = Random.State.make [| 10 |] in
  let b = Cvec.init (n * n) (fun _ ->
      C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)) in
  let r = Imaging.Cg.solve ~max_iterations:30 ~apply b in
  let h = r.Imaging.Cg.residual_norms in
  Alcotest.(check bool) "history recorded" true (List.length h >= 2);
  let first = List.hd h and last = List.nth h (List.length h - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "residual fell %g -> %g" first last)
    true (last < 0.1 *. first)

let test_iterative_beats_direct () =
  (* CG on the normal equations improves on one-shot density-compensated
     gridding reconstruction — the reason iterative recon exists. *)
  let n = 32 in
  let plan = Nufft.Plan.make ~n () in
  let img = Phantom.make ~n () in
  let traj = Trajectory.Radial.make
      ~spokes:(Trajectory.Radial.fully_sampled_spokes ~n) ~readout:(2 * n) () in
  let samples = Imaging.Recon.acquire plan traj img in
  let density = Trajectory.Radial.density_weights traj in
  let direct = rok (Imaging.Recon.reconstruct ~density plan samples) in
  let direct_err = Metrics.nrmsd_scaled ~reference:img direct in
  let op = Nufft.Operator.of_plan plan ~coords:samples in
  let b = Imaging.Cg.normal_equations_rhs_op op samples in
  let r = Imaging.Cg.solve ~max_iterations:15 ~tolerance:1e-8
      ~apply:(Imaging.Cg.normal_map op) b in
  let cg_err = Metrics.nrmsd_scaled ~reference:img r.Imaging.Cg.solution in
  Alcotest.(check bool)
    (Printf.sprintf "cg %.4f < direct %.4f" cg_err direct_err)
    true (cg_err < direct_err)

(* ------------------------------------------------------------------ *)
(* Pipe-Menon density compensation *)

let test_pipe_menon_flattens () =
  let n = 32 in
  let plan = Nufft.Plan.make ~n () in
  let g = plan.Nufft.Plan.g in
  let traj = Trajectory.Radial.make ~spokes:24 ~readout:64 () in
  let gx = Array.map (Nufft.Sample.omega_to_grid ~g) traj.Trajectory.Traj.omega_x in
  let gy = Array.map (Nufft.Sample.omega_to_grid ~g) traj.Trajectory.Traj.omega_y in
  let table = plan.Nufft.Plan.table in
  let uniform = Array.make (Array.length gx) 1.0 in
  let before = Imaging.Density.flatness ~table ~g ~gx ~gy uniform in
  let w = Imaging.Density.pipe_menon ~iterations:10 ~table ~g ~gx ~gy () in
  let after = Imaging.Density.flatness ~table ~g ~gx ~gy w in
  Alcotest.(check bool)
    (Printf.sprintf "flatness %.3f -> %.3f" before after)
    true
    (after < 0.3 *. before);
  Array.iter (fun x -> Alcotest.(check bool) "positive" true (x > 0.0)) w

let test_pipe_menon_recon_quality () =
  (* Pipe-Menon weights should reconstruct at least as well as the
     analytic ramp on radial data. *)
  let n = 32 in
  let plan = Nufft.Plan.make ~n () in
  let g = plan.Nufft.Plan.g in
  let img = Phantom.make ~n () in
  let traj = Trajectory.Radial.make
      ~spokes:(Trajectory.Radial.fully_sampled_spokes ~n) ~readout:(2 * n) () in
  let samples = Imaging.Recon.acquire plan traj img in
  let run density =
    let r = rok (Imaging.Recon.reconstruct ~density plan samples) in
    Metrics.nrmsd_scaled ~reference:img r
  in
  let ramp = run (Trajectory.Radial.density_weights traj) in
  let pm = run (Imaging.Density.pipe_menon ~iterations:12
                  ~table:plan.Nufft.Plan.table ~g
                  ~gx:(Nufft.Sample.gx samples) ~gy:(Nufft.Sample.gy samples) ()) in
  Alcotest.(check bool)
    (Printf.sprintf "pipe-menon %.4f <= 1.2 * ramp %.4f" pm ramp)
    true (pm <= 1.2 *. ramp)

let () =
  Alcotest.run "imaging"
    [ ("phantom",
       [ Alcotest.test_case "basic" `Quick test_phantom_basic;
         Alcotest.test_case "known regions" `Quick test_phantom_known_regions;
         Alcotest.test_case "original variant" `Quick
           test_phantom_original_variant ]);
      ("metrics", [ Alcotest.test_case "all" `Quick test_metrics ]);
      ("pgm", [ Alcotest.test_case "write" `Quick test_pgm_roundtrip_bytes ]);
      ("recon",
       [ Alcotest.test_case "cartesian consistency" `Quick
           test_cartesian_consistency;
         Alcotest.test_case "radial phantom roundtrip" `Quick
           test_radial_roundtrip;
         Alcotest.test_case "undersampling degrades" `Quick
           test_undersampling_degrades ]);
      ("density",
       [ Alcotest.test_case "pipe-menon flattens" `Quick
           test_pipe_menon_flattens;
         Alcotest.test_case "recon quality" `Quick
           test_pipe_menon_recon_quality ]);
      ("toeplitz",
       [ Alcotest.test_case "matches A^H A" `Quick
           test_toeplitz_matches_normal_operator;
         Alcotest.test_case "hermitian" `Quick test_toeplitz_hermitian;
         Alcotest.test_case "positive semidefinite" `Quick test_toeplitz_psd ]);
      ("cg",
       [ Alcotest.test_case "diagonal system" `Quick test_cg_diagonal;
         Alcotest.test_case "residual decreases" `Quick
           test_cg_residual_decreases;
         Alcotest.test_case "iterative beats direct" `Quick
           test_iterative_beats_direct ]) ]
