(* Operator-layer tests: registry contents, the adjointness property
   <forward x, y> = <x, adjoint y> through the interface for every
   registered backend in 2D and 3D, differential roundtrip agreement
   between CPU backends, the 3D reconstruction path, centralised tile
   validation, and the per-operator instrumentation. *)

module Op = Nufft.Operator
module Sample = Nufft.Sample
module Cvec = Numerics.Cvec
module C = Numerics.Complexd
module Fp = Numerics.Fixed_point
module Phantom = Imaging.Phantom

let () =
  Jigsaw.Operator_backend.register ();
  Gpusim.Operator_backend.register ()

let rok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "recon error: %s" (Imaging.Recon.error_message e)

(* ------------------------------------------------------------------ *)
(* Registry. *)

let required_2d =
  [ "serial"; "output-parallel"; "binned"; "slice"; "slice-parallel";
    "jigsaw-2d"; "gpusim-slice"; "gpusim-binned" ]

let cpu_backends =
  [ "serial"; "output-parallel"; "binned"; "slice"; "slice-parallel" ]

let test_registry_names () =
  let names2 = Op.names ~dims:2 () in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " registered 2D") true
        (List.mem n names2))
    required_2d;
  let names3 = Op.names ~dims:3 () in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " registered 3D") true
        (List.mem n names3))
    (cpu_backends @ [ "jigsaw-3d" ]);
  Alcotest.(check bool) "jigsaw-3d is 3D-only" false
    (List.mem "jigsaw-3d" names2);
  Alcotest.(check bool) "gpusim-slice is 2D-only" false
    (List.mem "gpusim-slice" names3);
  Alcotest.(check bool) "all () covers names ()" true
    (List.map fst (Op.all ()) = Op.names ())

let test_registry_errors () =
  Alcotest.check_raises "duplicate name rejected"
    (Invalid_argument "Operator.register: duplicate backend \"serial\"")
    (fun () -> Op.register "serial" (fun _ -> assert false));
  let ctx =
    Op.context ~n:16 ~coords:(Sample.random_2d ~g:32 8) ()
  in
  (match Op.create "no-such-backend" ctx with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "unknown backend lists registry" true
        (String.length msg > 0
        && String.sub msg 0 25 = "Operator: unknown backend")
  | _ -> Alcotest.fail "unknown backend accepted");
  match Op.create "jigsaw-3d" ctx with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "3D-only backend accepted a 2D context"

(* ------------------------------------------------------------------ *)
(* Adjointness: <A x, y> = <x, A^H y> with the Hermitian inner product,
   for a random image x and random sample values y on the bound
   coordinates. The CPU and gpusim backends use one weight table for both
   directions, so the identity holds to double-precision accumulation
   order; the JIGSAW backends grid in Q1.15 fixed point against a
   double-precision forward, so the mismatch is bounded by the table /
   datapath quantization step. *)

let random_cvec ~seed len =
  let rng = Random.State.make [| seed |] in
  Cvec.init len (fun _ ->
      C.make
        (Random.State.float rng 1.0 -. 0.5)
        (Random.State.float rng 1.0 -. 0.5))

let adjointness_error op coords =
  let x = random_cvec ~seed:11 (Op.image_length op) in
  let y = Sample.with_values coords (random_cvec ~seed:13 (Sample.length coords)) in
  let ax = Op.apply_forward op x in
  let aty = Op.apply_adjoint op y in
  let lhs = Cvec.dot ax.Sample.values y.Sample.values in
  let rhs = Cvec.dot x aty in
  C.norm (C.sub lhs rhs) /. Float.max (C.norm lhs) (C.norm rhs)

(* Fixed-point tolerance, derived: the engine quantizes each of the M
   sample values and each of the w^dims table weights to Q1.15, so the
   relative inner-product error scales with the quantization step times
   the per-sample fan-out. The factor 8 absorbs accumulation rounding. *)
let fixed_tol ~dims ~w =
  let q = Fp.quantization_error_bound Fp.q15 in
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  8.0 *. q *. float_of_int (pow w dims)

let adjointness_case ~dims ~n ~m name =
  let g = 2 * n in
  let coords = Sample.random ~seed:(41 + dims) ~dims ~g m in
  let ctx = Op.context ~n ~coords () in
  let op = Op.create name ctx in
  let err = adjointness_error op coords in
  let tol =
    if String.length name >= 6 && String.sub name 0 6 = "jigsaw" then
      fixed_tol ~dims ~w:6
    else 1e-10
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s %dD adjointness err=%.2e tol=%.2e" name dims err tol)
    true (err < tol)

let test_adjointness_2d () =
  List.iter (adjointness_case ~dims:2 ~n:16 ~m:128) (Op.names ~dims:2 ())

let test_adjointness_3d () =
  List.iter (adjointness_case ~dims:3 ~n:8 ~m:96) (Op.names ~dims:3 ())

(* ------------------------------------------------------------------ *)
(* Differential: Recon.roundtrip through any two CPU operators agrees to
   accumulation-order tolerance (slice is bit-identical to serial; the
   parallel / binned schedules only reorder the same additions). *)

let test_roundtrip_differential () =
  let n = 32 in
  let g = 2 * n in
  let image = Phantom.make ~n () in
  let traj = Trajectory.Radial.make ~spokes:16 ~readout:32 () in
  let density = Trajectory.Radial.density_weights traj in
  let coords = Imaging.Recon.coords_of_traj ~g traj in
  let run name =
    let op = Op.create name (Op.context ~n ~coords ()) in
    fst (rok (Imaging.Recon.roundtrip_op ~density op image))
  in
  let reference = run "serial" in
  List.iter
    (fun name ->
      let recon = run name in
      let worst = ref 0.0 in
      for i = 0 to Cvec.length recon - 1 do
        let d = C.norm (C.sub (Cvec.get recon i) (Cvec.get reference i)) in
        if d > !worst then worst := d
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s matches serial (max |diff| = %.2e)" name !worst)
        true (!worst < 1e-10))
    (List.filter (fun b -> b <> "serial") cpu_backends)

(* ------------------------------------------------------------------ *)
(* 3D reconstruction path through Imaging.Recon via the operator
   interface: acquire a smooth volume at random 3D locations, adjoint it
   back, and check the result has the right shape and is finite and
   non-trivially correlated with the input. *)

let test_recon_3d () =
  let n = 8 in
  let g = 2 * n in
  let image =
    Cvec.init (n * n * n) (fun idx ->
        let ix = idx mod n and iy = idx / n mod n and iz = idx / (n * n) in
        let d2 c = (float_of_int c -. (float_of_int n /. 2.0)) ** 2.0 in
        C.of_float (exp (-.(d2 ix +. d2 iy +. d2 iz) /. 8.0)))
  in
  let coords = Sample.random ~seed:3 ~dims:3 ~g 600 in
  let op = Op.create "slice" (Op.context ~n ~coords ()) in
  let samples = Imaging.Recon.acquire_op op image in
  Alcotest.(check int) "acquired sample count" 600 (Sample.length samples);
  let recon = rok (Imaging.Recon.reconstruct_op op samples) in
  Alcotest.(check int) "volume length" (n * n * n) (Cvec.length recon);
  for i = 0 to Cvec.length recon - 1 do
    let v = Cvec.get recon i in
    if not (Float.is_finite v.C.re && Float.is_finite v.C.im) then
      Alcotest.fail "non-finite voxel in 3D reconstruction"
  done;
  let corr = (Cvec.dot image recon).C.re in
  Alcotest.(check bool) "reconstruction correlates with input" true
    (corr > 0.0)

let test_roundtrip_3d_nrmsd () =
  let n = 8 in
  let g = 2 * n in
  let image =
    Cvec.init (n * n * n) (fun idx ->
        let ix = idx mod n and iy = idx / n mod n and iz = idx / (n * n) in
        let d2 c = (float_of_int c -. (float_of_int n /. 2.0)) ** 2.0 in
        C.of_float (exp (-.(d2 ix +. d2 iy +. d2 iz) /. 8.0)))
  in
  let coords = Sample.random ~seed:5 ~dims:3 ~g 2000 in
  let op = Op.create "serial" (Op.context ~n ~coords ()) in
  let _, err = rok (Imaging.Recon.roundtrip_op op image) in
  Alcotest.(check bool)
    (Printf.sprintf "3D roundtrip NRMSD %.3f bounded" err)
    true (Float.is_finite err && err < 2.0)

(* ------------------------------------------------------------------ *)
(* Tile validation is centralised in Coord: Plan.make and the engine
   fallbacks reject / repair the same way. *)

let test_tile_validation () =
  Alcotest.check_raises "Plan.make rejects w > t"
    (Invalid_argument "Coord: window width must not exceed tile size")
    (fun () ->
      ignore (Nufft.Plan.make ~engine:(Nufft.Gridding.Slice_and_dice 4) ~n:16 ()));
  Alcotest.check_raises "Plan.make rejects t not dividing g"
    (Invalid_argument "Coord: tile size must divide grid size")
    (fun () ->
      ignore (Nufft.Plan.make ~engine:(Nufft.Gridding.Slice_parallel 7) ~n:16 ()));
  Alcotest.(check bool) "tiling_ok accepts 8 | 32" true
    (Nufft.Coord.tiling_ok ~t:8 ~g:32 ~w:6);
  Alcotest.(check bool) "tiling_ok rejects 7 | 32" false
    (Nufft.Coord.tiling_ok ~t:7 ~g:32 ~w:6);
  Alcotest.(check int) "fallback_tile picks max w 8 when it divides" 8
    (Nufft.Coord.fallback_tile ~g:32 ~w:6);
  Alcotest.(check int) "fallback_tile degrades to one tile" 30
    (Nufft.Coord.fallback_tile ~g:30 ~w:6);
  Alcotest.(check int) "Gridding.tile_for delegates to Coord"
    (Nufft.Coord.fallback_tile ~g:40 ~w:6)
    (Nufft.Gridding.tile_for ~g:40 ~w:6)

(* ------------------------------------------------------------------ *)
(* Instrumentation: counters tick, and the jigsaw-2d cycle model is the
   paper's M + 12 per streamed adjoint. *)

let test_stats () =
  let n = 16 in
  let m = 128 in
  let coords = Sample.random_2d ~seed:9 ~g:(2 * n) m in
  let ctx = Op.context ~n ~coords () in
  let op = Op.create "jigsaw-2d" ctx in
  ignore (Op.apply_adjoint op coords);
  ignore (Op.apply_adjoint op coords);
  ignore (Op.apply_forward op (random_cvec ~seed:1 (n * n)));
  let st = Op.stats_of op in
  Alcotest.(check int) "adjoints counted" 2 st.Op.adjoints;
  Alcotest.(check int) "forwards counted" 1 st.Op.forwards;
  Alcotest.(check int) "cycles = 2 * (M + 12)" (2 * (m + 12)) st.Op.cycles;
  Alcotest.(check bool) "adjoint wall-clock recorded" true
    (st.Op.adjoint_s > 0.0);
  let cpu = Op.create "serial" ctx in
  ignore (Op.apply_adjoint cpu coords);
  let cst = Op.stats_of cpu in
  Alcotest.(check int) "CPU backends report no cycles" 0 cst.Op.cycles;
  Alcotest.(check bool) "stage timings recorded" true
    (cst.Op.stages.Nufft.Plan.gridding_s > 0.0
    && cst.Op.adjoint_s >= cst.Op.stages.Nufft.Plan.gridding_s);
  (* The hardware models reach FFT and de-apodization through the plan's
     stage function: all three stages are timed, inside the adjoint. *)
  let coords3 = Sample.random_3d ~seed:9 ~g:(2 * n) m in
  List.iter
    (fun (backend, coords) ->
      let op = Op.create backend (Op.context ~n ~coords ()) in
      ignore (Op.apply_adjoint op coords);
      let st = Op.stats_of op in
      let t = st.Op.stages in
      Alcotest.(check bool)
        (backend ^ ": gridding, fft and deapod timed")
        true
        (t.Nufft.Plan.gridding_s > 0.0
        && t.Nufft.Plan.fft_s > 0.0
        && t.Nufft.Plan.deapod_s > 0.0);
      Alcotest.(check bool)
        (backend ^ ": stage sum <= adjoint_s")
        true
        (t.Nufft.Plan.gridding_s +. t.Nufft.Plan.fft_s +. t.Nufft.Plan.deapod_s
        <= st.Op.adjoint_s))
    [ ("jigsaw-2d", coords); ("jigsaw-3d", coords3); ("gpusim-slice", coords) ]

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Normal map: Op.normal is A^H W A within the accuracy contract, and its
   Toeplitz state belongs to the operator instance. *)

let rec ipow b e = if e = 0 then 1 else b * ipow b (e - 1)

let random_omega rng ~dims m =
  Array.init dims (fun _ ->
      Array.init m (fun _ ->
          Random.State.float rng (2.0 *. Float.pi) -. Float.pi))

(* A^H W A x through the exact NuDFT pair. *)
let exact_normal ~n ~omega ?weights x =
  let f, adj =
    match omega with
    | [| omega_x; omega_y |] ->
        ( Nufft.Nudft.forward_2d ~n ~omega_x ~omega_y ~image:x,
          fun values -> Nufft.Nudft.adjoint_2d ~n ~omega_x ~omega_y ~values )
    | [| omega_x; omega_y; omega_z |] ->
        ( Nufft.Nudft.forward_3d ~n ~omega_x ~omega_y ~omega_z ~image:x,
          fun values ->
            Nufft.Nudft.adjoint_3d ~n ~omega_x ~omega_y ~omega_z ~values )
    | _ -> invalid_arg "exact_normal"
  in
  match weights with
  | None -> adj f
  | Some w ->
      adj (Cvec.init (Cvec.length f) (fun j -> C.scale w.(j) (Cvec.get f j)))

(* [bound] defaults to the contract at the default sigma = 2. *)
let normal_contract_case ~dims ~n ~m ?(sigma = 2.0) ?tol ?bound ~weighted () =
  let rng = Random.State.make [| dims; n; m |] in
  let omega = random_omega rng ~dims m in
  let g = int_of_float (Float.round (sigma *. float_of_int n)) in
  let coords = Sample.of_omega ~g ~omega ~values:(Cvec.create m) in
  let op = Op.create "serial" (Op.context ?tol ~sigma ~n ~coords ()) in
  let weights =
    if weighted then Some (Array.init m (fun _ -> Random.State.float rng 2.0))
    else None
  in
  let x = random_cvec ~seed:(17 + n) (ipow n dims) in
  let err =
    Cvec.nrmsd ~reference:(exact_normal ~n ~omega ?weights x)
      (Op.normal ?weights op x)
  in
  let bound =
    match bound with
    | Some b -> b
    | None ->
        Imaging.Accuracy.contract_slack
        *. Imaging.Accuracy.backend_rel_l2_err ?tol "serial"
  in
  Alcotest.(check bool)
    (Printf.sprintf "%dD n=%d tol=%s weighted=%b: err %.2e <= %.2e" dims n
       (match tol with Some t -> Printf.sprintf "%g" t | None -> "default")
       weighted err bound)
    true (err <= bound)

let test_normal_contract () =
  List.iter
    (fun tol ->
      List.iter
        (fun weighted ->
          normal_contract_case ~dims:2 ~n:16 ~m:256 ?tol ~weighted ();
          normal_contract_case ~dims:3 ~n:8 ~m:200 ?tol ~weighted ())
        [ false; true ])
    [ None; Some 1e-3; Some 1e-6 ];
  (* An odd image size: the two corner offsets are no longer conjugate. *)
  normal_contract_case ~dims:2 ~n:15 ~m:256 ~weighted:true ();
  (* The circulant stays 2n when the plan's grid is not: sigma = 1.5,
     held to the tolerance-driven plan contract (10x the request). *)
  normal_contract_case ~dims:2 ~n:16 ~m:256 ~sigma:1.5 ~tol:1e-4
    ~bound:(Imaging.Accuracy.contract_slack *. 1e-4) ~weighted:true ()

(* [A^H W y] through the exact NuDFT adjoint. *)
let exact_rhs ~n ~omega ?weights y =
  let values = (Sample.weighted ?weights y).Sample.values in
  match omega with
  | [| omega_x; omega_y |] -> Nufft.Nudft.adjoint_2d ~n ~omega_x ~omega_y ~values
  | [| omega_x; omega_y; omega_z |] ->
      Nufft.Nudft.adjoint_3d ~n ~omega_x ~omega_y ~omega_z ~values
  | _ -> invalid_arg "exact_rhs"

(* CG-8 (the served iteration count) and CG-16 through [Cg.solve_normal]
   stay within the contract of the same CG run end to end on the exact
   NuDFT (exact right-hand side, exact normal operator): on well-posed
   acquisitions (radial with and without density compensation, spiral)
   and on rank-deficient random sets (2D n = 16 with 256 samples, 3D
   n = 8 with 200), where CG on the Toeplitz map alone drifts (1e-2 to
   3e-2 at CG-16) and the solve runs on the gridding composition, as it
   does past 8 iterations or below four samples per unknown; the dense
   spiral's CG-8 (7.1 samples per unknown) runs on the Toeplitz map. *)
let test_normal_cg_tracks_exact () =
  let bound =
    Imaging.Accuracy.contract_slack
    *. Imaging.Accuracy.backend_rel_l2_err "serial"
  in
  let check name ~n ~omega ?weights y =
    let coords = Sample.of_omega ~g:(2 * n) ~omega ~values:y in
    let op = Op.create "serial" (Op.context ~n ~coords ()) in
    let b = Imaging.Cg.normal_equations_rhs_op ?weights op coords in
    let b_exact = exact_rhs ~n ~omega ?weights coords in
    List.iter
      (fun iters ->
        let exact =
          (Imaging.Cg.solve ~max_iterations:iters ~tolerance:0.0
             ~apply:(exact_normal ~n ~omega ?weights) b_exact)
            .Imaging.Cg.solution
        in
        let got =
          (Imaging.Cg.solve_normal ~max_iterations:iters ~tolerance:0.0
             ?weights op b)
            .Imaging.Cg.solution
        in
        let err = Cvec.nrmsd ~reference:exact got in
        Alcotest.(check bool)
          (Printf.sprintf "%s: CG-%d vs exact %.2e <= %.2e" name iters err
             bound)
          true (err <= bound))
      [ 8; 16 ]
  in
  let n = 24 in
  let image = Imaging.Phantom.make ~n () in
  List.iter
    (fun (name, traj, density) ->
      let omega_x = traj.Trajectory.Traj.omega_x
      and omega_y = traj.Trajectory.Traj.omega_y in
      let y = Nufft.Nudft.forward_2d ~n ~omega_x ~omega_y ~image in
      let weights =
        if density then Some (Trajectory.Radial.density_weights traj)
        else None
      in
      check name ~n ~omega:[| omega_x; omega_y |] ?weights y)
    [ ( "radial, density-compensated",
        Trajectory.Radial.make
          ~spokes:(Trajectory.Radial.fully_sampled_spokes ~n)
          ~readout:(2 * n) (),
        true );
      ( "radial",
        Trajectory.Radial.make
          ~spokes:(Trajectory.Radial.fully_sampled_spokes ~n)
          ~readout:(2 * n) (),
        false );
      ( "radial, 16 spokes, density-compensated",
        Trajectory.Radial.make ~spokes:16 ~readout:(2 * n) (),
        true );
      ( "spiral",
        Trajectory.Spiral.make ~interleaves:4 ~samples_per_interleave:512 (),
        false );
      ( "dense spiral",
        Trajectory.Spiral.make ~interleaves:8 ~samples_per_interleave:512 (),
        false ) ];
  List.iter
    (fun (dims, n, m, weighted) ->
      let rng = Random.State.make [| dims; n; m |] in
      let omega = random_omega rng ~dims m in
      let weights =
        if weighted then Some (Array.init m (fun _ -> Random.State.float rng 2.0))
        else None
      in
      check
        (Printf.sprintf "random %dD n=%d m=%d%s" dims n m
           (if weighted then ", weighted" else ""))
        ~n ~omega ?weights
        (random_cvec ~seed:(29 + m) m))
    [ (2, 16, 256, false); (2, 16, 256, true); (3, 8, 200, false) ]

let fresh_operator ?(n = 24) ?(m = 900) () =
  let coords = Sample.random_2d ~seed:5 ~g:(2 * n) m in
  let op = Op.create "serial" (Op.context ~n ~coords ()) in
  let weights = Array.init m (fun j -> 0.5 +. float_of_int (j mod 5)) in
  (op, weights, random_cvec ~seed:23 (n * n))

let check_bits name a b =
  Alcotest.(check int) (name ^ " length") (Cvec.length a) (Cvec.length b);
  for k = 0 to Cvec.length a - 1 do
    let bits v f = Int64.bits_of_float (f v k) in
    if
      bits a Cvec.get_re <> bits b Cvec.get_re
      || bits a Cvec.get_im <> bits b Cvec.get_im
    then Alcotest.failf "%s: differs at %d" name k
  done

(* Two domains race to build the spectrum of a cold operator: whichever
   publishes first, both results and every later (warm) result carry the
   same bits. *)
let test_normal_domains () =
  let op, weights, x = fresh_operator () in
  let run () = Domain.spawn (fun () -> Op.normal ~weights op x) in
  let d1 = run () and d2 = run () in
  let a = Domain.join d1 and b = Domain.join d2 in
  check_bits "domain 1 = domain 2" a b;
  check_bits "cold = warm" a (Op.normal ~weights op x)

(* No process-wide table holds a spectrum: it lives and dies with the
   operator. *)
let spectrum_of_dropped_operator weak =
  let op, weights, x = fresh_operator () in
  let t = Option.get (Op.normal_of op) in
  Alcotest.(check bool) "nothing built before the first call" true
    (Nufft.Toeplitz.spectrum t = None && Nufft.Toeplitz.bytes t = 0);
  ignore (Op.normal ~weights op x);
  Alcotest.(check bool) "bytes counted once built" true
    (Nufft.Toeplitz.bytes t > 0);
  Weak.set weak 0 (Nufft.Toeplitz.spectrum t)

let test_normal_spectrum_collected () =
  let weak = Weak.create 1 in
  (Sys.opaque_identity spectrum_of_dropped_operator) weak;
  Gc.full_major ();
  Alcotest.(check bool) "spectrum collected with its operator" false
    (Weak.check weak 0)

(* The spectrum is keyed on the weights: new contents rebuild it, the
   same contents in a fresh array do not, and the hardware models (no
   Toeplitz state) keep the gridding composition. *)
let test_normal_weights_key () =
  let op, weights, x = fresh_operator () in
  let t = Option.get (Op.normal_of op) in
  let y = Op.normal ~weights op x in
  let s1 = Option.get (Nufft.Toeplitz.spectrum t) in
  check_bits "equal contents reuse the spectrum" y
    (Op.normal ~weights:(Array.copy weights) op x);
  Alcotest.(check bool) "no rebuild for equal contents" true
    (Option.get (Nufft.Toeplitz.spectrum t) == s1);
  ignore (Op.normal op x);
  Alcotest.(check bool) "unweighted rebuilds" true
    (Option.get (Nufft.Toeplitz.spectrum t) != s1);
  Alcotest.check_raises "weights length checked"
    (Invalid_argument "Operator.normal: weights length mismatch") (fun () ->
      ignore (Op.normal ~weights:[| 1.0 |] op x));
  let coords = Sample.random_2d ~seed:5 ~g:32 300 in
  let hw = Op.create "gpusim-slice" (Op.context ~n:16 ~coords ()) in
  Alcotest.(check bool) "hardware models carry no Toeplitz state" true
    (Op.normal_of hw = None);
  let w = Array.make 300 2.0 and z = random_cvec ~seed:3 256 in
  check_bits "hardware normal = adjoint (W forward)"
    (Op.apply_adjoint hw (Sample.weighted ~weights:w (Op.apply_forward hw z)))
    (Op.normal ~weights:w hw z)

let () =
  Alcotest.run "operator"
    [ ( "registry",
        [ Alcotest.test_case "names and dims" `Quick test_registry_names;
          Alcotest.test_case "errors" `Quick test_registry_errors ] );
      ( "adjointness",
        [ Alcotest.test_case "2d all backends" `Quick test_adjointness_2d;
          Alcotest.test_case "3d all backends" `Quick test_adjointness_3d ] );
      ( "differential",
        [ Alcotest.test_case "cpu roundtrip agreement" `Quick
            test_roundtrip_differential ] );
      ( "recon-3d",
        [ Alcotest.test_case "acquire + reconstruct" `Quick test_recon_3d;
          Alcotest.test_case "roundtrip nrmsd" `Quick test_roundtrip_3d_nrmsd ]
      );
      ( "validation",
        [ Alcotest.test_case "tile rules centralised" `Quick
            test_tile_validation ] );
      ( "stats",
        [ Alcotest.test_case "counters and cycles" `Quick test_stats ] );
      ( "normal",
        [ Alcotest.test_case "exact NuDFT contract" `Quick test_normal_contract;
          Alcotest.test_case "cold build across domains" `Quick
            test_normal_domains;
          Alcotest.test_case "spectrum collected with its operator" `Quick
            test_normal_spectrum_collected;
          Alcotest.test_case "keyed on the weights" `Quick
            test_normal_weights_key;
          Alcotest.test_case "cg-8 tracks the exact operator" `Quick
            test_normal_cg_tracks_exact ] ) ]
