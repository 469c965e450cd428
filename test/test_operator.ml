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
        [ Alcotest.test_case "counters and cycles" `Quick test_stats ] ) ]
