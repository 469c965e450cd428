(* Hot-path guarantees added with the allocation-free engines and compiled
   sample plans: replay is bit-identical to the live engines, the no-stats
   gridding paths allocate O(1) minor words per call (not per sample), the
   int-encoded column check agrees with the option-returning one, and a CG
   solve through an operator pays the slice-and-dice decomposition exactly
   once. *)

module Cvec = Numerics.Cvec
module Wt = Numerics.Weight_table
module Coord = Nufft.Coord
module Sample = Nufft.Sample
module Gridding = Nufft.Gridding
module Plan = Nufft.Plan
module Op = Nufft.Operator

let w = 6
let l = 512

let table () =
  Wt.make
    ~kernel:(Numerics.Window.default_kaiser_bessel ~width:w ~sigma:2.0)
    ~width:w ~l ()

let check_bitwise name a b =
  Alcotest.(check int)
    (name ^ " length") (Cvec.length a) (Cvec.length b);
  for k = 0 to Cvec.length a - 1 do
    if
      Cvec.unsafe_get_re a k <> Cvec.unsafe_get_re b k
      || Cvec.unsafe_get_im a k <> Cvec.unsafe_get_im b k
    then
      Alcotest.failf "%s: differs at %d: (%g,%g) vs (%g,%g)" name k
        (Cvec.unsafe_get_re a k) (Cvec.unsafe_get_im a k)
        (Cvec.unsafe_get_re b k) (Cvec.unsafe_get_im b k)
  done

(* --- compiled replay is bit-identical to the live pipeline ------------- *)

(* Every replay implementation — the OCaml loops (dispatch off), the
   scalar C kernels and the widest vector kernels the host runs — must
   reproduce the direct serial engine bit for bit. *)
let impls = List.sort_uniq compare [ Simd.Off; Simd.Scalar; Simd.available ]

let under_each_impl f =
  List.iter
    (fun impl -> Simd.with_impl impl (fun () -> f (Simd.impl_name impl)))
    impls

(* The compiled decomposition is engine-independent (one canonical window
   enumeration), so the replayed adjoint must be bitwise the serial-engine
   adjoint whatever engine the plan was created with. *)
let test_replay_bitwise_2d () =
  let n = 16 in
  let g = 2 * n in
  let m = 300 in
  let s = Qutil.seam_samples ~seed:31 ~dims:2 ~g m in
  under_each_impl (fun impl ->
      let reference = Plan.adjoint (Plan.make ~n ()) s in
      List.iter
        (fun (name, engine) ->
          let plan = Plan.make ~engine ~n () in
          check_bitwise
            (Printf.sprintf "%s: 2d replay (%s plan) = serial adjoint" impl
               name)
            reference
            (Plan.adjoint_compiled plan s))
        [ ("serial", Gridding.Serial);
          ("output-parallel", Gridding.Output_parallel);
          ("binned", Gridding.Binned 8);
          ("slice", Gridding.Slice_and_dice 8);
          ("slice-parallel", Gridding.Slice_parallel 8) ])

let test_replay_bitwise_3d () =
  let n = 8 in
  let g = 2 * n in
  let m = 150 in
  let s = Qutil.seam_samples ~seed:77 ~dims:3 ~g m in
  under_each_impl (fun impl ->
      let plan = Plan.make ~n () in
      check_bitwise (impl ^ ": 3d replay = adjoint") (Plan.adjoint plan s)
        (Plan.adjoint_compiled plan s);
      let image =
        Cvec.init (n * n * n) (fun k ->
            Numerics.Complexd.make (cos (float_of_int k)) (sin (float_of_int k)))
      in
      check_bitwise (impl ^ ": 3d forward replay = forward")
        (Plan.forward plan ~coords:s image)
        (Plan.forward_compiled plan ~coords:s image))

let test_replay_bitwise_pool () =
  let n = 16 in
  let g = 2 * n in
  let m = 250 in
  let s = Sample.random_2d ~seed:5 ~g m in
  let serial = Plan.adjoint_compiled (Plan.make ~n ()) s in
  let pool = Runtime.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.shutdown pool)
    (fun () ->
      let plan = Plan.make ~engine:(Gridding.Slice_parallel 8) ~pool ~n () in
      check_bitwise "pooled replay = serial replay" serial
        (Plan.adjoint_compiled plan s))

let test_replay_forward_bitwise () =
  let n = 16 in
  let g = 2 * n in
  let m = 300 in
  let s = Qutil.seam_samples ~seed:13 ~dims:2 ~g m in
  let image =
    Cvec.init (n * n) (fun k ->
        Numerics.Complexd.make (sin (float_of_int k)) (cos (float_of_int k)))
  in
  under_each_impl (fun impl ->
      let plan = Plan.make ~engine:(Gridding.Slice_and_dice 8) ~n () in
      check_bitwise (impl ^ ": forward replay = forward")
        (Plan.forward plan ~coords:s image)
        (Plan.forward_compiled plan ~coords:s image))

(* --- allocation ceilings ---------------------------------------------- *)

(* O(1) words per call: the bound must hold however large [m] is. A boxed
   hot loop costs O(m * w^d) words (hundreds of thousands here); the
   ceiling only has to absorb the output vector's header and the
   measurement's own boxing. *)
let alloc_ceiling = 512.0

let minor_words_of f =
  ignore (f ());
  (* warm caches (FFT twiddles, ...) *)
  let w0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. w0

let test_alloc_grid_1d () =
  let g = 512 and m = 20000 in
  let tbl = table () in
  let coords = Array.init m (fun j -> float_of_int (j mod g) +. 0.37) in
  let values = Cvec.init m (fun _ -> Numerics.Complexd.make 1.0 0.5) in
  let words =
    minor_words_of (fun () ->
        Nufft.Gridding_serial.grid_1d ~table:tbl ~g ~coords values)
  in
  Alcotest.(check bool)
    (Printf.sprintf "grid_1d minor words per call (%g) <= %g" words
       alloc_ceiling)
    true (words <= alloc_ceiling)

let test_alloc_grid_2d () =
  let g = 128 and m = 10000 in
  let tbl = table () in
  let s = Sample.random_2d ~seed:3 ~g m in
  let gx = Sample.gx s and gy = Sample.gy s in
  let values = s.Sample.values in
  List.iter
    (fun (name, f) ->
      let words = minor_words_of f in
      Alcotest.(check bool)
        (Printf.sprintf "%s minor words per call (%g) <= %g" name words
           alloc_ceiling)
        true (words <= alloc_ceiling))
    [ ( "serial grid_2d",
        fun () ->
          Nufft.Gridding_serial.grid_2d ~table:tbl ~g ~gx ~gy values );
      ( "slice grid_2d_fast",
        fun () ->
          Nufft.Gridding_slice.grid_2d_fast ~table:tbl ~g ~t:8 ~gx ~gy values
      );
      ( "slice grid_2d",
        fun () ->
          Nufft.Gridding_slice.grid_2d ~table:tbl ~g ~t:8 ~gx ~gy values ) ]

let test_alloc_fft () =
  let n = 1024 in
  let v =
    Cvec.init n (fun k -> Numerics.Complexd.make (float_of_int k) 0.25)
  in
  let words = minor_words_of (fun () -> Fft.Fft1d.transform Fft.Dft.Forward v) in
  Alcotest.(check bool)
    (Printf.sprintf "fft n=%d minor words per call (%g) <= %g" n words
       alloc_ceiling)
    true (words <= alloc_ceiling)

(* Least minor words over a few warm calls: a GC cycle can land inside
   any single measurement. *)
let least_of runs measure f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to runs do
    best := Float.min !best (measure f)
  done;
  !best

let bytes_of f =
  let b0 = Gc.allocated_bytes () in
  ignore (f ());
  Gc.allocated_bytes () -. b0

let words_of f =
  let w0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. w0

(* A warm forward + adjoint pair allocates its two results (bigarray
   headers, the sample record) and a constant number of small values —
   not a grid, a line buffer or anything per sample: the plan's grid
   slot and the FFT's staging buffers are reused. The same grid must
   sit in the slot before and after. *)
let test_alloc_operator_pair () =
  List.iter
    (fun (n, m) ->
      let g = 2 * n in
      let plan = Plan.make ~n () in
      let coords = Sample.random_2d ~seed:11 ~g m in
      let op = Op.of_plan plan ~coords in
      let image =
        Cvec.init (n * n) (fun k ->
            Numerics.Complexd.make (float_of_int k) 0.5)
      in
      let pair () = Op.apply_adjoint op (Op.apply_forward op image) in
      let bytes = least_of 5 bytes_of pair in
      let ceiling = 1024.0 in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d m=%d pair allocates %g bytes <= %g" n m bytes
           ceiling)
        true (bytes <= ceiling);
      let held = Atomic.get plan.Plan.slot in
      Alcotest.(check int) "slot holds a g^2 grid" (g * g) (Cvec.length held);
      ignore (pair ());
      Alcotest.(check bool) "the pair reuses the slot grid" true
        (Atomic.get plan.Plan.slot == held))
    [ (16, 300); (32, 4000) ]

(* Density weighting in the normal equations: the right-hand side's
   weighted samples are the same w*re, w*im products as
   [Complexd.scale], bit for bit, without a complex record per sample.
   The weighted normal map itself runs through the operator's Toeplitz
   embedding and must stay O(1) words per warm call. *)
let test_weighted_normal_map () =
  let n = 16 and m = 10000 in
  let g = 2 * n in
  let plan = Plan.make ~n () in
  let coords = Sample.random_2d ~seed:21 ~g m in
  let op = Op.of_plan plan ~coords in
  let weights = Array.init m (fun j -> 0.25 +. (float_of_int (j mod 7) /. 3.0)) in
  let x =
    Cvec.init (n * n) (fun k ->
        Numerics.Complexd.make (sin (float_of_int k)) (cos (float_of_int k)))
  in
  let s = Op.apply_forward op x in
  let scaled =
    Cvec.init m (fun j ->
        Numerics.Complexd.scale weights.(j) (Cvec.get s.Sample.values j))
  in
  check_bitwise "weighted rhs = C.scale formula"
    (Op.apply_adjoint op (Sample.with_values s scaled))
    (Imaging.Cg.normal_equations_rhs_op ~weights op s);
  let words = least_of 3 words_of (fun () -> Imaging.Cg.normal_map ~weights op x) in
  Alcotest.(check bool)
    (Printf.sprintf "weighted normal map minor words (%g) <= %g" words
       alloc_ceiling)
    true (words <= alloc_ceiling)

(* --- packed column check ---------------------------------------------- *)

let prop_packed_column_check =
  QCheck.Test.make ~name:"column_check_packed agrees with column_check"
    ~count:500
    QCheck.(
      quad (int_range 0 7) (int_range 0 63) small_int (float_bound_exclusive 1.0))
    (fun (column, ui, uf_scale, uf) ->
      let g = 64 and t = 8 in
      let u = float_of_int (ui mod g) +. (uf *. float_of_int (1 + (uf_scale mod 1))) in
      let packed = Coord.column_check_packed ~w ~t ~g ~l ~column u in
      match Coord.column_check ~w ~t ~g ~column u with
      | None -> packed = Coord.packed_miss
      | Some hit ->
          packed >= 0
          && Coord.packed_tile packed = hit.Coord.tile
          && Coord.packed_addr packed
             = int_of_float
                 (Float.round (Float.abs hit.Coord.dist *. float_of_int l)))

(* --- decomposition paid exactly once across a CG solve ----------------- *)

let test_cg_decomposition_once () =
  let n = 32 in
  let g = 2 * n in
  let m = 1200 in
  let t = 8 in
  let plan = Plan.make ~engine:(Gridding.Slice_and_dice t) ~n () in
  let coords = Sample.random_2d ~seed:11 ~g m in
  let op = Op.of_plan plan ~coords in
  let image =
    Cvec.init (n * n) (fun k ->
        Numerics.Complexd.of_float (exp (-.float_of_int (k mod n) /. 8.0)))
  in
  let data = Op.apply_forward op image in
  let iterations = 6 in
  let b = Imaging.Cg.normal_equations_rhs_op op data in
  (* The explicit gridding composition, whose decomposition cost this
     test measures ([Cg.normal_map] runs the Toeplitz embedding). *)
  let gridding x = Op.apply_adjoint op (Op.apply_forward op x) in
  let result =
    Imaging.Cg.solve ~max_iterations:iterations ~tolerance:0.0 ~apply:gridding
      b
  in
  ignore result.Imaging.Cg.solution;
  let st = Op.stats_of op in
  (* The solve really did apply the operator many times... *)
  Alcotest.(check bool) "several adjoints" true (st.Op.adjoints >= iterations);
  Alcotest.(check bool) "several forwards" true (st.Op.forwards >= iterations);
  (* ... yet the slice-and-dice decomposition was charged exactly once:
     the select stage's t^2 checks per sample and the 2mw window
     evaluations (one table lookup per axis per window point) of a single
     factored compilation, not once per application. *)
  Alcotest.(check int) "boundary checks = one decomposition" (t * t * m)
    st.Op.grid.Nufft.Gridding_stats.boundary_checks;
  Alcotest.(check int) "window evals = one compilation"
    (2 * m * w)
    st.Op.grid.Nufft.Gridding_stats.window_evals;
  (* Replay is still charged per application. *)
  Alcotest.(check bool) "replay charged per application" true
    (st.Op.grid.Nufft.Gridding_stats.samples_processed
    >= (st.Op.adjoints + st.Op.forwards) * m)

let () =
  Alcotest.run "hotpath"
    [ ( "replay-bitwise",
        [ Alcotest.test_case "2d, all engines" `Quick test_replay_bitwise_2d;
          Alcotest.test_case "3d" `Quick test_replay_bitwise_3d;
          Alcotest.test_case "under a pool" `Quick test_replay_bitwise_pool;
          Alcotest.test_case "forward" `Quick test_replay_forward_bitwise ] );
      ( "allocation",
        [ Alcotest.test_case "grid_1d O(1) words per call" `Quick
            test_alloc_grid_1d;
          Alcotest.test_case "grid_2d O(1) words per call" `Quick
            test_alloc_grid_2d;
          Alcotest.test_case "fft O(1) words per call" `Quick test_alloc_fft;
          Alcotest.test_case "operator forward+adjoint pair" `Quick
            test_alloc_operator_pair;
          Alcotest.test_case "weighted normal map" `Quick
            test_weighted_normal_map ]
      );
      ( "packed-check",
        [ Qutil.to_alcotest prop_packed_column_check ] );
      ( "cg-amortization",
        [ Alcotest.test_case "decomposition once per plan" `Quick
            test_cg_decomposition_once ] ) ]
