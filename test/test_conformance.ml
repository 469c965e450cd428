(* Metamorphic conformance suite: algebraic identities every NuFFT
   backend must satisfy, checked property-based over random coordinate
   sets for every registry entry in 2D and 3D.

   - linearity      A(a x + b y) = a A x + b A y (forward and adjoint)
   - adjointness    <A x, y> = <x, A^H y> (Hermitian inner product)
   - phase ramp     evaluating at coordinates shifted by a constant
                    delta equals evaluating the image modulated by the
                    conjugate phase ramp: with the forward convention
                    s(u) = sum_c x_c e^{-2 pi i u.c / g} (centred pixel
                    index c), s(u + delta) = forward(x .* ramp) where
                    ramp_c = e^{-2 pi i delta c_x / g}.

   The CPU and gpusim backends compute in floating point, where the
   identities hold to accumulation order (linearity, adjointness) or to
   the window's approximation error (phase ramp — both sides approximate
   the same trigonometric polynomial through different coordinate sets).
   The jigsaw backends quantize sample values and weights to Q1.15 on
   the adjoint path, which is *not* exactly linear, so their tolerance
   is the quantization step scaled by the per-sample fan-out w^dims
   (same derivation as test_operator.fixed_tol). The shift delta is kept
   dyadic (0.5) so the hardware coordinate snapping commutes with it. *)

module Op = Nufft.Operator
module Sample = Nufft.Sample
module Cvec = Numerics.Cvec
module C = Numerics.Complexd
module Fp = Numerics.Fixed_point

let () =
  Jigsaw.Operator_backend.register ();
  Gpusim.Operator_backend.register ()

let is_jigsaw name = String.length name >= 6 && String.sub name 0 6 = "jigsaw"

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

let fixed_tol ~dims ~w = 8.0 *. Fp.quantization_error_bound Fp.q15
                         *. float_of_int (pow w dims)

let random_cvec ~seed ?(scale = 0.5) len =
  let rng = Random.State.make [| seed |] in
  Cvec.init len (fun _ ->
      C.make
        (scale *. (Random.State.float rng 2.0 -. 1.0))
        (scale *. (Random.State.float rng 2.0 -. 1.0)))

(* || a - b || / max(||a||, ||b||); 0 when both are ~0. *)
let rel_err a b =
  let n = Cvec.length a in
  assert (Cvec.length b = n);
  let d2 = ref 0.0 and a2 = ref 0.0 and b2 = ref 0.0 in
  for i = 0 to n - 1 do
    let da = Cvec.get a i and db = Cvec.get b i in
    let d = C.sub da db in
    d2 := !d2 +. (C.norm d ** 2.0);
    a2 := !a2 +. (C.norm da ** 2.0);
    b2 := !b2 +. (C.norm db ** 2.0)
  done;
  let denom = Float.max (sqrt !a2) (sqrt !b2) in
  if denom <= 1e-300 then 0.0 else sqrt !d2 /. denom

let geometry = function 2 -> (12, 72) | _ -> (8, 48)

(* Plan-geometry modes the whole suite runs under: the default explicit
   geometry (Kaiser-Bessel, w = 6, l = 512) and a tolerance-driven ES
   plan (tol = 1e-4 derives w = 6, l = 8192 — the same width, so the
   fixed-point tolerance derivation applies unchanged). Every registered
   backend must satisfy the identities under both. *)
type mode = Default | Es_tol

let mode_name = function Default -> "" | Es_tol -> " [es tol=1e-4]"
let all_modes = [ Default; Es_tol ]

(* Names a client may send besides the registry's: a retired registry
   name that {!Op.resolve_backend} maps onto an entry. The identities
   must hold through that mapping too. *)
let retired_names = [ "replay-simd" ]

let mk_op mode name ~n coords =
  let name = Op.resolve_backend name in
  match mode with
  | Default -> Op.create name (Op.context ~n ~coords ())
  | Es_tol ->
      Op.create name
        (Op.context ~tol:1e-4 ~family:Numerics.Window.ES ~n ~coords ())

let lincomb a x b y =
  let len = Cvec.length x in
  Cvec.init len (fun i ->
      C.add (C.scale a (Cvec.get x i)) (C.scale b (Cvec.get y i)))

(* ------------------------------------------------------------------ *)
(* Linearity. The forward path is pure floating point for every backend
   (jigsaw interpolates through its software plan), so it must be linear
   to rounding; the adjoint tolerance widens to the quantization bound
   for the fixed-point engines. *)

let prop_linearity mode name dims =
  let n, m = geometry dims in
  let g = 2 * n in
  QCheck.Test.make
    ~name:(Printf.sprintf "linearity: %s %dD%s" name dims (mode_name mode))
    ~count:5
    QCheck.(
      triple (int_range 0 100_000)
        (float_range (-1.0) 1.0)
        (float_range (-1.0) 1.0))
    (fun (seed, a, b) ->
      let coords = Sample.random ~seed ~dims ~g m in
      let op = mk_op mode name ~n coords in
      let len = Op.image_length op in
      (* forward *)
      let x = random_cvec ~seed:(seed + 1) len
      and y = random_cvec ~seed:(seed + 2) len in
      let lhs_f =
        (Op.apply_forward op (lincomb a x b y)).Sample.values
      in
      let fx = (Op.apply_forward op x).Sample.values in
      let fy = (Op.apply_forward op y).Sample.values in
      let e_fwd = rel_err lhs_f (lincomb a fx b fy) in
      (* adjoint *)
      let u = random_cvec ~seed:(seed + 3) m
      and v = random_cvec ~seed:(seed + 4) m in
      let adj vals = Op.apply_adjoint op (Sample.with_values coords vals) in
      let lhs_a = adj (lincomb a u b v) in
      let e_adj = rel_err lhs_a (lincomb a (adj u) b (adj v)) in
      let tol_adj = if is_jigsaw name then fixed_tol ~dims ~w:6 else 1e-9 in
      if e_fwd >= 1e-9 then
        QCheck.Test.fail_reportf "forward nonlinear: err %.3e" e_fwd
      else if e_adj >= tol_adj then
        QCheck.Test.fail_reportf "adjoint nonlinear: err %.3e tol %.3e"
          e_adj tol_adj
      else true)

(* ------------------------------------------------------------------ *)
(* Adjoint dot-test. *)

let prop_adjointness mode name dims =
  let n, m = geometry dims in
  let g = 2 * n in
  QCheck.Test.make
    ~name:(Printf.sprintf "adjointness: %s %dD%s" name dims (mode_name mode))
    ~count:5
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let coords = Sample.random ~seed ~dims ~g m in
      let op = mk_op mode name ~n coords in
      let x = random_cvec ~seed:(seed + 5) (Op.image_length op) in
      let y = Sample.with_values coords (random_cvec ~seed:(seed + 6) m) in
      let ax = Op.apply_forward op x in
      let aty = Op.apply_adjoint op y in
      let lhs = Cvec.dot ax.Sample.values y.Sample.values in
      let rhs = Cvec.dot x aty in
      let err =
        C.norm (C.sub lhs rhs) /. Float.max (C.norm lhs) (C.norm rhs)
      in
      let tol = if is_jigsaw name then fixed_tol ~dims ~w:6 else 1e-10 in
      if err >= tol then
        QCheck.Test.fail_reportf "dot-test err %.3e tol %.3e" err tol
      else true)

(* ------------------------------------------------------------------ *)
(* Phase-ramp shift equivalence. Both sides approximate the same
   trigonometric polynomial through the NuFFT at different coordinate
   sets, so the tolerance is the window approximation error, not machine
   epsilon; the jigsaw backends interpolate from a coarser hardware
   table (L <= 64), which widens it further. *)

let shift_coords ~g ~delta (s : Sample.t) =
  let coords =
    Array.mapi
      (fun axis c ->
        if axis = 0 then
          Array.map
            (fun u ->
              let u' = u +. delta in
              if u' >= float_of_int g then u' -. float_of_int g else u')
            c
        else Array.copy c)
      s.Sample.coords
  in
  Sample.make ~g ~coords ~values:s.Sample.values

let ramp_image ~dims ~n ~g ~delta x =
  let len = Cvec.length x in
  Cvec.init len (fun idx ->
      let ix = idx mod n in
      ignore dims;
      let cx = float_of_int (ix - (n / 2)) in
      let theta = -2.0 *. Float.pi *. delta *. cx /. float_of_int g in
      C.mul (Cvec.get x idx) (C.exp_i theta))

let prop_phase_ramp mode name dims =
  let n, m = geometry dims in
  let g = 2 * n in
  let delta = 0.5 in
  QCheck.Test.make
    ~name:(Printf.sprintf "phase-ramp shift: %s %dD%s" name dims
             (mode_name mode))
    ~count:5
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let coords = Sample.random ~seed ~dims ~g m in
      let op = mk_op mode name ~n coords in
      let op_shifted = mk_op mode name ~n (shift_coords ~g ~delta coords) in
      let x = random_cvec ~seed:(seed + 7) (Op.image_length op) in
      let lhs = (Op.apply_forward op_shifted x).Sample.values in
      let rhs =
        (Op.apply_forward op (ramp_image ~dims ~n ~g ~delta x)).Sample.values
      in
      let err = rel_err lhs rhs in
      let tol = if is_jigsaw name then 1e-2 else 1e-4 in
      if err >= tol then
        QCheck.Test.fail_reportf "phase-ramp err %.3e tol %.3e" err tol
      else true)

(* ------------------------------------------------------------------ *)
(* Type-3 metamorphic properties. The scale/shift decomposition
   ([Plan.make_type3]) is pure floating point, so it must be linear to
   rounding; its adjoint is reached through the swapped plan
   (A^H y = conj(B conj(y)) where B swaps sources and targets, since
   A_{kj} = e^{i s_k . x_j} is symmetric in the two point sets); and on
   integer lattice targets it must agree with the type-1 adjoint of the
   same samples (same sum, two different factorizations). The qcheck
   box property drives random source/target boxes — widths, centres and
   aspect ratios — against the O(M_in M_out) NuDFT oracle under the
   10x accuracy contract. *)

module Plan = Nufft.Plan
module Nudft = Nufft.Nudft
module Transform = Nufft.Transform

let t3_sizes = function 2 -> (60, 40) | _ -> (36, 24)

let random_axes rng ~dims ~scale ~centre m =
  Array.init dims (fun _ ->
      Array.init m (fun _ ->
          centre +. ((Random.State.float rng 2.0 -. 1.0) *. scale)))

let conj_cvec v =
  Cvec.init (Cvec.length v) (fun i -> C.conj (Cvec.get v i))

let prop_t3_linearity dims =
  let m_in, m_out = t3_sizes dims in
  QCheck.Test.make
    ~name:(Printf.sprintf "type-3 linearity: %dD" dims)
    ~count:5
    QCheck.(
      triple (int_range 0 100_000)
        (float_range (-1.0) 1.0)
        (float_range (-1.0) 1.0))
    (fun (seed, a, b) ->
      let rng = Random.State.make [| seed; dims; 0x7e |] in
      let sources = random_axes rng ~dims ~scale:3.0 ~centre:0.0 m_in in
      let targets = random_axes rng ~dims ~scale:10.0 ~centre:0.0 m_out in
      let t3 =
        Plan.make_type3 ~tol:1e-6 ~family:Numerics.Window.ES ~sources
          ~targets ()
      in
      let x = random_cvec ~seed:(seed + 1) m_in
      and y = random_cvec ~seed:(seed + 2) m_in in
      let lhs = Plan.type3_exec t3 (lincomb a x b y) in
      let rhs =
        lincomb a (Plan.type3_exec t3 x) b (Plan.type3_exec t3 y)
      in
      let err = rel_err lhs rhs in
      if err >= 1e-9 then
        QCheck.Test.fail_reportf "type-3 nonlinear: err %.3e" err
      else true)

let prop_t3_adjointness dims =
  let m_in, m_out = t3_sizes dims in
  QCheck.Test.make
    ~name:(Printf.sprintf "type-3 adjointness: %dD" dims)
    ~count:5
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed; dims; 0x7f |] in
      let sources = random_axes rng ~dims ~scale:3.0 ~centre:0.0 m_in in
      let targets = random_axes rng ~dims ~scale:10.0 ~centre:0.0 m_out in
      let tol = 1e-6 in
      let fwd =
        Plan.make_type3 ~tol ~family:Numerics.Window.ES ~sources ~targets ()
      and swapped =
        Plan.make_type3 ~tol ~family:Numerics.Window.ES ~sources:targets
          ~targets:sources ()
      in
      let x = random_cvec ~seed:(seed + 3) m_in
      and y = random_cvec ~seed:(seed + 4) m_out in
      let ax = Plan.type3_exec fwd x in
      let aty = conj_cvec (Plan.type3_exec swapped (conj_cvec y)) in
      let lhs = Cvec.dot ax y and rhs = Cvec.dot x aty in
      (* Both sides go through a NUFFT approximation, so the identity
         holds to the accuracy contract, not machine precision. Scale by
         Cauchy-Schwarz bounds on the two inner products, not by the
         products themselves: random x, y can make <Ax, y> nearly cancel,
         which inflates a relative error without the transform being any
         less accurate. *)
      let scale =
        Float.max
          (sqrt (Cvec.norm2 ax *. Cvec.norm2 y))
          (sqrt (Cvec.norm2 x *. Cvec.norm2 aty))
      in
      let err = C.norm (C.sub lhs rhs) /. scale in
      if err >= 10.0 *. tol then
        QCheck.Test.fail_reportf "type-3 dot-test err %.3e" err
      else true)

(* Input draws that once failed the property when it divided by
   |<Ax, y>|: each nearly cancels the inner product. Pinned as fixed
   cases, independent of QCHECK_SEED. *)
let t3_adjointness_regressions =
  List.map
    (fun (dims, seed) ->
      let _, speed, run =
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| seed |])
          (prop_t3_adjointness dims)
      in
      ( Printf.sprintf "type-3 adjointness: %dD, QCHECK_SEED=%d" dims seed,
        speed,
        run ))
    [ (2, 962840462); (3, 209) ]

let prop_t3_lattice_equals_type1 dims =
  let n = if dims = 2 then 12 else 8 in
  let m = if dims = 2 then 72 else 48 in
  QCheck.Test.make
    ~name:(Printf.sprintf "type-3 on lattice targets = type-1 adjoint: %dD"
             dims)
    ~count:5
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed; dims; 0x80 |] in
      let omega =
        random_axes rng ~dims ~scale:(Float.pi -. 1e-6) ~centre:0.0 m
      in
      let tol = 1e-6 in
      let plan = Plan.make ~tol ~family:Numerics.Window.ES ~n () in
      let values = random_cvec ~seed:(seed + 5) m in
      let samples =
        if dims = 2 then
          Sample.of_omega_2d ~g:plan.Plan.g ~omega_x:omega.(0)
            ~omega_y:omega.(1) ~values
        else
          Sample.of_omega_3d ~g:plan.Plan.g ~omega_x:omega.(0)
            ~omega_y:omega.(1) ~omega_z:omega.(2) ~values
      in
      let type1 = Plan.adjoint plan samples in
      let t3 =
        Plan.make_type3 ~tol ~family:Numerics.Window.ES ~sources:omega
          ~targets:(Op.lattice_targets ~dims ~n) ()
      in
      let type3 = Plan.type3_exec t3 values in
      let err = rel_err type1 type3 in
      if err >= 100.0 *. tol then
        QCheck.Test.fail_reportf "lattice disagreement: err %.3e" err
      else true)

let prop_t3_random_box dims =
  let m_in, m_out = t3_sizes dims in
  let tol = 1e-4 in
  QCheck.Test.make
    ~name:(Printf.sprintf "type-3 random box vs NuDFT: %dD" dims)
    ~count:8
    QCheck.(
      pair (int_range 0 100_000)
        (pair
           (pair (float_range 0.5 4.0) (float_range (-5.0) 5.0))
           (pair (float_range 2.0 16.0) (float_range (-20.0) 20.0))))
    (fun (seed, ((xscale, x0), (sscale, s0))) ->
      let rng = Random.State.make [| seed; dims; 0x81 |] in
      let sources = random_axes rng ~dims ~scale:xscale ~centre:x0 m_in in
      let targets = random_axes rng ~dims ~scale:sscale ~centre:s0 m_out in
      let values = random_cvec ~seed:(seed + 6) m_in in
      let t3 =
        Plan.make_type3 ~tol ~family:Numerics.Window.ES ~sources ~targets ()
      in
      let fast = Plan.type3_exec t3 values in
      let exact = Nudft.type3 ~sources ~targets ~values in
      let err = Cvec.nrmsd ~reference:exact fast in
      if err >= 10.0 *. tol then
        QCheck.Test.fail_reportf
          "box (xscale %.2f x0 %.2f sscale %.2f s0 %.2f): err %.3e beyond \
           10x contract"
          xscale x0 sscale s0 err
      else true)

(* Registry filtering: hardware-model backends declare type-1/2 only, so
   they are invisible to a type-3 listing and refuse a type-3 context;
   a type-1-built CPU operator refuses apply_type3. *)
let test_t3_registry_filtering () =
  let t3_2d = Op.names ~dims:2 ~transform:Transform.Type3 () in
  Alcotest.(check bool) "serial serves type-3" true (List.mem "serial" t3_2d);
  List.iter
    (fun nm ->
      Alcotest.(check bool) (nm ^ " hidden from type-3 listing") false
        (List.mem nm t3_2d))
    [ "jigsaw-2d"; "gpusim-slice"; "gpusim-binned" ];
  let coords = Sample.random ~seed:3 ~dims:2 ~g:24 32 in
  let ctx3 = Op.context ~transform:Transform.Type3 ~n:12 ~coords () in
  (match Op.create "jigsaw-2d" ctx3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jigsaw-2d accepted a type-3 context");
  let op1 = Op.create "serial" (Op.context ~n:12 ~coords ()) in
  match Op.apply_type3 op1 (random_cvec ~seed:4 32) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type-1 operator accepted apply_type3"

let t3_props =
  List.concat_map
    (fun dims ->
      [ prop_t3_linearity dims;
        prop_t3_adjointness dims;
        prop_t3_lattice_equals_type1 dims;
        prop_t3_random_box dims ])
    [ 2; 3 ]

(* ------------------------------------------------------------------ *)

let all_props =
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun dims ->
          List.concat_map
            (fun name ->
              [ prop_linearity mode name dims;
                prop_adjointness mode name dims;
                prop_phase_ramp mode name dims ])
            (Op.names ~dims () @ retired_names))
        [ 2; 3 ])
    all_modes

let () =
  Alcotest.run "conformance"
    [ ("metamorphic", Qutil.to_alcotests all_props);
      ( "type3",
        Qutil.to_alcotests t3_props
        @ [ Alcotest.test_case "registry filters by transform" `Quick
              test_t3_registry_filtering ]
        @ t3_adjointness_regressions ) ]
