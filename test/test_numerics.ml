(* Unit and property tests for the numerics substrate. *)

module C = Numerics.Complexd
module Cvec = Numerics.Cvec
module F32 = Numerics.Float32
module Fp = Numerics.Fixed_point
module Bessel = Numerics.Bessel
module Window = Numerics.Window
module Wt = Numerics.Weight_table

let check_close ?(eps = 1e-12) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.17g, got %.17g (diff %g)" msg expected actual
      (Float.abs (expected -. actual))

let check_complex ?(eps = 1e-12) msg (expected : C.t) (actual : C.t) =
  check_close ~eps (msg ^ ".re") expected.re actual.re;
  check_close ~eps (msg ^ ".im") expected.im actual.im

(* ------------------------------------------------------------------ *)
(* Complexd *)

let test_complex_basic () =
  let a = C.make 1.0 2.0 and b = C.make 3.0 (-4.0) in
  check_complex "add" (C.make 4.0 (-2.0)) (C.add a b);
  check_complex "sub" (C.make (-2.0) 6.0) (C.sub a b);
  check_complex "mul" (C.make 11.0 2.0) (C.mul a b);
  check_complex "conj" (C.make 1.0 (-2.0)) (C.conj a);
  check_complex "neg" (C.make (-1.0) (-2.0)) (C.neg a);
  check_close "norm2" 5.0 (C.norm2 a);
  check_close "norm" (sqrt 5.0) (C.norm a)

let test_complex_div () =
  let a = C.make 2.5 (-1.5) and b = C.make 0.5 3.0 in
  let q = C.div a b in
  check_complex ~eps:1e-14 "div*b" a (C.mul q b);
  check_complex ~eps:1e-14 "inv" C.one (C.mul b (C.inv b))

let test_complex_exp_i () =
  check_complex "exp_i 0" C.one (C.exp_i 0.0);
  check_complex ~eps:1e-15 "exp_i pi/2" C.i (C.exp_i (Float.pi /. 2.0));
  let t = 0.7734 in
  check_close "unit norm" 1.0 (C.norm (C.exp_i t))

let prop_knuth_equals_mul =
  QCheck.Test.make ~name:"mul_knuth = mul (up to rounding)" ~count:1000
    QCheck.(quad (float_range (-100.) 100.) (float_range (-100.) 100.)
              (float_range (-100.) 100.) (float_range (-100.) 100.))
    (fun (ar, ai, br, bi) ->
      let a = C.make ar ai and b = C.make br bi in
      let m = C.mul a b and k = C.mul_knuth a b in
      let scale = 1.0 +. C.norm a *. C.norm b in
      Float.abs (m.re -. k.re) <= 1e-10 *. scale
      && Float.abs (m.im -. k.im) <= 1e-10 *. scale)

(* ------------------------------------------------------------------ *)
(* Cvec *)

let test_cvec_roundtrip () =
  let v = Cvec.create 4 in
  Alcotest.(check int) "length" 4 (Cvec.length v);
  Cvec.set v 2 (C.make 3.5 (-1.25));
  check_complex "get/set" (C.make 3.5 (-1.25)) (Cvec.get v 2);
  check_complex "untouched" C.zero (Cvec.get v 0);
  Cvec.accumulate v 2 (C.make 0.5 0.25);
  check_complex "accumulate" (C.make 4.0 (-1.0)) (Cvec.get v 2)

let test_cvec_dot () =
  let a = Cvec.of_complex_array [| C.make 1.0 1.0; C.make 2.0 0.0 |] in
  let b = Cvec.of_complex_array [| C.make 0.0 1.0; C.make 1.0 1.0 |] in
  (* conj(1+i)(i) + conj(2)(1+i) = (1-i)i + 2+2i = i+1 + 2+2i = 3+3i *)
  check_complex "dot" (C.make 3.0 3.0) (Cvec.dot a b)

let test_cvec_nrmsd () =
  let r = Cvec.of_complex_array [| C.make 3.0 0.0; C.make 0.0 4.0 |] in
  let v = Cvec.of_complex_array [| C.make 3.0 0.0; C.make 0.0 4.0 |] in
  check_close "identical" 0.0 (Cvec.nrmsd ~reference:r v);
  let w = Cvec.of_complex_array [| C.make 3.0 0.5; C.make 0.0 4.0 |] in
  check_close "perturbed" (0.5 /. 5.0) (Cvec.nrmsd ~reference:r w);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Cvec.nrmsd: length mismatch") (fun () ->
      ignore (Cvec.nrmsd ~reference:r (Cvec.create 3)))

let test_cvec_ops () =
  let v = Cvec.init 3 (fun k -> C.make (float_of_int k) 1.0) in
  check_close "norm2" (0.0 +. 1.0 +. 1.0 +. 1.0 +. 4.0 +. 1.0) (Cvec.norm2 v);
  let w = Cvec.copy v in
  Cvec.scale_inplace 2.0 w;
  check_complex "scale" (C.make 4.0 2.0) (Cvec.get w 2);
  Cvec.add_inplace w v;
  check_complex "add_inplace" (C.make 6.0 3.0) (Cvec.get w 2);
  check_close "max_abs_diff" 2.0 (Cvec.max_abs_diff v w |> fun d ->
    if d >= 2.0 then 2.0 else d) ;
  let sum = Cvec.fold (fun acc c -> C.add acc c) C.zero v in
  check_complex "fold" (C.make 3.0 3.0) sum

(* ------------------------------------------------------------------ *)
(* Float32 *)

let test_f32_round () =
  check_close ~eps:0.0 "exact small int" 5.0 (F32.round 5.0);
  let r = F32.round 0.1 in
  check_close ~eps:1e-7 "0.1f" 0.1 r;
  Alcotest.(check bool) "0.1 inexact in f32" true (r <> 0.1);
  check_close ~eps:0.0 "idempotent" r (F32.round r)

let test_f32_ops () =
  (* 16777216 + 1 is not representable in f32. *)
  check_close ~eps:0.0 "ulp cliff" 16777216.0 (F32.add 16777216.0 1.0);
  check_close ~eps:0.0 "mul" (F32.round (0.1 *. 0.2)) (F32.mul 0.1 0.2)

let prop_f32_cmul_close =
  QCheck.Test.make ~name:"f32 cmul ~ double cmul" ~count:500
    QCheck.(quad (float_range (-1.) 1.) (float_range (-1.) 1.)
              (float_range (-1.) 1.) (float_range (-1.) 1.))
    (fun (ar, ai, br, bi) ->
      let a = C.make ar ai and b = C.make br bi in
      let exact = C.mul a b and f32 = F32.cmul a b in
      C.norm (C.sub exact f32) <= 1e-6)

(* ------------------------------------------------------------------ *)
(* Fixed point *)

let test_fp_fmt_validation () =
  Alcotest.check_raises "total too big"
    (Invalid_argument "Fixed_point.fmt: total_bits must be in 1..48")
    (fun () -> ignore (Fp.fmt ~total_bits:64 ~frac_bits:10));
  Alcotest.check_raises "frac >= total"
    (Invalid_argument "Fixed_point.fmt: frac_bits must be in 0..total_bits-1")
    (fun () -> ignore (Fp.fmt ~total_bits:8 ~frac_bits:8))

let test_fp_roundtrip () =
  let f = Fp.q15 in
  check_close ~eps:(Fp.epsilon f /. 2.0) "0.5" 0.5 (Fp.to_float f (Fp.of_float f 0.5));
  check_close ~eps:0.0 "exact" 0.25 (Fp.to_float f (Fp.of_float f 0.25));
  check_close ~eps:0.0 "-1 exact" (-1.0) (Fp.to_float f (Fp.of_float f (-1.0)))

let test_fp_saturation () =
  let f = Fp.q15 in
  Alcotest.(check int) "pos sat" (Fp.max_raw f) (Fp.of_float f 2.0);
  Alcotest.(check int) "neg sat" (Fp.min_raw f) (Fp.of_float f (-2.0));
  Alcotest.(check int) "add sat" (Fp.max_raw f)
    (Fp.add f (Fp.max_raw f) (Fp.max_raw f));
  Alcotest.(check int) "nan -> 0" 0 (Fp.of_float f Float.nan)

let test_fp_mul () =
  let f = Fp.fmt ~total_bits:16 ~frac_bits:8 in
  (* 1.5 * 2.0 = 3.0, exactly representable. *)
  let a = Fp.of_float f 1.5 and b = Fp.of_float f 2.0 in
  check_close ~eps:0.0 "1.5*2" 3.0 (Fp.to_float f (Fp.mul f a b))

let test_fp_mixed_mul () =
  let w = Fp.q15 and p = Fp.pipeline_fmt in
  let a = Fp.of_float w 0.5 and b = Fp.of_float p 3.0 in
  check_close ~eps:(Fp.epsilon p) "0.5*3" 1.5
    (Fp.to_float p (Fp.mul_mixed ~a_fmt:w ~b_fmt:p ~out_fmt:p a b))

let prop_fp_quantization_bound =
  QCheck.Test.make ~name:"of_float error <= half lsb" ~count:1000
    QCheck.(float_range (-0.999) 0.999)
    (fun x ->
      let f = Fp.q15 in
      let e = Float.abs (Fp.to_float f (Fp.of_float f x) -. x) in
      e <= Fp.quantization_error_bound f +. 1e-15)

let prop_fp_complex_knuth =
  QCheck.Test.make ~name:"fixed complex knuth ~ double" ~count:500
    QCheck.(quad (float_range (-0.9) 0.9) (float_range (-0.9) 0.9)
              (float_range (-0.9) 0.9) (float_range (-0.9) 0.9))
    (fun (ar, ai, br, bi) ->
      let f = Fp.fmt ~total_bits:32 ~frac_bits:24 in
      let a = C.make ar ai and b = C.make br bi in
      let fa = Fp.Complex.of_complexd f a and fb = Fp.Complex.of_complexd f b in
      let got = Fp.Complex.to_complexd f (Fp.Complex.mul_knuth f fa fb) in
      C.norm (C.sub (C.mul a b) got) <= 32.0 *. Fp.epsilon f)

(* ------------------------------------------------------------------ *)
(* Bessel *)

let test_bessel_known () =
  check_close ~eps:1e-14 "I0(0)" 1.0 (Bessel.i0 0.0);
  check_close ~eps:1e-12 "I0(1)" 1.2660658777520084 (Bessel.i0 1.0);
  check_close ~eps:1e-10 "I0(5)" 27.239871823604442 (Bessel.i0 5.0);
  check_close ~eps:1e-3 "I0(10)" 2815.716628466254 (Bessel.i0 10.0);
  check_close ~eps:0.0 "even" (Bessel.i0 3.2) (Bessel.i0 (-3.2))

(* ------------------------------------------------------------------ *)
(* Window *)

let all_kernels width =
  [ Window.default_kaiser_bessel ~width ~sigma:2.0;
    Window.default_gaussian ~width;
    Window.Bspline;
    Window.Sinc ]

let test_window_support () =
  List.iter
    (fun k ->
      let w = 6 in
      check_close ~eps:0.0 "outside" 0.0 (Window.eval k ~width:w 3.0);
      check_close ~eps:0.0 "outside neg" 0.0 (Window.eval k ~width:w (-3.1));
      Alcotest.(check bool) "inside positive" true
        (Window.eval k ~width:w 0.5 > 0.0))
    (all_kernels 6)

let test_window_peak () =
  let w = 6 in
  check_close "kb peak" 1.0
    (Window.eval (Window.default_kaiser_bessel ~width:w ~sigma:2.0) ~width:w 0.0);
  check_close "gauss peak" 1.0
    (Window.eval (Window.default_gaussian ~width:w) ~width:w 0.0);
  check_close "sinc peak" 1.0 (Window.eval Window.Sinc ~width:w 0.0)

let test_beatty_beta () =
  (* W=6, sigma=2: beta = pi sqrt(9 * 2.25 - 0.8) = pi sqrt(19.45) *)
  check_close ~eps:1e-12 "beta(6,2)"
    (Float.pi *. sqrt (((6.0 /. 2.0) ** 2.0 *. 1.5 *. 1.5) -. 0.8))
    (Window.beatty_beta ~width:6 ~sigma:2.0);
  Alcotest.check_raises "sigma <= 1"
    (Invalid_argument "Window.beatty_beta: sigma must be > 1") (fun () ->
      ignore (Window.beatty_beta ~width:6 ~sigma:1.0))

let test_window_ft_dc () =
  (* At f = 0 the transform equals the kernel's integral; compare analytic
     KB to quadrature. *)
  let w = 6 in
  let kb = Window.default_kaiser_bessel ~width:w ~sigma:2.0 in
  check_close ~eps:1e-6 "kb ft(0)" (Window.ft_numeric kb ~width:w 0.0)
    (Window.ft kb ~width:w 0.0)

let test_window_ft_matches_numeric () =
  let w = 6 in
  let kb = Window.default_kaiser_bessel ~width:w ~sigma:2.0 in
  List.iter
    (fun f ->
      check_close ~eps:1e-6
        (Printf.sprintf "kb ft(%g)" f)
        (Window.ft_numeric kb ~width:w f)
        (Window.ft kb ~width:w f))
    [ 0.01; 0.05; 0.1; 0.2; 0.25 ];
  List.iter
    (fun f ->
      check_close ~eps:1e-6
        (Printf.sprintf "bspline ft(%g)" f)
        (Window.ft_numeric Window.Bspline ~width:w f)
        (Window.ft Window.Bspline ~width:w f))
    [ 0.0; 0.05; 0.125; 0.3 ]

let prop_window_even =
  QCheck.Test.make ~name:"windows are even functions" ~count:400
    QCheck.(pair (float_range 0.0 2.99) (int_range 0 3))
    (fun (t, ki) ->
      let k = List.nth (all_kernels 6) ki in
      Window.eval k ~width:6 t = Window.eval k ~width:6 (-.t))

let prop_window_monotone_kb =
  QCheck.Test.make ~name:"kaiser-bessel decreases away from centre" ~count:200
    QCheck.(pair (float_range 0.0 2.8) (float_range 0.0 0.19))
    (fun (t, dt) ->
      let k = Window.default_kaiser_bessel ~width:6 ~sigma:2.0 in
      Window.eval k ~width:6 t >= Window.eval k ~width:6 (t +. dt) -. 1e-12)

(* ------------------------------------------------------------------ *)
(* Weight table *)

let test_table_entries () =
  let t = Wt.make ~kernel:(Window.default_kaiser_bessel ~width:8 ~sigma:2.0)
      ~width:8 ~l:64 () in
  (* W=8, L=64 fits the JIGSAW SRAM budget of 256+1 half-window entries. *)
  Alcotest.(check int) "entries" 257 (Wt.entries t);
  Alcotest.(check int) "width" 8 (Wt.width t);
  Alcotest.(check int) "L" 64 (Wt.oversampling t)

let test_table_addressing () =
  let t = Wt.make ~kernel:(Window.default_kaiser_bessel ~width:6 ~sigma:2.0)
      ~width:6 ~l:32 () in
  Alcotest.(check (option int)) "d=0" (Some 0) (Wt.address_of_distance t 0.0);
  Alcotest.(check (option int)) "d=1/32" (Some 1)
    (Wt.address_of_distance t (1.0 /. 32.0));
  Alcotest.(check (option int)) "rounds" (Some 2)
    (Wt.address_of_distance t (1.6 /. 32.0));
  Alcotest.(check (option int)) "at edge" (Some 96)
    (Wt.address_of_distance t 3.0);
  Alcotest.(check (option int)) "outside" None
    (Wt.address_of_distance t 3.4);
  Alcotest.(check (option int)) "negative distance" (Some 32)
    (Wt.address_of_distance t (-1.0))

let test_table_lookup_symmetric () =
  let t = Wt.make ~kernel:(Window.default_kaiser_bessel ~width:6 ~sigma:2.0)
      ~width:6 ~l:32 () in
  check_close ~eps:0.0 "symmetry" (Wt.lookup t 1.23) (Wt.lookup t (-1.23));
  check_close ~eps:0.0 "centre weight is peak" 1.0 (Wt.lookup t 0.0)

let test_table_error_shrinks_with_l () =
  let mk l = Wt.make ~kernel:(Window.default_kaiser_bessel ~width:6 ~sigma:2.0)
      ~width:6 ~l () in
  let e8 = Wt.max_table_error (mk 8)
  and e32 = Wt.max_table_error (mk 32)
  and e128 = Wt.max_table_error (mk 128) in
  Alcotest.(check bool) "monotone in L" true (e8 > e32 && e32 > e128);
  Alcotest.(check bool) "reasonable magnitude" true (e128 < 0.02)

let test_table_precisions () =
  let kernel = Window.default_kaiser_bessel ~width:6 ~sigma:2.0 in
  let d = Wt.make ~kernel ~width:6 ~l:32 () in
  let s = Wt.make ~precision:Wt.Single ~kernel ~width:6 ~l:32 () in
  let x = Wt.make ~precision:Wt.Fixed16 ~kernel ~width:6 ~l:32 () in
  for a = 0 to Wt.entries d - 1 do
    check_close ~eps:1e-7 "single close to double" (Wt.get d a) (Wt.get s a);
    check_close ~eps:(1.0 /. 32768.0) "q15 close to double" (Wt.get d a)
      (Wt.get x a);
    (* Fixed16 entries round-trip exactly through q15. *)
    check_close ~eps:0.0 "q15 exact storage"
      (Fp.to_float Fp.q15 (Wt.get_q15 x a))
      (Wt.get x a)
  done

(* The staged table build (normaliser hoisted, one loop) stores exactly
   the quantised [Window.eval] of each address's distance: every family,
   every width, two oversamplings, all three precisions, bit for bit.
   [Window.eval] itself is pinned to the per-point expressions it had
   before staging (the normaliser recomputed at every point). *)
let test_table_equals_eval_bitwise () =
  let quantize precision x =
    match precision with
    | Wt.Double -> x
    | Wt.Single -> F32.round x
    | Wt.Fixed16 -> Fp.to_float Fp.q15 (Fp.of_float Fp.q15 x)
  in
  let unstaged kernel ~width t =
    let half = float_of_int width /. 2.0 in
    if Float.abs t >= half then 0.0
    else
      match kernel with
      | Window.Kaiser_bessel beta ->
          let u = t /. half in
          Bessel.i0 (beta *. sqrt (1.0 -. (u *. u))) /. Bessel.i0 beta
      | Window.Exp_semicircle beta ->
          let u = t /. half in
          exp (beta *. (sqrt (1.0 -. (u *. u)) -. 1.0))
      | Window.Gaussian _ | Window.Bspline | Window.Sinc ->
          Window.eval kernel ~width t
  in
  for width = 2 to 16 do
    let kernels =
      [ Window.default_kaiser_bessel ~width ~sigma:2.0;
        Window.default_gaussian ~width;
        Window.Bspline;
        Window.Sinc;
        Window.default_exp_semicircle ~width ~sigma:2.0 ]
    in
    List.iter
      (fun kernel ->
        List.iter
          (fun l ->
            let fail what a x y =
              Alcotest.failf "%s w=%d l=%d address %d: %s %h <> %h"
                (Window.name kernel) width l a what x y
            in
            let psi =
              Array.init ((width * l / 2) + 1) (fun a ->
                  let d = float_of_int a /. float_of_int l in
                  let v = Window.eval kernel ~width d in
                  let r = unstaged kernel ~width d in
                  if Int64.bits_of_float v <> Int64.bits_of_float r then
                    fail "eval vs unstaged" a v r;
                  v)
            in
            List.iter
              (fun precision ->
                let t = Wt.make ~precision ~kernel ~width ~l () in
                Alcotest.(check int) "entries" (Array.length psi)
                  (Wt.entries t);
                Array.iteri
                  (fun a v ->
                    let want = quantize precision v and got = Wt.get t a in
                    if Int64.bits_of_float got <> Int64.bits_of_float want then
                      fail "table vs eval" a got want)
                  psi)
              [ Wt.Double; Wt.Single; Wt.Fixed16 ])
          [ 512; 4096 ])
      kernels
  done

let test_table_validation () =
  Alcotest.check_raises "width" (Invalid_argument "Weight_table.make: width < 1")
    (fun () ->
      ignore (Wt.make ~kernel:Window.Sinc ~width:0 ~l:8 ()));
  Alcotest.check_raises "l" (Invalid_argument "Weight_table.make: l < 1")
    (fun () -> ignore (Wt.make ~kernel:Window.Sinc ~width:4 ~l:0 ()))

(* ------------------------------------------------------------------ *)
(* Linalg *)

let random_system rng n =
  let cell () =
    C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)
  in
  let a = Array.init n (fun _ -> Array.init n (fun _ -> cell ())) in
  (* Diagonal dominance guarantees nonsingularity. *)
  for i = 0 to n - 1 do
    a.(i).(i) <- C.add a.(i).(i) (C.of_float (4.0 *. float_of_int n))
  done;
  let b = Array.init n (fun _ -> cell ()) in
  (a, b)

let test_linalg_identity () =
  let i3 = Numerics.Linalg.identity 3 in
  let b = [| C.make 1.0 2.0; C.make (-3.0) 0.5; C.i |] in
  let x = Numerics.Linalg.solve i3 b in
  Array.iteri (fun k v -> check_complex "identity solve" b.(k) v) x;
  let y = Numerics.Linalg.matvec i3 b in
  Array.iteri (fun k v -> check_complex "identity matvec" b.(k) v) y

let test_linalg_solve_random () =
  let rng = Random.State.make [| 77 |] in
  List.iter
    (fun n ->
      let a, b = random_system rng n in
      let x = Numerics.Linalg.solve a b in
      let r = Numerics.Linalg.residual_norm a x b in
      Alcotest.(check bool) (Printf.sprintf "n=%d residual %g" n r) true
        (r < 1e-10))
    [ 1; 2; 4; 6; 8 ]

let test_linalg_singular () =
  let a = [| [| C.one; C.one |]; [| C.one; C.one |] |] in
  Alcotest.check_raises "singular" (Failure "Linalg.solve: singular matrix")
    (fun () -> ignore (Numerics.Linalg.solve a [| C.one; C.one |]))

let test_linalg_transpose_conj () =
  let a = [| [| C.make 1.0 2.0; C.make 3.0 4.0 |];
             [| C.make 5.0 6.0; C.make 7.0 8.0 |] |] in
  let ah = Numerics.Linalg.transpose_conj a in
  check_complex "a^H(0,1)" (C.make 5.0 (-6.0)) ah.(0).(1);
  check_complex "a^H(1,0)" (C.make 3.0 (-4.0)) ah.(1).(0)

let prop_window_ft_even =
  QCheck.Test.make ~name:"window FT is even in frequency" ~count:200
    QCheck.(pair (float_range 0.0 0.45) (int_range 0 1))
    (fun (f, ki) ->
      let k =
        if ki = 0 then Window.default_kaiser_bessel ~width:6 ~sigma:2.0
        else Window.Bspline
      in
      Float.abs (Window.ft k ~width:6 f -. Window.ft k ~width:6 (-.f)) < 1e-12)

let prop_bessel_monotone =
  QCheck.Test.make ~name:"I0 grows monotonically on [0, 40]" ~count:300
    QCheck.(pair (float_range 0.0 39.0) (float_range 0.001 1.0))
    (fun (x, dx) -> Bessel.i0 (x +. dx) > Bessel.i0 x)

let prop_q15_weights_in_range =
  QCheck.Test.make ~name:"q15 table entries stay in [-1, 1)" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 0 6))
    (fun (w, lexp) ->
      let l = 1 lsl lexp in
      let t =
        Wt.make ~precision:Wt.Fixed16
          ~kernel:(Window.default_gaussian ~width:w) ~width:w ~l ()
      in
      let ok = ref true in
      for a = 0 to Wt.entries t - 1 do
        let raw = Wt.get_q15 t a in
        if raw < Fp.min_raw Fp.q15 || raw > Fp.max_raw Fp.q15 then ok := false
      done;
      !ok)

let prop_linalg_solve =
  QCheck.Test.make ~name:"solve yields small residual" ~count:200
    QCheck.(pair (int_range 1 8) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let a, b = random_system rng n in
      let x = Numerics.Linalg.solve a b in
      Numerics.Linalg.residual_norm a x b < 1e-9)

(* ------------------------------------------------------------------ *)

let qtests = Qutil.to_alcotests
    [ prop_knuth_equals_mul; prop_f32_cmul_close; prop_fp_quantization_bound;
      prop_fp_complex_knuth; prop_window_even; prop_window_monotone_kb;
      prop_window_ft_even; prop_bessel_monotone; prop_q15_weights_in_range;
      prop_linalg_solve ]

let () =
  Alcotest.run "numerics"
    [ ("complexd",
       [ Alcotest.test_case "basic ops" `Quick test_complex_basic;
         Alcotest.test_case "division" `Quick test_complex_div;
         Alcotest.test_case "exp_i" `Quick test_complex_exp_i ]);
      ("cvec",
       [ Alcotest.test_case "get/set/accumulate" `Quick test_cvec_roundtrip;
         Alcotest.test_case "dot" `Quick test_cvec_dot;
         Alcotest.test_case "nrmsd" `Quick test_cvec_nrmsd;
         Alcotest.test_case "fold/scale/add" `Quick test_cvec_ops ]);
      ("float32",
       [ Alcotest.test_case "round" `Quick test_f32_round;
         Alcotest.test_case "arithmetic" `Quick test_f32_ops ]);
      ("fixed_point",
       [ Alcotest.test_case "format validation" `Quick test_fp_fmt_validation;
         Alcotest.test_case "roundtrip" `Quick test_fp_roundtrip;
         Alcotest.test_case "saturation" `Quick test_fp_saturation;
         Alcotest.test_case "multiply" `Quick test_fp_mul;
         Alcotest.test_case "mixed multiply" `Quick test_fp_mixed_mul ]);
      ("bessel", [ Alcotest.test_case "known values" `Quick test_bessel_known ]);
      ("window",
       [ Alcotest.test_case "support" `Quick test_window_support;
         Alcotest.test_case "peak" `Quick test_window_peak;
         Alcotest.test_case "beatty beta" `Quick test_beatty_beta;
         Alcotest.test_case "ft at dc" `Quick test_window_ft_dc;
         Alcotest.test_case "ft analytic = numeric" `Quick
           test_window_ft_matches_numeric ]);
      ("weight_table",
       [ Alcotest.test_case "entry count" `Quick test_table_entries;
         Alcotest.test_case "addressing" `Quick test_table_addressing;
         Alcotest.test_case "symmetric lookup" `Quick test_table_lookup_symmetric;
         Alcotest.test_case "error vs L" `Quick test_table_error_shrinks_with_l;
         Alcotest.test_case "precision variants" `Quick test_table_precisions;
         Alcotest.test_case "validation" `Quick test_table_validation;
         Alcotest.test_case "staged build = Window.eval bitwise" `Quick
           test_table_equals_eval_bitwise ]);
      ("linalg",
       [ Alcotest.test_case "identity" `Quick test_linalg_identity;
         Alcotest.test_case "random systems" `Quick test_linalg_solve_random;
         Alcotest.test_case "singular detection" `Quick test_linalg_singular;
         Alcotest.test_case "conjugate transpose" `Quick
           test_linalg_transpose_conj ]);
      ("properties", qtests) ]
