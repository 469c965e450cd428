(* Tests for the FFT substrate: radix-2, Bluestein, 2D/3D, against the naive
   DFT oracle. *)

module C = Numerics.Complexd
module Cvec = Numerics.Cvec

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let check_vec ?(eps = 1e-9) msg expected actual =
  if Cvec.length expected <> Cvec.length actual then
    Alcotest.failf "%s: length %d vs %d" msg (Cvec.length expected)
      (Cvec.length actual);
  let d = Cvec.max_abs_diff expected actual in
  if d > eps then Alcotest.failf "%s: max diff %g > %g" msg d eps

let rand_vec rng n =
  Cvec.init n (fun _ ->
      C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0))

let test_pow2_helpers () =
  Alcotest.(check bool) "1" true (Fft.Fft1d.is_pow2 1);
  Alcotest.(check bool) "1024" true (Fft.Fft1d.is_pow2 1024);
  Alcotest.(check bool) "12" false (Fft.Fft1d.is_pow2 12);
  Alcotest.(check bool) "0" false (Fft.Fft1d.is_pow2 0);
  Alcotest.(check int) "next 5" 8 (Fft.Fft1d.next_pow2 5);
  Alcotest.(check int) "next 8" 8 (Fft.Fft1d.next_pow2 8);
  Alcotest.(check int) "next 1" 1 (Fft.Fft1d.next_pow2 1)

let test_fft_impulse () =
  (* FFT of a delta is all ones. *)
  let v = Cvec.create 8 in
  Cvec.set v 0 C.one;
  let f = Fft.Fft1d.transformed Fft.Dft.Forward v in
  for k = 0 to 7 do
    check_close ~eps:1e-12 "re" 1.0 (Cvec.get_re f k);
    check_close ~eps:1e-12 "im" 0.0 (Cvec.get_im f k)
  done

let test_fft_single_tone () =
  (* x_j = e^{2 pi i 3 j / 16} has forward FFT = 16 * delta_{k=3}?  With the
     e^{-} forward convention the energy lands on bin 3. *)
  let n = 16 in
  let v = Cvec.init n (fun j ->
      C.exp_i (2.0 *. Float.pi *. 3.0 *. float_of_int j /. float_of_int n)) in
  let f = Fft.Fft1d.transformed Fft.Dft.Forward v in
  for k = 0 to n - 1 do
    let expected = if k = 3 then float_of_int n else 0.0 in
    check_close ~eps:1e-10 (Printf.sprintf "bin %d" k) expected (C.norm (Cvec.get f k))
  done

let test_fft_matches_dft_pow2 () =
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun n ->
      let v = rand_vec rng n in
      let fft = Fft.Fft1d.transformed Fft.Dft.Forward v in
      let dft = Fft.Dft.transform Fft.Dft.Forward v in
      check_vec ~eps:1e-8 (Printf.sprintf "n=%d fwd" n) dft fft;
      let ifft = Fft.Fft1d.transformed Fft.Dft.Inverse v in
      let idft = Fft.Dft.transform Fft.Dft.Inverse v in
      check_vec ~eps:1e-8 (Printf.sprintf "n=%d inv" n) idft ifft)
    [ 1; 2; 4; 8; 32; 128; 512 ]

let test_fft_matches_dft_bluestein () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun n ->
      let v = rand_vec rng n in
      let fft = Fft.Fft1d.transformed Fft.Dft.Forward v in
      let dft = Fft.Dft.transform Fft.Dft.Forward v in
      check_vec ~eps:1e-7 (Printf.sprintf "n=%d bluestein" n) dft fft)
    [ 3; 5; 6; 7; 12; 15; 48; 96; 100; 384 ]

let test_fft_roundtrip () =
  let rng = Random.State.make [| 11 |] in
  List.iter
    (fun n ->
      let v = rand_vec rng n in
      let f = Fft.Fft1d.transformed Fft.Dft.Forward v in
      let back = Fft.Fft1d.inverse_normalized f in
      check_vec ~eps:1e-9 (Printf.sprintf "n=%d roundtrip" n) v back)
    [ 8; 12; 64; 192 ]

let test_fft_linearity () =
  let rng = Random.State.make [| 3 |] in
  let n = 64 in
  let a = rand_vec rng n and b = rand_vec rng n in
  let sum = Cvec.copy a in
  Cvec.add_inplace sum b;
  let f_sum = Fft.Fft1d.transformed Fft.Dft.Forward sum in
  let fa = Fft.Fft1d.transformed Fft.Dft.Forward a in
  let fb = Fft.Fft1d.transformed Fft.Dft.Forward b in
  Cvec.add_inplace fa fb;
  check_vec ~eps:1e-9 "F(a+b) = F(a)+F(b)" fa f_sum

let test_parseval () =
  let rng = Random.State.make [| 19 |] in
  let n = 256 in
  let v = rand_vec rng n in
  let f = Fft.Fft1d.transformed Fft.Dft.Forward v in
  check_close ~eps:1e-6 "parseval"
    (float_of_int n *. Cvec.norm2 v)
    (Cvec.norm2 f)

let test_fft2d_matches_dft () =
  let rng = Random.State.make [| 23 |] in
  List.iter
    (fun (nx, ny) ->
      let v = rand_vec rng (nx * ny) in
      let fft = Fft.Fftnd.transformed_2d Fft.Dft.Forward ~nx ~ny v in
      let dft = Fft.Dft.transform_2d Fft.Dft.Forward ~nx ~ny v in
      check_vec ~eps:1e-7 (Printf.sprintf "%dx%d" nx ny) dft fft)
    [ (4, 4); (8, 4); (4, 8); (16, 16); (6, 10) ]

let test_fft2d_roundtrip () =
  let rng = Random.State.make [| 29 |] in
  let nx = 32 and ny = 16 in
  let v = rand_vec rng (nx * ny) in
  let f = Fft.Fftnd.transformed_2d Fft.Dft.Forward ~nx ~ny v in
  Fft.Fftnd.transform_2d Fft.Dft.Inverse ~nx ~ny f;
  Cvec.scale_inplace (1.0 /. float_of_int (nx * ny)) f;
  check_vec ~eps:1e-9 "2d roundtrip" v f

let test_fft3d_roundtrip () =
  let rng = Random.State.make [| 31 |] in
  let nx = 8 and ny = 4 and nz = 6 in
  let v = rand_vec rng (nx * ny * nz) in
  let f = Cvec.copy v in
  Fft.Fftnd.transform_3d Fft.Dft.Forward ~nx ~ny ~nz f;
  Fft.Fftnd.transform_3d Fft.Dft.Inverse ~nx ~ny ~nz f;
  Cvec.scale_inplace (1.0 /. float_of_int (nx * ny * nz)) f;
  check_vec ~eps:1e-9 "3d roundtrip" v f

let test_fft3d_separable () =
  (* A rank-1 (separable) input transforms to the product of 1D FFTs. *)
  let nx = 4 and ny = 8 and nz = 2 in
  let rng = Random.State.make [| 37 |] in
  let fx = rand_vec rng nx and fy = rand_vec rng ny and fz = rand_vec rng nz in
  let v = Cvec.create (nx * ny * nz) in
  for z = 0 to nz - 1 do
    for y = 0 to ny - 1 do
      for x = 0 to nx - 1 do
        let p = C.mul (Cvec.get fx x) (C.mul (Cvec.get fy y) (Cvec.get fz z)) in
        Cvec.set v (((z * ny) + y) * nx + x) p
      done
    done
  done;
  Fft.Fftnd.transform_3d Fft.Dft.Forward ~nx ~ny ~nz v;
  let gx = Fft.Fft1d.transformed Fft.Dft.Forward fx in
  let gy = Fft.Fft1d.transformed Fft.Dft.Forward fy in
  let gz = Fft.Fft1d.transformed Fft.Dft.Forward fz in
  for z = 0 to nz - 1 do
    for y = 0 to ny - 1 do
      for x = 0 to nx - 1 do
        let expected =
          C.mul (Cvec.get gx x) (C.mul (Cvec.get gy y) (Cvec.get gz z))
        in
        let got = Cvec.get v (((z * ny) + y) * nx + x) in
        check_close ~eps:1e-8 "sep re" expected.re got.re;
        check_close ~eps:1e-8 "sep im" expected.im got.im
      done
    done
  done

let test_bluestein_primes () =
  let rng = Random.State.make [| 997 |] in
  List.iter
    (fun n ->
      let v = rand_vec rng n in
      let fft = Fft.Fft1d.transformed Fft.Dft.Forward v in
      let dft = Fft.Dft.transform Fft.Dft.Forward v in
      check_vec ~eps:1e-6 (Printf.sprintf "prime n=%d" n) dft fft)
    [ 17; 97; 251; 509 ]

let test_cache_interleaving () =
  (* Exercise the twiddle/bitrev caches across interleaved sizes. *)
  let rng = Random.State.make [| 13 |] in
  let check n =
    let v = rand_vec rng n in
    let fft = Fft.Fft1d.transformed Fft.Dft.Forward v in
    let dft = Fft.Dft.transform Fft.Dft.Forward v in
    check_vec ~eps:1e-8 (Printf.sprintf "interleaved n=%d" n) dft fft
  in
  List.iter check [ 8; 64; 8; 16; 64; 8 ]

let test_fftshift () =
  let nx = 4 and ny = 4 in
  let v = Cvec.init (nx * ny) (fun k -> C.of_float (float_of_int k)) in
  let s = Fft.Fftnd.fftshift_2d ~nx ~ny v in
  (* (0,0) moves to (2,2) = index 10. *)
  check_close ~eps:0.0 "origin to centre" 0.0 (Cvec.get_re s 10);
  let ss = Fft.Fftnd.fftshift_2d ~nx ~ny s in
  check_vec ~eps:0.0 "self inverse (even dims)" v ss

let test_size_mismatch () =
  Alcotest.check_raises "2d size"
    (Invalid_argument "Fftnd.transform_2d: size mismatch") (fun () ->
      Fft.Fftnd.transform_2d Fft.Dft.Forward ~nx:4 ~ny:4 (Cvec.create 8))

let prop_fft_dft_agree =
  QCheck.Test.make ~name:"fft = dft on random sizes" ~count:60
    QCheck.(pair (int_range 1 80) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let v = rand_vec rng n in
      let fft = Fft.Fft1d.transformed Fft.Dft.Forward v in
      let dft = Fft.Dft.transform Fft.Dft.Forward v in
      Cvec.max_abs_diff fft dft <= 1e-7 *. float_of_int (max 1 n))

let prop_roundtrip =
  QCheck.Test.make ~name:"inverse_normalized . forward = id" ~count:60
    QCheck.(pair (int_range 1 128) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let v = rand_vec rng n in
      let back = Fft.Fft1d.inverse_normalized
          (Fft.Fft1d.transformed Fft.Dft.Forward v) in
      Cvec.max_abs_diff v back <= 1e-8)

(* ------------------------------------------------------------------ *)
(* Bluestein tables, pruned and blocked passes: bit-identity against the
   straightforward per-line algorithms. *)

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

(* [exact]: bit for bit; otherwise equal as floats (only the sign of an
   exact zero may differ). *)
let check_points ?(exact = true) name reference actual points =
  List.iter
    (fun k ->
      List.iter
        (fun (part, get) ->
          let a = get reference k and b = get actual k in
          if not (if exact then same_bits a b else a = b) then
            Alcotest.failf "%s: %s[%d] differs: %h vs %h" name part k a b)
        [ ("re", Cvec.unsafe_get_re); ("im", Cvec.unsafe_get_im) ])
    points

(* Bluestein as a per-line build: fresh buffers, every chirp from
   cos/sin, the kernel spectrum recomputed. *)
let bluestein_per_line dir v =
  let n = Cvec.length v in
  let m = Fft.Fft1d.next_pow2 ((2 * n) - 1) in
  let s = Fft.Dft.sign dir in
  let theta j = s *. Float.pi *. float_of_int (j * j mod (2 * n)) /. float_of_int n in
  let u = Cvec.create m and w = Cvec.create m in
  for j = 0 to n - 1 do
    let cr = cos (theta j) and ci = sin (theta j) in
    let xr = Cvec.get_re v j and xi = Cvec.get_im v j in
    Cvec.set_parts u j ((xr *. cr) -. (xi *. ci)) ((xr *. ci) +. (xi *. cr));
    Cvec.set_parts w j cr (-.ci);
    if j > 0 then Cvec.set_parts w (m - j) cr (-.ci)
  done;
  Fft.Fft1d.transform Fft.Dft.Forward u;
  Fft.Fft1d.transform Fft.Dft.Forward w;
  for j = 0 to m - 1 do
    let ar = Cvec.get_re u j and ai = Cvec.get_im u j in
    let br = Cvec.get_re w j and bi = Cvec.get_im w j in
    Cvec.set_parts u j ((ar *. br) -. (ai *. bi)) ((ar *. bi) +. (ai *. br))
  done;
  Fft.Fft1d.transform Fft.Dft.Inverse u;
  let scale = 1.0 /. float_of_int m in
  let out = Cvec.create n in
  for k = 0 to n - 1 do
    let cr = cos (theta k) and ci = sin (theta k) in
    let ur = Cvec.get_re u k *. scale and ui = Cvec.get_im u k *. scale in
    Cvec.set_parts out k ((ur *. cr) -. (ui *. ci)) ((ur *. ci) +. (ui *. cr))
  done;
  out

let test_bluestein_tables () =
  let rng = Random.State.make [| 91 |] in
  List.iter
    (fun n ->
      List.iter
        (fun dir ->
          let x = rand_vec rng n in
          let expected = bluestein_per_line dir x in
          (* Twice: the first call may build the tables, the second hits. *)
          for pass = 1 to 2 do
            let v = Cvec.copy x in
            Fft.Fft1d.transform dir v;
            check_points
              (Printf.sprintf "bluestein n=%d pass %d" n pass)
              expected v (List.init n Fun.id)
          done)
        [ Fft.Dft.Forward; Fft.Dft.Inverse ])
    [ 3; 5; 6; 12; 100; 127; 384 ]

(* The row-column transform one line at a time: each line gathered into
   its own buffer, transformed, scattered back. *)
let per_line dir ~g ~dims v =
  let out = Cvec.copy v in
  let stride = [| 1; g; g * g |] in
  let total = Cvec.length v in
  for axis = 0 to dims - 1 do
    let st = stride.(axis) in
    let line = Cvec.create g in
    for start = 0 to total - 1 do
      if start / st mod g = 0 then begin
        for j = 0 to g - 1 do
          Cvec.set line j (Cvec.get out (start + (j * st)))
        done;
        Fft.Fft1d.transform dir line;
        for j = 0 to g - 1 do
          Cvec.set out (start + (j * st)) (Cvec.get line j)
        done
      end
    done
  done;
  out

let kept ~g ~n i =
  let h = n / 2 in
  i < n - h || i >= g - h

(* Points whose every coordinate lies in the kept set. *)
let kept_points ~g ~n ~dims =
  List.filter
    (fun k ->
      kept ~g ~n (k mod g)
      && kept ~g ~n (k / g mod g)
      && (dims = 2 || kept ~g ~n (k / (g * g))))
    (List.init (int_of_float (float_of_int g ** float_of_int dims)) Fun.id)

let test_pruned_blocked () =
  let rng = Random.State.make [| 17 |] in
  let pool = Runtime.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun (dims, g, n) ->
          let total = int_of_float (float_of_int g ** float_of_int dims) in
          let all = List.init total Fun.id in
          let keep = kept_points ~g ~n ~dims in
          let x = rand_vec rng total in
          let padded = Cvec.create total in
          List.iter (fun k -> Cvec.set padded k (Cvec.get x k)) keep;
          let exact = Fft.Fft1d.is_pow2 g in
          List.iter
            (fun (pname, pool) ->
              List.iter
                (fun dir ->
                  let name what =
                    Printf.sprintf "%dd g=%d n=%d %s %s %s" dims g n what pname
                      (if dir = Fft.Dft.Forward then "fwd" else "inv")
                  in
                  let full = Cvec.copy x in
                  (if dims = 2 then Fft.Fftnd.transform_2d ?pool dir ~nx:g ~ny:g full
                   else Fft.Fftnd.transform_3d ?pool dir ~nx:g ~ny:g ~nz:g full);
                  check_points (name "blocked") (per_line dir ~g ~dims x) full all;
                  let cropped = Cvec.copy x in
                  Fft.Fftnd.transform_cropped ?pool dir ~dims ~g ~n cropped;
                  check_points (name "cropped") full cropped keep;
                  let p = Cvec.copy padded in
                  Fft.Fftnd.transform_padded ?pool dir ~dims ~g ~n p;
                  check_points ~exact (name "padded")
                    (per_line dir ~g ~dims padded) p all)
                [ Fft.Dft.Forward; Fft.Dft.Inverse ])
            [ ("serial", None); ("pool", Some pool) ])
        [ (2, 16, 8); (2, 12, 6); (2, 96, 48); (2, 256, 128); (3, 8, 4);
          (3, 12, 6) ])

(* The premise of skipping padding lines: a power-of-two line of +0.0
   transforms to +0.0 under every dispatch state. *)
let test_zero_lines_stay_zero () =
  List.iter
    (fun impl ->
      Simd.with_impl impl (fun () ->
          for logn = 0 to 9 do
            let len = 1 lsl logn in
            List.iter
              (fun dir ->
                let v = Cvec.create len in
                Fft.Fft1d.transform dir v;
                for k = 0 to (2 * len) - 1 do
                  if Int64.bits_of_float (Bigarray.Array1.get v k) <> 0L then
                    Alcotest.failf "%s len=%d: float %d is not +0.0"
                      (Simd.impl_name impl) len k
                done)
              [ Fft.Dft.Forward; Fft.Dft.Inverse ]
          done))
    (List.sort_uniq compare [ Simd.Off; Simd.Scalar; Simd.available ])

let qtests = Qutil.to_alcotests [ prop_fft_dft_agree; prop_roundtrip ]

let () =
  Alcotest.run "fft"
    [ ("helpers", [ Alcotest.test_case "pow2" `Quick test_pow2_helpers ]);
      ("fft1d",
       [ Alcotest.test_case "impulse" `Quick test_fft_impulse;
         Alcotest.test_case "single tone" `Quick test_fft_single_tone;
         Alcotest.test_case "matches dft (pow2)" `Quick test_fft_matches_dft_pow2;
         Alcotest.test_case "matches dft (bluestein)" `Quick
           test_fft_matches_dft_bluestein;
         Alcotest.test_case "bluestein primes" `Quick test_bluestein_primes;
         Alcotest.test_case "cache interleaving" `Quick test_cache_interleaving;
         Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
         Alcotest.test_case "linearity" `Quick test_fft_linearity;
         Alcotest.test_case "parseval" `Quick test_parseval ]);
      ("fftnd",
       [ Alcotest.test_case "2d matches dft" `Quick test_fft2d_matches_dft;
         Alcotest.test_case "2d roundtrip" `Quick test_fft2d_roundtrip;
         Alcotest.test_case "3d roundtrip" `Quick test_fft3d_roundtrip;
         Alcotest.test_case "3d separable" `Quick test_fft3d_separable;
         Alcotest.test_case "fftshift" `Quick test_fftshift;
         Alcotest.test_case "size mismatch" `Quick test_size_mismatch;
         Alcotest.test_case "bluestein tables = per-line build" `Quick
           test_bluestein_tables;
         Alcotest.test_case "pruned and blocked passes = per-line" `Quick
           test_pruned_blocked;
         Alcotest.test_case "zero lines stay +0.0" `Quick
           test_zero_lines_stay_zero ]);
      ("properties", qtests) ]
