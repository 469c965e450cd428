(* Differential suite for the SIMD kernel layer.

   Contract under test: every C kernel (scalar, and whichever vector ISA
   the host exposes) agrees with its OCaml twin within 4 ULP per element
   — the kernels preserve the scalar operation order, so in practice the
   results are bitwise equal, and the ULP budget is headroom, not
   licence. Both the forced-scalar leg and the auto-detected leg run in
   this one binary via [Simd.with_impl]; on a host without a vector ISA
   the implementation list collapses to scalar C alone.

   Levels exercised: raw kernel edge cases (empty streams), Sample_plan
   spread/gather replay on random plans, region-sharded parallel replay
   across pool sizes, Fft1d batched butterfly lines at random offsets and
   counts, Apodization row scaling (including in-place aliasing), and a
   full compiled adjoint in 2D and 3D. *)

module C = Numerics.Complexd
module Cvec = Numerics.Cvec
module Sample = Nufft.Sample
module Sample_plan = Nufft.Sample_plan
module Plan = Nufft.Plan
module Apodization = Nufft.Apodization
module Pool = Runtime.Pool

(* Forced scalar C plus whatever startup detection found; deduplicated so
   a scalar-only host does not run the same leg twice. *)
let impls = List.sort_uniq compare [ Simd.Scalar; Simd.available ]

let ulp_budget = 4L

(* Map the IEEE bit pattern onto a monotonic integer line so that the
   difference counts representable doubles between the two values,
   across the zero crossing included. *)
let ordered_bits x =
  let b = Int64.bits_of_float x in
  if Int64.compare b 0L >= 0 then b else Int64.sub Int64.min_int b

let ulp_diff a b =
  if a = b then 0L
  else Int64.abs (Int64.sub (ordered_bits a) (ordered_bits b))

let check_float_ulp name k part reference actual =
  if Int64.compare (ulp_diff reference actual) ulp_budget > 0 then
    Alcotest.failf "%s: %s[%d] differs by > %Ld ULP: %.17g vs %.17g" name part
      k ulp_budget reference actual

let check_cvec_ulp name reference actual =
  if Cvec.length reference <> Cvec.length actual then
    Alcotest.failf "%s: length %d vs %d" name (Cvec.length reference)
      (Cvec.length actual);
  for k = 0 to Cvec.length reference - 1 do
    check_float_ulp name k "re"
      (Cvec.unsafe_get_re reference k)
      (Cvec.unsafe_get_re actual k);
    check_float_ulp name k "im"
      (Cvec.unsafe_get_im reference k)
      (Cvec.unsafe_get_im actual k)
  done

let rand_cvec rng n =
  Cvec.init n (fun _ ->
      C.make
        (Random.State.float rng 2.0 -. 1.0)
        (Random.State.float rng 2.0 -. 1.0))

(* ------------------------------------------------------------------ *)
(* Raw kernel edge cases: empty streams and zero-length rows must be
   no-ops under every implementation (the C side guards the p = len/m
   divisions). *)

let test_empty_streams () =
  List.iter
    (fun impl ->
      Simd.with_impl impl (fun () ->
          if Simd.enabled () then begin
            let nm = Simd.impl_name impl in
            let out = Cvec.create 4 in
            Simd.spread (Cvec.create 0) [||] [||] 2 out;
            (* a one-sample plan (w = 2) and a shard that lists none *)
            Simd.spread_band (Cvec.of_complex_array [| C.one |]) [| 0; 1; 0; 2 |]
              [| 1.0; 1.0; 1.0; 1.0 |] 2 [||] 0 4 out;
            Simd.deapod_row out 0 out 0 [||] 0 0 1.0 1.0;
            check_cvec_ulp (nm ^ " empty spread/shard/deapod")
              (Cvec.create 4) out;
            let acc = Cvec.create 0 in
            Simd.gather (Cvec.create 4) [||] [||] 2 acc 0 0
          end))
    impls

(* ------------------------------------------------------------------ *)
(* Sample_plan replay: spread and gather on random plans (random window
   width, dimensionality, sample count including zero) against the OCaml
   replay loops. *)

let prop_spread_gather =
  QCheck.Test.make
    ~name:"spread/gather replay: every impl within 4 ULP of the OCaml loop"
    ~count:40
    QCheck.(
      quad (int_range 0 10_000) (* seed *)
        (int_range 0 80) (* m *)
        (int_range 2 3) (* dims *)
        (int_range 2 6) (* w *))
    (fun (seed, m, dims, w) ->
      let n = if dims = 2 then 12 else 5 in
      let g = 2 * n in
      let plan = Plan.make ~w ~n () in
      let s = Sample.random ~seed ~dims ~g m in
      let sp = Plan.compiled plan s in
      let values = s.Sample.values in
      let reference = Sample_plan.spread sp values in
      let grid =
        Cvec.init (Sample_plan.grid_length sp) (fun k ->
            C.make (cos (0.01 *. float_of_int k)) (sin (0.03 *. float_of_int k)))
      in
      let gather_ref = Sample_plan.gather sp grid in
      List.iter
        (fun impl ->
          let nm = Simd.impl_name impl in
          Simd.with_impl impl (fun () ->
              check_cvec_ulp
                (Printf.sprintf "spread %s m=%d dims=%d w=%d" nm m dims w)
                reference
                (Sample_plan.spread ~simd:true sp values);
              check_cvec_ulp
                (Printf.sprintf "gather %s m=%d dims=%d w=%d" nm m dims w)
                gather_ref
                (Sample_plan.gather ~simd:true sp grid)))
        impls;
      true)

(* ------------------------------------------------------------------ *)
(* Width specialisation: the C kernels instantiate one body per window
   width 2..16 in 2D and 3D and keep a generic body for wider windows.
   Every instance must reproduce the OCaml loop bit for bit, under every
   dispatch state, on samples whose windows cross the wrap seam. *)

let check_bits name reference actual =
  for k = 0 to (2 * Cvec.length reference) - 1 do
    let a = Bigarray.Array1.get reference k
    and b = Bigarray.Array1.get actual k in
    if Int64.bits_of_float a <> Int64.bits_of_float b then
      Alcotest.failf "%s: float %d differs: %h vs %h" name k a b
  done

let test_width_specialisation () =
  List.iter
    (fun dims ->
      for w = 2 to 17 do
        let n = if dims = 2 then 12 else 9 in
        let plan = Plan.make ~w ~n () in
        let s =
          Qutil.seam_samples ~seed:(w + (100 * dims)) ~dims ~g:plan.Plan.g 40
        in
        let sp = Plan.compiled plan s in
        let values = s.Sample.values in
        let spread_ref = Sample_plan.spread sp values in
        let grid =
          Cvec.init (Sample_plan.grid_length sp) (fun k ->
              C.make (cos (0.01 *. float_of_int k)) (sin (0.03 *. float_of_int k)))
        in
        let gather_ref = Sample_plan.gather sp grid in
        List.iter
          (fun impl ->
            Simd.with_impl impl (fun () ->
                let nm = Printf.sprintf "%s dims=%d w=%d" (Simd.impl_name impl) dims w in
                check_bits ("spread " ^ nm) spread_ref
                  (Sample_plan.spread ~simd:true sp values);
                check_bits ("gather " ^ nm) gather_ref
                  (Sample_plan.gather ~simd:true sp grid)))
          (List.sort_uniq compare [ Simd.Off; Simd.Scalar; Simd.available ])
      done)
    [ 2; 3 ]

(* ------------------------------------------------------------------ *)
(* The forward accumulation order. Each sample's window rows are summed
   row-factored — even-x taps and odd-x taps in two brackets, then the
   last tap of an odd width — and the row sum is scaled by the row
   weight into an accumulator that starts at 0.0. The reference below
   is written straight from that definition over the plan's
   [axis_window]s, each bracket starting with its first tap; the OCaml
   replay ([Off]), every C implementation and the 2D/3D interpolation
   loops must equal it bit for bit. A copy of the previous
   entry-by-entry order shows the change of order moves results by
   rounding only. *)

let gather_windows sp j =
  let dims = Sample_plan.dims sp in
  let axis a = Sample_plan.axis_window sp ~sample:j ~axis:a in
  let zs = if dims = 3 then axis 2 else ([| 0 |], [| 1.0 |]) in
  (axis 0, axis 1, zs)

let literal_gather sp grid =
  let m = Sample_plan.length sp and dims = Sample_plan.dims sp in
  let out = Cvec.create m in
  for j = 0 to m - 1 do
    let (ox, wx), (oy, wy), (oz, wz) = gather_windows sp j in
    let w = Array.length ox in
    let acc_re = ref 0.0 and acc_im = ref 0.0 in
    Array.iteri
      (fun iz plane ->
        Array.iteri
          (fun iy row_off ->
            let row = plane + row_off in
            let tap i =
              ( wx.(i) *. Cvec.get_re grid (row + ox.(i)),
                wx.(i) *. Cvec.get_im grid (row + ox.(i)) )
            in
            let bracket first =
              let r = ref (tap first) in
              let i = ref (first + 2) in
              while !i + (1 - first) < w do
                let tr, ti = tap !i and rr, ri = !r in
                r := (rr +. tr, ri +. ti);
                i := !i + 2
              done;
              !r
            in
            let (er, ei), (odr, odi) = (bracket 0, bracket 1) in
            let rr, ri =
              if w land 1 = 1 then
                let tr, ti = tap (w - 1) in
                (er +. odr +. tr, ei +. odi +. ti)
              else (er +. odr, ei +. odi)
            in
            let wr = if dims = 3 then wz.(iz) *. wy.(iy) else wy.(iy) in
            acc_re := !acc_re +. (wr *. rr);
            acc_im := !acc_im +. (wr *. ri))
          oy)
      oz;
    Cvec.set_parts out j !acc_re !acc_im
  done;
  out

(* The order before the row factoring: one accumulator, entry by entry,
   weight (wz*wy)*wx (wx*wy in 2D). *)
let entry_order_gather sp grid =
  let m = Sample_plan.length sp and dims = Sample_plan.dims sp in
  let out = Cvec.create m in
  for j = 0 to m - 1 do
    let (ox, wx), (oy, wy), (oz, wz) = gather_windows sp j in
    let acc_re = ref 0.0 and acc_im = ref 0.0 in
    Array.iteri
      (fun iz plane ->
        Array.iteri
          (fun iy row_off ->
            Array.iteri
              (fun ix kx ->
                let k = plane + row_off + kx in
                let weight =
                  if dims = 3 then wz.(iz) *. wy.(iy) *. wx.(ix)
                  else wx.(ix) *. wy.(iy)
                in
                acc_re := !acc_re +. (weight *. Cvec.get_re grid k);
                acc_im := !acc_im +. (weight *. Cvec.get_im grid k))
              ox)
          oy)
      oz;
    Cvec.set_parts out j !acc_re !acc_im
  done;
  out

let relative_l2 reference actual =
  let num = ref 0.0 and den = ref 0.0 in
  for k = 0 to (2 * Cvec.length reference) - 1 do
    let a = Bigarray.Array1.get reference k
    and b = Bigarray.Array1.get actual k in
    num := !num +. ((a -. b) *. (a -. b));
    den := !den +. (a *. a)
  done;
  sqrt (!num /. !den)

let test_gather_order () =
  List.iter
    (fun dims ->
      for w = 2 to 16 do
        let n = if dims = 2 then 12 else 9 in
        let plan = Plan.make ~w ~n () in
        let g = plan.Plan.g in
        let s = Qutil.seam_samples ~seed:(7 * w + dims) ~dims ~g 40 in
        let sp = Plan.compiled plan s in
        let grid = rand_cvec (Random.State.make [| w; dims |]) (Sample_plan.grid_length sp) in
        let nm = Printf.sprintf "dims=%d w=%d" dims w in
        let literal = literal_gather sp grid in
        let off = Simd.with_impl Simd.Off (fun () -> Sample_plan.gather sp grid) in
        check_bits ("Off gather = literal formula " ^ nm) literal off;
        List.iter
          (fun impl ->
            Simd.with_impl impl (fun () ->
                check_bits
                  (Printf.sprintf "%s gather = Off %s" (Simd.impl_name impl) nm)
                  off
                  (Sample_plan.gather ~simd:true sp grid)))
          impls;
        let table = plan.Plan.table in
        let interp =
          if dims = 2 then
            Nufft.Gridding.interp_2d ~table ~g ~gx:(Sample.gx s) ~gy:(Sample.gy s) grid
          else
            Nufft.Gridding3d.interp_3d ~table ~g ~gx:(Sample.gx s)
              ~gy:(Sample.gy s) ~gz:(Sample.gz s) grid
        in
        check_bits ("interpolation loop = Off " ^ nm) off interp;
        let drift = relative_l2 (entry_order_gather sp grid) off in
        if not (drift <= 1e-12) then
          Alcotest.failf "%s: relative L2 drift from the entry order %g > 1e-12"
            nm drift
      done)
    [ 2; 3 ]

(* [gather] writes every output slot, so skipping the zero fill of its
   output changes nothing: on memory left dirty by freed NaN-filled
   buffers, serial and pooled gathers still equal the literal formula
   (an unwritten slot would read NaN or stale data). *)
let test_gather_uninit_output () =
  let plan = Plan.make ~n:16 () in
  let g = plan.Plan.g in
  let pool = Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun m ->
          let s = Qutil.seam_samples ~seed:m ~dims:2 ~g m in
          let sp = Plan.compiled plan s in
          let grid = rand_cvec (Random.State.make [| m |]) (g * g) in
          let literal = literal_gather sp grid in
          for _ = 1 to 4 do
            let junk = Cvec.create m in
            Bigarray.Array1.fill junk Float.nan;
            ignore (Sys.opaque_identity junk);
            Gc.full_major ();
            List.iter
              (fun impl ->
                Simd.with_impl impl (fun () ->
                    let nm = Printf.sprintf "%s m=%d" (Simd.impl_name impl) m in
                    check_bits ("gather " ^ nm) literal
                      (Sample_plan.gather ~simd:true sp grid);
                    check_bits ("gather_parallel " ^ nm) literal
                      (Sample_plan.gather_parallel ~pool ~simd:true sp grid)))
              (List.sort_uniq compare (Simd.Off :: impls))
          done)
        [ 0; 1; 7; 300 ])

(* ------------------------------------------------------------------ *)
(* Region-sharded replay: each shard replays its sample list through the
   serial spread body and skips the window rows outside its band, so
   every pool size must reproduce the serial OCaml spread bit for bit —
   in 2D and 3D, at every specialised width, under every dispatch state,
   with seam samples whose windows wrap from row g-1 to row 0 across the
   first and last bands. *)

let pool_sizes = [ 1; 2; 3; 4; 7 ]

let test_shard_replay () =
  let cases =
    List.concat_map
      (fun dims ->
        List.init 15 (fun i ->
            let w = i + 2 in
            let n = if dims = 2 then 12 else 9 in
            let plan = Plan.make ~w ~n () in
            let s =
              Qutil.seam_samples ~seed:(w + (10 * dims)) ~dims
                ~g:plan.Plan.g 60
            in
            let sp = Plan.compiled plan s in
            (dims, w, sp, s.Sample.values, Sample_plan.spread sp s.Sample.values)))
      [ 2; 3 ]
  in
  List.iter
    (fun d ->
      let pool = Pool.create ~domains:d () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          List.iter
            (fun impl ->
              Simd.with_impl impl (fun () ->
                  List.iter
                    (fun (dims, w, sp, values, reference) ->
                      check_bits
                        (Printf.sprintf "shard replay %s pool=%d dims=%d w=%d"
                           (Simd.impl_name impl) d dims w)
                        reference
                        (Sample_plan.spread_parallel ~pool ~simd:true sp
                           values))
                    cases))
            (List.sort_uniq compare [ Simd.Off; Simd.Scalar; Simd.available ])))
    pool_sizes

(* ------------------------------------------------------------------ *)
(* Batched butterfly lines: random power-of-two lengths 1 to 4096, so
   both the lengths the vector kernel hands to scalar code (1, 2) and
   the fused-stage path with an even and an odd number of stages after
   the first, random line counts, random leading offset, both
   directions; the untouched prefix and tail are part of the comparison,
   so an out-of-range vector store fails the test. The kernels perform
   the OCaml butterflies' operations in the same order, so every
   implementation must match bit for bit. *)

let prop_fft_batch =
  QCheck.Test.make
    ~name:"fft_batch lines: every impl within 4 ULP of the OCaml butterflies"
    ~count:60
    QCheck.(
      quad (int_range 0 10_000) (* seed *)
        (int_range 0 12) (* log2 len *)
        (int_range 1 5) (* count *)
        (pair (int_range 0 9) bool) (* leading offset, direction *))
    (fun (seed, logn, count, (off, fwd)) ->
      let len = 1 lsl logn in
      let dir = if fwd then Fft.Dft.Forward else Fft.Dft.Inverse in
      let rng = Random.State.make [| seed |] in
      let base = rand_cvec rng (off + (count * len) + 3) in
      let run impl =
        let v = Cvec.copy base in
        Simd.with_impl impl (fun () ->
            Fft.Fft1d.transform_batch dir v ~off ~count ~len);
        v
      in
      let reference = run Simd.Off in
      List.iter
        (fun impl ->
          check_bits
            (Printf.sprintf "fft_batch %s len=%d count=%d off=%d"
               (Simd.impl_name impl) len count off)
            reference (run impl))
        impls;
      true)

(* ------------------------------------------------------------------ *)
(* Deapodization row scaling: random lengths (including 0 and 1) and
   offsets, 2D (fz = 1.0) and 3D factor shapes, against the OCaml loop;
   a separate case checks the in-place aliasing pattern used by
   [Apodization.divide_2d]. *)

let prop_deapod_row =
  QCheck.Test.make
    ~name:"deapod row: every impl within 4 ULP of the OCaml loop" ~count:100
    QCheck.(pair (int_range 0 10_000) (int_range 0 50))
    (fun (seed, len) ->
      let rng = Random.State.make [| seed |] in
      let doff = Random.State.int rng 4
      and soff = Random.State.int rng 4
      and foff = Random.State.int rng 4 in
      let fy = 0.5 +. Random.State.float rng 1.5 in
      let fz =
        if Random.State.bool rng then 1.0
        else 0.5 +. Random.State.float rng 1.5
      in
      let f =
        Array.init (foff + len) (fun _ ->
            0.5 +. Random.State.float rng 1.5)
      in
      let src = rand_cvec rng (soff + len) in
      let dst0 = rand_cvec rng (doff + len + 2) in
      let run impl =
        let dst = Cvec.copy dst0 in
        Simd.with_impl impl (fun () ->
            Apodization.scale_row_into ~dst ~dst_off:doff ~src ~src_off:soff
              ~f ~f_off:foff ~len ~fy ~fz);
        dst
      in
      let reference = run Simd.Off in
      List.iter
        (fun impl ->
          check_cvec_ulp
            (Printf.sprintf "deapod %s len=%d doff=%d soff=%d foff=%d"
               (Simd.impl_name impl) len doff soff foff)
            reference (run impl))
        impls;
      true)

let test_deapod_in_place () =
  let rng = Random.State.make [| 4242 |] in
  let len = 33 in
  let f = Array.init len (fun _ -> 0.5 +. Random.State.float rng 1.5) in
  let base = rand_cvec rng len in
  let run impl =
    let v = Cvec.copy base in
    Simd.with_impl impl (fun () ->
        Apodization.scale_row_into ~dst:v ~dst_off:0 ~src:v ~src_off:0 ~f
          ~f_off:0 ~len ~fy:1.25 ~fz:1.0);
    v
  in
  let reference = run Simd.Off in
  List.iter
    (fun impl ->
      check_cvec_ulp
        ("in-place deapod " ^ Simd.impl_name impl)
        reference (run impl))
    impls

(* ------------------------------------------------------------------ *)
(* End to end: a full compiled adjoint (spread + FFT passes + crop with
   deapodization) with every stage dispatched through the kernels, vs
   the same plan with dispatch off. *)

let test_adjoint_end_to_end () =
  List.iter
    (fun dims ->
      let n = if dims = 2 then 16 else 6 in
      let g = 2 * n in
      let plan = Plan.make ~n () in
      let s = Sample.random ~seed:(50 + dims) ~dims ~g 200 in
      let reference =
        Simd.with_impl Simd.Off (fun () -> Plan.adjoint_compiled plan s)
      in
      List.iter
        (fun impl ->
          Simd.with_impl impl (fun () ->
              check_cvec_ulp
                (Printf.sprintf "%dd adjoint %s" dims (Simd.impl_name impl))
                reference
                (Plan.adjoint_compiled plan s)))
        impls)
    [ 2; 3 ]

let () =
  let quick f = List.map (fun (name, g) -> (name, `Quick, g)) f in
  Alcotest.run "simd"
    [ ("kernels", quick [ ("empty streams", test_empty_streams) ]);
      ( "replay",
        Qutil.to_alcotests [ prop_spread_gather ]
        @ quick
            [ ("sharded replay across pools", test_shard_replay);
              ("every specialised width bitwise", test_width_specialisation) ]
      );
      ( "gather",
        quick
          [ ("row-factored order bitwise", test_gather_order);
            ("unfilled outputs unchanged", test_gather_uninit_output) ] );
      ("fft", Qutil.to_alcotests [ prop_fft_batch ]);
      ( "deapod",
        Qutil.to_alcotests [ prop_deapod_row ]
        @ quick [ ("in-place row", test_deapod_in_place) ] );
      ( "end-to-end",
        quick [ ("compiled adjoint 2d/3d", test_adjoint_end_to_end) ] )
    ]
