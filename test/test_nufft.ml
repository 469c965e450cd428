(* Validation of the core library: coordinate decomposition, the four
   gridding engines, and the NuFFT pipelines against the exact NuDFT. *)

module C = Numerics.Complexd
module Cvec = Numerics.Cvec
module Wt = Numerics.Weight_table
module Window = Numerics.Window
module Coord = Nufft.Coord
module Sample = Nufft.Sample
module Nudft = Nufft.Nudft
module Gridding = Nufft.Gridding
module Stats = Nufft.Gridding_stats

let check_close ?(eps = 1e-12) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let check_vec ?(eps = 1e-9) msg expected actual =
  let d = Cvec.max_abs_diff expected actual in
  if d > eps then Alcotest.failf "%s: max diff %g > %g" msg d eps

let table ?(precision = Wt.Double) ?(w = 6) ?(l = 512) ?(sigma = 2.0) () =
  Wt.make ~precision ~kernel:(Window.default_kaiser_bessel ~width:w ~sigma)
    ~width:w ~l ()

(* ------------------------------------------------------------------ *)
(* Coord *)

let test_window_start () =
  (* w=6, u=10.3: kmax = floor(13.3) = 13, start = 8. *)
  Alcotest.(check int) "u=10.3" 8 (Coord.window_start ~w:6 10.3);
  (* w=6, u=0.0: kmax = 3, start = -2. *)
  Alcotest.(check int) "u=0" (-2) (Coord.window_start ~w:6 0.0);
  (* w=4, u=5.5: kmax = floor(7.5) = 7, start = 4. *)
  Alcotest.(check int) "u=5.5 w=4" 4 (Coord.window_start ~w:4 5.5)

let test_wrap () =
  Alcotest.(check int) "in range" 5 (Coord.wrap ~g:16 5);
  Alcotest.(check int) "negative" 14 (Coord.wrap ~g:16 (-2));
  Alcotest.(check int) "over" 1 (Coord.wrap ~g:16 17);
  Alcotest.(check int) "far negative" 15 (Coord.wrap ~g:16 (-17))

let test_iter_window () =
  let w = 6 and g = 16 in
  let pts = ref [] in
  Coord.iter_window ~w ~g 10.3 (fun ~k ~dist -> pts := (k, dist) :: !pts);
  let pts = List.rev !pts in
  Alcotest.(check int) "count" w (List.length pts);
  List.iter
    (fun (k, dist) ->
      Alcotest.(check bool) "k in range" true (k >= 0 && k < g);
      Alcotest.(check bool)
        (Printf.sprintf "dist %g in [-w/2, w/2)" dist)
        true
        (dist >= -3.0 && dist < 3.0))
    pts;
  (* Unwrapped points are start..start+5 = 8..13 with dists k - 10.3. *)
  let ks = List.map fst pts in
  Alcotest.(check (list int)) "points" [ 8; 9; 10; 11; 12; 13 ] ks;
  check_close "first dist" (-2.3) (List.assoc 8 pts)

let test_iter_window_wraps () =
  let w = 6 and g = 16 in
  let pts = ref [] in
  Coord.iter_window ~w ~g 0.5 (fun ~k ~dist:_ -> pts := k :: !pts);
  (* start = floor(3.5) - 5 = -2: points -2..3 wrap to 14,15,0,1,2,3. *)
  Alcotest.(check (list int)) "wrapped" [ 14; 15; 0; 1; 2; 3 ]
    (List.rev !pts)

let test_decompose () =
  let q, r = Coord.decompose ~t:8 19.25 in
  Alcotest.(check int) "tile" 2 q;
  check_close "relative" 3.25 r;
  Alcotest.check_raises "negative"
    (Invalid_argument "Coord.decompose: negative coordinate") (fun () ->
      ignore (Coord.decompose ~t:8 (-0.1)))

let test_check_tiling () =
  Coord.check_tiling ~t:8 ~g:64 ~w:6;
  Alcotest.check_raises "w > t"
    (Invalid_argument "Coord: window width must not exceed tile size")
    (fun () -> Coord.check_tiling ~t:4 ~g:64 ~w:6);
  Alcotest.check_raises "t !| g"
    (Invalid_argument "Coord: tile size must divide grid size") (fun () ->
      Coord.check_tiling ~t:8 ~g:60 ~w:6)

(* Oracle: a column is hit iff some window point k has k mod t = column;
   compare every field of the decomposition-based check against a direct
   scan of the window. *)
let column_check_oracle ~w ~t ~g ~column u =
  let result = ref None in
  Coord.iter_window ~w ~g:(max g (10 * t)) u (fun ~k:_ ~dist:_ -> ignore ());
  (* scan unwrapped *)
  let start = Coord.window_start ~w u in
  for j = 0 to w - 1 do
    let k = start + j in
    let c = Coord.wrap ~g:t k in
    if c = column then begin
      let n_tiles = g / t in
      let tile_unwrapped =
        if k >= 0 then k / t else ((k + 1) / t) - 1
      in
      result :=
        Some
          ( Coord.wrap ~g k,
            Coord.wrap ~g:n_tiles tile_unwrapped,
            float_of_int k -. u )
    end
  done;
  !result

let prop_column_check =
  QCheck.Test.make ~name:"column_check agrees with window-scan oracle"
    ~count:2000
    QCheck.(
      quad (int_range 1 8) (* w *)
        (int_range 0 7) (* column *)
        (int_range 1 8) (* n_tiles *)
        (float_range 0.0 0.9999))
    (fun (w, column, n_tiles, frac) ->
      let t = 8 in
      let g = t * n_tiles in
      let u = frac *. float_of_int g in
      let got = Coord.column_check ~w ~t ~g ~column u in
      let expected = column_check_oracle ~w ~t ~g ~column u in
      match (got, expected) with
      | None, None -> true
      | Some h, Some (k, tile, dist) ->
          h.Coord.k_wrapped = k && h.Coord.tile = tile
          && Float.abs (h.Coord.dist -. dist) < 1e-9
      | _ -> false)

let test_affected_columns () =
  let cols = Coord.affected_columns ~w:6 ~t:8 10.3 in
  Alcotest.(check int) "count" 6 (List.length cols);
  Alcotest.(check int) "distinct" 6
    (List.length (List.sort_uniq compare cols));
  (* points 8..13 -> columns 0..5 *)
  Alcotest.(check (list int)) "values" [ 0; 1; 2; 3; 4; 5 ] cols

let test_column_check_wrap_flag () =
  (* Sample at u = 16.2 in tile 2 (t=8): window covers 14..19, so point 14
     (column 6) lies in tile 1 — a wrap into the previous tile. *)
  let u = 16.2 and t = 8 and g = 32 and w = 6 in
  (match Coord.column_check ~w ~t ~g ~column:6 u with
  | Some h ->
      Alcotest.(check int) "k" 14 h.Coord.k_wrapped;
      Alcotest.(check int) "tile" 1 h.Coord.tile;
      Alcotest.(check bool) "wrapped" true h.Coord.wrapped_tile
  | None -> Alcotest.fail "expected hit in column 6");
  match Coord.column_check ~w ~t ~g ~column:0 u with
  | Some h ->
      Alcotest.(check int) "k" 16 h.Coord.k_wrapped;
      Alcotest.(check int) "tile" 2 h.Coord.tile;
      Alcotest.(check bool) "not wrapped" false h.Coord.wrapped_tile
  | None -> Alcotest.fail "expected hit in column 0"

(* ------------------------------------------------------------------ *)
(* Engine agreement *)

(* Every scheme, including the pool-parallel one (which runs on the global
   domain pool when dispatched without an explicit pool). *)
let engines g = Gridding.all_schemes ~g ~w:6

let test_engines_agree_1d () =
  let g = 64 and m = 150 in
  let tbl = table () in
  let s = Sample.random_2d ~seed:5 ~g m in
  let reference =
    Gridding.grid_1d Gridding.Serial ~table:tbl ~g ~coords:(Sample.gx s)
      s.Sample.values
  in
  List.iter
    (fun e ->
      let got = Gridding.grid_1d e ~table:tbl ~g ~coords:(Sample.gx s)
          s.Sample.values in
      check_vec ~eps:1e-11
        (Printf.sprintf "1d %s" (Gridding.engine_name e))
        reference got)
    (engines g)

let test_engines_agree_2d () =
  let g = 32 and m = 200 in
  let tbl = table () in
  let s = Sample.random_2d ~seed:9 ~g m in
  let reference =
    Gridding.grid_2d Gridding.Serial ~table:tbl ~g ~gx:(Sample.gx s)
      ~gy:(Sample.gy s) s.Sample.values
  in
  List.iter
    (fun e ->
      let got =
        Gridding.grid_2d e ~table:tbl ~g ~gx:(Sample.gx s) ~gy:(Sample.gy s)
          s.Sample.values
      in
      check_vec ~eps:1e-11
        (Printf.sprintf "2d %s" (Gridding.engine_name e))
        reference got)
    (engines g)

let test_slice_fast_bitwise_equal_serial () =
  let g = 64 and m = 300 in
  let tbl = table () in
  let s = Sample.random_2d ~seed:123 ~g m in
  let serial =
    Gridding.grid_2d Gridding.Serial ~table:tbl ~g ~gx:(Sample.gx s)
      ~gy:(Sample.gy s) s.Sample.values
  in
  let fast =
    Nufft.Gridding_slice.grid_2d_fast ~table:tbl ~g ~t:8 ~gx:(Sample.gx s)
      ~gy:(Sample.gy s) s.Sample.values
  in
  check_vec ~eps:0.0 "bitwise equal" serial fast

let test_slice_faithful_agrees () =
  let g = 32 and m = 100 in
  let tbl = table () in
  let s = Sample.random_2d ~seed:77 ~g m in
  let serial =
    Gridding.grid_2d Gridding.Serial ~table:tbl ~g ~gx:(Sample.gx s)
      ~gy:(Sample.gy s) s.Sample.values
  in
  let faithful =
    Nufft.Gridding_slice.grid_2d ~table:tbl ~g ~t:8 ~gx:(Sample.gx s)
      ~gy:(Sample.gy s) s.Sample.values
  in
  check_vec ~eps:1e-11 "column-outer schedule" serial faithful

let test_slice_parallel_agrees () =
  let g = 32 and m = 150 in
  let tbl = table () in
  let s = Sample.random_2d ~seed:88 ~g m in
  let faithful =
    Nufft.Gridding_slice.grid_2d ~table:tbl ~g ~t:8 ~gx:(Sample.gx s)
      ~gy:(Sample.gy s) s.Sample.values
  in
  List.iter
    (fun domains ->
      let par =
        Nufft.Gridding_slice.grid_2d_parallel ~domains ~table:tbl ~g ~t:8
          ~gx:(Sample.gx s) ~gy:(Sample.gy s) s.Sample.values
      in
      (* Same per-column accumulation order as the column-outer schedule:
         bitwise identical regardless of domain count. *)
      check_vec ~eps:0.0
        (Printf.sprintf "parallel(%d domains) = column-outer" domains)
        faithful par)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Alcotest.check_raises "domains < 1"
    (Invalid_argument "Gridding_slice.grid_2d_parallel: domains < 1")
    (fun () ->
      ignore
        (Nufft.Gridding_slice.grid_2d_parallel ~domains:0 ~table:tbl ~g ~t:8
           ~gx:(Sample.gx s) ~gy:(Sample.gy s) s.Sample.values))

let test_slice_parallel_pool_reuse () =
  (* One long-lived pool serving several submissions gives the same bits
     as throwaway per-call pools, and an explicit pool overrides the
     throwaway-[domains] path entirely. *)
  let g = 32 and m = 150 in
  let tbl = table () in
  let pool = Runtime.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun seed ->
          let s = Sample.random_2d ~seed ~g m in
          let faithful =
            Nufft.Gridding_slice.grid_2d ~table:tbl ~g ~t:8 ~gx:(Sample.gx s)
              ~gy:(Sample.gy s) s.Sample.values
          in
          let pooled =
            Nufft.Gridding_slice.grid_2d_parallel ~pool ~table:tbl ~g ~t:8
              ~gx:(Sample.gx s) ~gy:(Sample.gy s) s.Sample.values
          in
          check_vec ~eps:0.0
            (Printf.sprintf "pooled seed %d" seed)
            faithful pooled)
        [ 10; 11; 12; 13 ])

let test_mass_conservation () =
  (* Sum over the grid of each sample's contributions = value * (sum of
     window weights in x) * (sum in y); check total grid mass against a
     direct evaluation. *)
  let g = 32 and m = 50 in
  let tbl = table () in
  let s = Sample.random_2d ~seed:31 ~g m in
  let grid =
    Gridding.grid_2d Gridding.Serial ~table:tbl ~g ~gx:(Sample.gx s)
      ~gy:(Sample.gy s) s.Sample.values
  in
  let total = Cvec.fold (fun acc c -> C.add acc c) C.zero grid in
  let expected = ref C.zero in
  for j = 0 to m - 1 do
    let sum1d u =
      let acc = ref 0.0 in
      Coord.iter_window ~w:6 ~g u (fun ~k:_ ~dist ->
          acc := !acc +. Wt.lookup tbl dist);
      !acc
    in
    expected :=
      C.add !expected
        (C.scale
           (sum1d (Sample.gx s).(j) *. sum1d (Sample.gy s).(j))
           (Cvec.get s.Sample.values j))
  done;
  check_close ~eps:1e-9 "mass re" (!expected).C.re total.C.re;
  check_close ~eps:1e-9 "mass im" (!expected).C.im total.C.im

let prop_engines_agree =
  QCheck.Test.make ~name:"all engines produce the serial grid" ~count:25
    QCheck.(triple (int_range 0 1000) (int_range 10 120) (int_range 2 6))
    (fun (seed, m, w_half) ->
      let w = 2 * w_half in
      let g = 32 in
      let tbl = table ~w () in
      let s = Sample.random_2d ~seed ~g m in
      let reference =
        Gridding.grid_2d Gridding.Serial ~table:tbl ~g ~gx:(Sample.gx s)
          ~gy:(Sample.gy s) s.Sample.values
      in
      List.for_all
        (fun e ->
          let got =
            Gridding.grid_2d e ~table:tbl ~g ~gx:(Sample.gx s) ~gy:(Sample.gy s)
              s.Sample.values
          in
          Cvec.max_abs_diff reference got < 1e-10)
        (Gridding.all_schemes ~g ~w))

let test_empty_sample_set () =
  (* m = 0 must be handled by every engine (empty acquisition). *)
  let g = 32 in
  let tbl = table () in
  let empty = [||] and no_values = Cvec.create 0 in
  List.iter
    (fun e ->
      let grid =
        Gridding.grid_2d e ~table:tbl ~g ~gx:empty ~gy:empty no_values
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s zero grid" (Gridding.engine_name e))
        0.0 (Cvec.norm2 grid))
    (Gridding.default_engines ~g ~w:6);
  let back = Gridding.interp_2d ~table:tbl ~g ~gx:empty ~gy:empty
      (Cvec.create (g * g)) in
  Alcotest.(check int) "empty interp" 0 (Cvec.length back)

let test_window_equals_tile () =
  (* w = t = 8: every column is hit by every sample exactly once. *)
  let g = 32 and t = 8 and w = 8 in
  let tbl = table ~w () in
  let s = Sample.random_2d ~seed:14 ~g 60 in
  let serial =
    Gridding.grid_2d Gridding.Serial ~table:tbl ~g ~gx:(Sample.gx s)
      ~gy:(Sample.gy s) s.Sample.values
  in
  let slice =
    Nufft.Gridding_slice.grid_2d ~table:tbl ~g ~t ~gx:(Sample.gx s)
      ~gy:(Sample.gy s) s.Sample.values
  in
  check_vec ~eps:1e-11 "w = t" serial slice;
  (* Every column check must hit. *)
  for column = 0 to t - 1 do
    for j = 0 to 9 do
      match Coord.column_check ~w ~t ~g ~column (Sample.gx s).(j) with
      | Some _ -> ()
      | None -> Alcotest.failf "column %d missed sample %d with w = t" column j
    done
  done

let test_w1_minimal_window () =
  (* w = 1: nearest-neighbour gridding; each sample touches one point.
     (Kaiser-Bessel's Beatty beta is undefined this narrow, so use a
     Gaussian window.) *)
  let g = 16 in
  let tbl =
    Wt.make ~kernel:(Window.default_gaussian ~width:1) ~width:1 ~l:64 ()
  in
  let s = Sample.random_2d ~seed:77 ~g 25 in
  let st = Stats.create () in
  let grid =
    Gridding.grid_2d ~stats:st Gridding.Serial ~table:tbl ~g ~gx:(Sample.gx s)
      ~gy:(Sample.gy s) s.Sample.values
  in
  Alcotest.(check int) "one accumulate per sample" 25 st.Stats.grid_accumulates;
  Alcotest.(check bool) "mass placed" true (Cvec.norm2 grid > 0.0)

(* ------------------------------------------------------------------ *)
(* Stats accounting *)

let test_stats_serial () =
  let g = 32 and m = 40 and w = 6 in
  let tbl = table ~w () in
  let s = Sample.random_2d ~seed:1 ~g m in
  let st = Stats.create () in
  ignore
    (Gridding.grid_2d ~stats:st Gridding.Serial ~table:tbl ~g ~gx:(Sample.gx s)
       ~gy:(Sample.gy s) s.Sample.values);
  Alcotest.(check int) "samples" m st.Stats.samples_processed;
  Alcotest.(check int) "no checks" 0 st.Stats.boundary_checks;
  Alcotest.(check int) "accumulates" (m * w * w) st.Stats.grid_accumulates

let test_stats_output_parallel () =
  let g = 16 and m = 10 and w = 4 in
  let tbl = table ~w () in
  let s = Sample.random_2d ~seed:2 ~g m in
  let st = Stats.create () in
  ignore
    (Gridding.grid_2d ~stats:st Gridding.Output_parallel ~table:tbl ~g
       ~gx:(Sample.gx s) ~gy:(Sample.gy s) s.Sample.values);
  (* One check per (grid point, sample) pair at least (x dim); hits check y
     too but the dominant term M * G^2 must be present. *)
  Alcotest.(check bool) "M*G^2 checks" true
    (st.Stats.boundary_checks >= m * g * g);
  Alcotest.(check int) "accumulates" (m * w * w) st.Stats.grid_accumulates

let test_stats_slice () =
  let g = 32 and m = 25 and w = 6 and t = 8 in
  let tbl = table ~w () in
  let s = Sample.random_2d ~seed:3 ~g m in
  let st = Stats.create () in
  ignore
    (Nufft.Gridding_slice.grid_2d ~stats:st ~table:tbl ~g ~t ~gx:(Sample.gx s)
       ~gy:(Sample.gy s) s.Sample.values);
  Alcotest.(check int) "M*T^2 checks" (m * t * t) st.Stats.boundary_checks;
  Alcotest.(check int) "accumulates" (m * w * w) st.Stats.grid_accumulates;
  Alcotest.(check int) "no presort" 0 st.Stats.presort_ops

let test_stats_slice_parallel () =
  (* The pool-parallel driver accounts exactly like the faithful
     column-outer schedule — M*T^2 boundary checks, M*w^2 accumulations —
     whatever the pool size (per-chunk counters merged at the end). *)
  let g = 32 and m = 25 and w = 6 and t = 8 in
  let tbl = table ~w () in
  let s = Sample.random_2d ~seed:3 ~g m in
  let serial_st = Stats.create () in
  ignore
    (Nufft.Gridding_slice.grid_2d ~stats:serial_st ~table:tbl ~g ~t
       ~gx:(Sample.gx s) ~gy:(Sample.gy s) s.Sample.values);
  List.iter
    (fun domains ->
      let st = Stats.create () in
      ignore
        (Nufft.Gridding_slice.grid_2d_parallel ~stats:st ~domains ~table:tbl
           ~g ~t ~gx:(Sample.gx s) ~gy:(Sample.gy s) s.Sample.values);
      Alcotest.(check int) "M*T^2 checks" (m * t * t) st.Stats.boundary_checks;
      Alcotest.(check int) "samples" m st.Stats.samples_processed;
      Alcotest.(check int) "checks = column-outer" serial_st.Stats.boundary_checks
        st.Stats.boundary_checks;
      Alcotest.(check int) "lookups = column-outer" serial_st.Stats.window_evals
        st.Stats.window_evals;
      Alcotest.(check int) "accums = column-outer"
        serial_st.Stats.grid_accumulates st.Stats.grid_accumulates;
      Alcotest.(check int) "no presort" 0 st.Stats.presort_ops)
    [ 1; 3 ]

let test_stats_binned_duplicates () =
  let g = 32 and m = 60 and w = 6 and bin = 8 in
  let tbl = table ~w () in
  let s = Sample.random_2d ~seed:4 ~g m in
  let st = Stats.create () in
  ignore
    (Gridding.grid_2d ~stats:st (Gridding.Binned bin) ~table:tbl ~g
       ~gx:(Sample.gx s) ~gy:(Sample.gy s) s.Sample.values);
  Alcotest.(check bool) "presort happened" true (st.Stats.presort_ops >= m);
  Alcotest.(check bool) "duplicate visits" true
    (st.Stats.samples_processed > m);
  Alcotest.(check int) "presort = visits" st.Stats.samples_processed
    st.Stats.presort_ops;
  (* Every engine still performs exactly m*w^2 accumulations. *)
  Alcotest.(check int) "accumulates" (m * w * w) st.Stats.grid_accumulates

let test_duplication_factor () =
  let g = 64 and w = 6 and bin = 8 in
  (* With w=6 and bin=8 a 1D window spans >= 1 tile and <= 2. *)
  let coords = Array.init 200 (fun i -> float_of_int (i mod 640) /. 10.0) in
  let f = Nufft.Gridding_binned.duplication_factor ~w ~bin ~g ~coords in
  Alcotest.(check bool) "between 1 and 2" true (f > 1.0 && f < 2.0)

(* ------------------------------------------------------------------ *)
(* Sample *)

let test_omega_to_grid () =
  check_close ~eps:1e-12 "omega=0 -> 0" 0.0 (Sample.omega_to_grid ~g:64 0.0);
  check_close ~eps:1e-9 "omega=pi/2 -> g/4" 16.0
    (Sample.omega_to_grid ~g:64 (Float.pi /. 2.0));
  check_close ~eps:1e-9 "omega=-pi -> g/2" 32.0
    (Sample.omega_to_grid ~g:64 (-.Float.pi));
  let u = Sample.omega_to_grid ~g:64 (2.0 *. Float.pi -. 1e-9) in
  Alcotest.(check bool) "wraps into range" true (u >= 0.0 && u < 64.0)

(* The mapping as it stood before the in-range fast path: [Float.rem] on
   every coordinate. The fast path must agree with it bit for bit. *)
let omega_to_grid_rem ~g omega =
  let gf = float_of_int g in
  let u = omega *. gf /. (2.0 *. Float.pi) in
  let u = Float.rem u gf in
  let u = if u < 0.0 then u +. gf else u in
  if u >= gf then 0.0 else u

let test_omega_to_grid_bitwise () =
  let pi = Float.pi in
  let edges =
    [ 0.0; -0.0; pi; -.pi; Float.pred pi; Float.succ (-.pi); 2.0 *. pi;
      -2.0 *. pi; Float.pred (2.0 *. pi); Float.succ (-2.0 *. pi);
      8.0 *. pi; -8.0 *. pi; 4.9e-324; -4.9e-324 ]
    @ List.init 65 (fun k -> float_of_int (k - 32) *. pi /. 4.0)
  in
  let rng = Random.State.make [| 17 |] in
  let random =
    List.init 10_000 (fun _ -> Random.State.float rng (16.0 *. pi) -. (8.0 *. pi))
  in
  List.iter
    (fun g ->
      List.iter
        (fun om ->
          let want = omega_to_grid_rem ~g om and got = Sample.omega_to_grid ~g om in
          if Int64.bits_of_float want <> Int64.bits_of_float got then
            Alcotest.failf "g=%d omega=%h: %h, Float.rem formula %h" g om got
              want)
        (edges @ random))
    [ 1; 2; 3; 64; 65; 128; 255; 640 ]

(* Every length 0..9 and every position of one NaN, +inf or -inf, among
   finite values of both signs. *)
let test_all_finite () =
  for n = 0 to 9 do
    let base = Array.init n (fun i -> if i mod 2 = 0 then 1.5e300 else -3.0) in
    Alcotest.(check bool) (Printf.sprintf "finite, n=%d" n) true
      (Nufft.Sample.all_finite base);
    List.iter
      (fun bad ->
        for k = 0 to n - 1 do
          let a = Array.copy base in
          a.(k) <- bad;
          Alcotest.(check bool)
            (Printf.sprintf "%g at %d of %d" bad k n)
            (Array.for_all Float.is_finite a)
            (Nufft.Sample.all_finite a)
        done)
      [ Float.nan; Float.infinity; Float.neg_infinity ]
  done

let test_sample_validation () =
  let values = Cvec.create 2 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Sample: coordinate 64 outside [0, 64)") (fun () ->
      ignore
        (Sample.make_2d ~g:64 ~gx:[| 0.0; 64.0 |] ~gy:[| 1.0; 2.0 |] ~values));
  let s = Sample.random_2d ~seed:8 ~g:32 500 in
  Sample.validate s;
  Alcotest.(check int) "length" 500 (Sample.length s);
  (* A NaN or infinite omega on any axis is rejected, naming the sample
     and axis, by every omega constructor. *)
  let build name dims omega =
    match dims with
    | 2 when name = "Sample.of_omega_2d" ->
        Sample.of_omega_2d ~g:64 ~omega_x:omega.(0) ~omega_y:omega.(1) ~values
    | 3 ->
        Sample.of_omega_3d ~g:64 ~omega_x:omega.(0) ~omega_y:omega.(1)
          ~omega_z:omega.(2) ~values
    | _ -> Sample.of_omega ~g:64 ~omega ~values
  in
  List.iter
    (fun (name, dims) ->
      for axis = 0 to dims - 1 do
        List.iter
          (fun bad ->
            let omega = Array.init dims (fun _ -> [| 0.5; -1.0 |]) in
            omega.(axis).(1) <- bad;
            Alcotest.check_raises
              (Printf.sprintf "%s: omega %g on axis %d" name bad axis)
              (Invalid_argument
                 (Printf.sprintf
                    "%s: non-finite omega %g at sample 1 (axis %d)" name bad
                    axis))
              (fun () -> ignore (build name dims omega)))
          [ Float.nan; Float.infinity; Float.neg_infinity ]
      done)
    [ ("Sample.of_omega", 2); ("Sample.of_omega_2d", 2);
      ("Sample.of_omega_3d", 3) ]

(* ------------------------------------------------------------------ *)
(* NuDFT *)

let test_nudft_adjoint_1d_dc () =
  (* A single sample at omega=0 with value 1 contributes 1 everywhere. *)
  let x = Nudft.adjoint_1d ~n:8 ~omega:[| 0.0 |]
      ~values:(Cvec.of_complex_array [| C.one |]) in
  for i = 0 to 7 do
    check_close "dc re" 1.0 (Cvec.get_re x i);
    check_close "dc im" 0.0 (Cvec.get_im x i)
  done

let test_nudft_adjointness_2d () =
  (* <A x, y> = <x, A^H y> exactly (both are exact sums). *)
  let n = 8 and m = 20 in
  let rng = Random.State.make [| 55 |] in
  let omega_x = Array.init m (fun _ -> Random.State.float rng (2.0 *. Float.pi) -. Float.pi) in
  let omega_y = Array.init m (fun _ -> Random.State.float rng (2.0 *. Float.pi) -. Float.pi) in
  let x = Cvec.init (n * n) (fun _ ->
      C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)) in
  let y = Cvec.init m (fun _ ->
      C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)) in
  let ax = Nudft.forward_2d ~n ~omega_x ~omega_y ~image:x in
  let ahy = Nudft.adjoint_2d ~n ~omega_x ~omega_y ~values:y in
  let lhs = Cvec.dot ax y and rhs = Cvec.dot x ahy in
  check_close ~eps:1e-9 "re" lhs.C.re rhs.C.re;
  check_close ~eps:1e-9 "im" lhs.C.im rhs.C.im

(* ------------------------------------------------------------------ *)
(* NuFFT vs NuDFT *)

let random_omega rng m =
  Array.init m (fun _ -> Random.State.float rng (2.0 *. Float.pi) -. Float.pi)

let nufft_vs_nudft_adjoint_2d ~engine ~n ~m ~seed =
  let plan = Nufft.Plan.make ~n ~engine () in
  let rng = Random.State.make [| seed |] in
  let omega_x = random_omega rng m and omega_y = random_omega rng m in
  let values = Cvec.init m (fun _ ->
      C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)) in
  let samples =
    Sample.of_omega_2d ~g:plan.Nufft.Plan.g ~omega_x ~omega_y ~values
  in
  let fast = Nufft.Plan.adjoint plan samples in
  let exact = Nudft.adjoint_2d ~n ~omega_x ~omega_y ~values in
  Cvec.nrmsd ~reference:exact fast

let test_nufft_adjoint_accuracy () =
  let err = nufft_vs_nudft_adjoint_2d ~engine:Gridding.Serial ~n:16 ~m:100 ~seed:7 in
  Alcotest.(check bool)
    (Printf.sprintf "nrmsd %.2e < 2e-3" err)
    true (err < 2e-3)

let test_nufft_adjoint_accuracy_all_engines () =
  List.iter
    (fun engine ->
      let err = nufft_vs_nudft_adjoint_2d ~engine ~n:16 ~m:80 ~seed:21 in
      Alcotest.(check bool)
        (Printf.sprintf "%s nrmsd %.2e" (Gridding.engine_name engine) err)
        true (err < 2e-3))
    (Gridding.default_engines ~g:32 ~w:6)

let test_nufft_accuracy_improves_with_w () =
  let run w =
    let plan = Nufft.Plan.make ~n:16 ~w () in
    let rng = Random.State.make [| 13 |] in
    let m = 120 in
    let omega_x = random_omega rng m and omega_y = random_omega rng m in
    let values = Cvec.init m (fun _ ->
        C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)) in
    let samples =
      Sample.of_omega_2d ~g:plan.Nufft.Plan.g ~omega_x ~omega_y ~values
    in
    let fast = Nufft.Plan.adjoint plan samples in
    let exact = Nudft.adjoint_2d ~n:16 ~omega_x ~omega_y ~values in
    Cvec.nrmsd ~reference:exact fast
  in
  let e2 = run 2 and e4 = run 4 and e6 = run 6 in
  Alcotest.(check bool)
    (Printf.sprintf "w=2:%.1e > w=4:%.1e > w=6:%.1e" e2 e4 e6)
    true
    (e2 > e4 && e4 > e6 *. 0.999)

let test_nufft_forward_accuracy () =
  let n = 16 and m = 60 in
  let plan = Nufft.Plan.make ~n () in
  let rng = Random.State.make [| 99 |] in
  let omega_x = random_omega rng m and omega_y = random_omega rng m in
  let image = Cvec.init (n * n) (fun _ ->
      C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)) in
  let gx = Array.map (Sample.omega_to_grid ~g:plan.Nufft.Plan.g) omega_x in
  let gy = Array.map (Sample.omega_to_grid ~g:plan.Nufft.Plan.g) omega_y in
  let coords =
    Sample.make_2d ~g:plan.Nufft.Plan.g ~gx ~gy ~values:(Cvec.create m)
  in
  let fast = Nufft.Plan.forward plan ~coords image in
  let exact = Nudft.forward_2d ~n ~omega_x ~omega_y ~image in
  let err = Cvec.nrmsd ~reference:exact fast in
  Alcotest.(check bool) (Printf.sprintf "nrmsd %.2e" err) true (err < 2e-3)

let test_nufft_adjoint_pair () =
  (* The implemented forward/adjoint are exact transposes of each other:
     <F x, y> = <x, A y> to rounding (same table, same window). *)
  let n = 16 and m = 40 in
  let plan = Nufft.Plan.make ~n () in
  let g = plan.Nufft.Plan.g in
  let rng = Random.State.make [| 17 |] in
  let s = Sample.random_2d ~seed:71 ~g m in
  let x = Cvec.init (n * n) (fun _ ->
      C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)) in
  let y = Cvec.init m (fun _ ->
      C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)) in
  let fx = Nufft.Plan.forward plan ~coords:s x in
  let ay = Nufft.Plan.adjoint plan (Sample.with_values s y) in
  let lhs = Cvec.dot fx y and rhs = Cvec.dot x ay in
  let scale = C.norm lhs +. C.norm rhs +. 1.0 in
  check_close ~eps:(1e-10 *. scale) "re" lhs.C.re rhs.C.re;
  check_close ~eps:(1e-10 *. scale) "im" lhs.C.im rhs.C.im

let test_nufft_timed () =
  let n = 32 and m = 500 in
  let plan = Nufft.Plan.make ~n () in
  let s = Sample.random_2d ~seed:6 ~g:plan.Nufft.Plan.g m in
  let t = Nufft.Plan.create_timings () in
  let image = Nufft.Plan.adjoint ~timings:t plan s in
  Alcotest.(check int) "image size" (n * n) (Cvec.length image);
  Alcotest.(check bool) "gridding time recorded" true (t.Nufft.Plan.gridding_s >= 0.0);
  let f = Nufft.Plan.gridding_fraction t in
  Alcotest.(check bool) "fraction in [0,1]" true (f >= 0.0 && f <= 1.0)

let test_plan_validation () =
  Alcotest.check_raises "n" (Invalid_argument "Plan.make: n must be >= 2")
    (fun () -> ignore (Nufft.Plan.make ~n:1 ()));
  Alcotest.check_raises "sigma" (Invalid_argument "Plan.make: sigma must be > 1")
    (fun () -> ignore (Nufft.Plan.make ~n:16 ~sigma:0.5 ()));
  Alcotest.check_raises "mismatched grid"
    (Invalid_argument "Plan: sample set is for grid 16, plan uses 32")
    (fun () ->
      let plan = Nufft.Plan.make ~n:16 () in
      let s = Sample.random_2d ~g:16 10 in
      ignore (Nufft.Plan.adjoint plan s))

(* ------------------------------------------------------------------ *)
(* Tolerance-driven plans *)

let test_plan_tol_geometry () =
  (* tol derives kernel family, width and table oversampling: the width
     law w = ceil(ln(1/tol) / (pi sqrt(1 - 1/sigma))) + 1 and the LUT law
     l = next_pow2(0.5 / tol), both clamped (see DESIGN.md section 14). *)
  let p = Nufft.Plan.make ~n:16 ~tol:1e-5 () in
  Alcotest.(check int) "w at 1e-5" 7 p.Nufft.Plan.w;
  Alcotest.(check int) "l at 1e-5" 65536 p.Nufft.Plan.l;
  (match p.Nufft.Plan.tol with
  | Some t -> check_close "tol recorded" 1e-5 t
  | None -> Alcotest.fail "plan did not record the requested tol");
  (match p.Nufft.Plan.kernel with
  | Window.Exp_semicircle _ -> ()
  | k -> Alcotest.failf "expected ES kernel, got %s" (Window.name k));
  let p2 = Nufft.Plan.make ~n:16 ~tol:1e-2 () in
  Alcotest.(check int) "w at 1e-2" 4 p2.Nufft.Plan.w;
  Alcotest.(check int) "l at 1e-2" 512 p2.Nufft.Plan.l;
  (* Both families share the width law (calibrated at the Beatty beta). *)
  let kb, w_kb = Window.for_tolerance ~family:Window.KB ~tol:1e-4 ~sigma:2.0 () in
  Alcotest.(check int) "KB width at 1e-4" 6 w_kb;
  (match kb with
  | Window.Kaiser_bessel _ -> ()
  | k -> Alcotest.failf "expected KB kernel, got %s" (Window.name k));
  let p3 = Nufft.Plan.make ~n:16 ~tol:1e-4 ~family:Window.KB () in
  Alcotest.(check int) "plan KB width" 6 p3.Nufft.Plan.w;
  Alcotest.(check int) "plan KB l" 8192 p3.Nufft.Plan.l

let test_plan_tol_validation () =
  Alcotest.check_raises "tol + w"
    (Invalid_argument "Plan.make: tol and w are mutually exclusive")
    (fun () -> ignore (Nufft.Plan.make ~n:16 ~tol:1e-4 ~w:6 ()));
  Alcotest.check_raises "tol + kernel"
    (Invalid_argument "Plan.make: tol and kernel are mutually exclusive")
    (fun () ->
      ignore
        (Nufft.Plan.make ~n:16 ~tol:1e-4
           ~kernel:(Window.default_kaiser_bessel ~width:6 ~sigma:2.0)
           ()));
  Alcotest.check_raises "w < 2"
    (Invalid_argument "Plan.make: w must be >= 2")
    (fun () -> ignore (Nufft.Plan.make ~n:16 ~w:1 ()))

let test_plan_default_width_tracks_sigma () =
  (* The default width holds the Beatty shape argument at its (w = 6,
     sigma = 2) reference; narrower oversampling must widen the window
     rather than silently degrade accuracy. *)
  Alcotest.(check int) "sigma = 2" 6 (Window.default_width ~sigma:2.0);
  Alcotest.(check int) "sigma = 1.5" 7 (Window.default_width ~sigma:1.5);
  Alcotest.(check int) "sigma = 1.25" 8 (Window.default_width ~sigma:1.25);
  let p = Nufft.Plan.make ~n:16 ~sigma:1.5 () in
  Alcotest.(check int) "plan inherits sigma-derived width" 7 p.Nufft.Plan.w;
  let p2 = Nufft.Plan.make ~n:16 () in
  Alcotest.(check int) "sigma = 2 default unchanged" 6 p2.Nufft.Plan.w

let test_ft_numeric_panels () =
  (* The default composite-Simpson panel count (256 per unit of width,
     floor 2048) must already be converged: a deliberately oversampled
     quadrature at the widest supported window may not move the result.
     (ES and Kaiser-Bessel both decay to ~1e-16 at the truncation edge,
     so the endpoint clamp to zero costs nothing; a kernel with a fat
     edge value, like the 1%-tail Gaussian, would converge only O(h)
     there and is excluded deliberately.) *)
  let w = 16 in
  List.iter
    (fun kernel ->
      List.iter
        (fun x ->
          let dflt = Window.ft_numeric kernel ~width:w x in
          let dense = Window.ft_numeric ~panels:65536 kernel ~width:w x in
          check_close
            ~eps:(1e-10 *. (Float.abs dense +. 1.0))
            (Printf.sprintf "%s x=%g" (Window.name kernel) x)
            dense dflt)
        [ 0.0; 0.05; 0.125; 0.25; 0.45 ])
    [ Window.default_exp_semicircle ~width:w ~sigma:2.0;
      Window.default_kaiser_bessel ~width:w ~sigma:2.0 ]

(* A tolerance-built plan is (a) an exact forward/adjoint transpose pair
   and (b) within the 10x accuracy contract of the request, for random
   trajectories, random tolerances across the supported range, and both
   kernel families. *)
let prop_tol_plan_adjoint_pair =
  QCheck.Test.make
    ~name:"tol-driven plan: exact adjoint pair, meets accuracy contract"
    ~count:6
    QCheck.(
      triple (int_range 0 100_000) (int_range 30 90) (float_range 2.0 6.0))
    (fun (seed, m, neg_log_tol) ->
      let tol = 10.0 ** -.neg_log_tol in
      let family = if seed land 1 = 0 then Window.ES else Window.KB in
      let n = 12 in
      let plan = Nufft.Plan.make ~n ~tol ~family () in
      let g = plan.Nufft.Plan.g in
      let rng = Random.State.make [| seed |] in
      let omega_x = random_omega rng m and omega_y = random_omega rng m in
      let values =
        Cvec.init m (fun _ ->
            C.make
              (Random.State.float rng 2.0 -. 1.0)
              (Random.State.float rng 2.0 -. 1.0))
      in
      let samples = Sample.of_omega_2d ~g ~omega_x ~omega_y ~values in
      let x =
        Cvec.init (n * n) (fun _ ->
            C.make
              (Random.State.float rng 2.0 -. 1.0)
              (Random.State.float rng 2.0 -. 1.0))
      in
      let fx = Nufft.Plan.forward plan ~coords:samples x in
      let ay = Nufft.Plan.adjoint plan samples in
      let lhs = Cvec.dot fx values and rhs = Cvec.dot x ay in
      let scale = C.norm lhs +. C.norm rhs +. 1.0 in
      let pair_ok =
        Float.abs (lhs.C.re -. rhs.C.re) <= 1e-10 *. scale
        && Float.abs (lhs.C.im -. rhs.C.im) <= 1e-10 *. scale
      in
      if not pair_ok then
        QCheck.Test.fail_reportf
          "dot-test failed at tol %.2e (%s): <Fx,y>=%g%+gi <x,Ay>=%g%+gi"
          tol (Window.family_name family) lhs.C.re lhs.C.im rhs.C.re rhs.C.im
      else begin
        let exact = Nudft.adjoint_2d ~n ~omega_x ~omega_y ~values in
        let err = Cvec.nrmsd ~reference:exact ay in
        if err > 10.0 *. tol then
          QCheck.Test.fail_reportf
            "accuracy contract breached: tol %.2e (%s, w=%d l=%d) measured %.3e"
            tol (Window.family_name family) plan.Nufft.Plan.w
            plan.Nufft.Plan.l err
        else true
      end)

let test_nufft_non_pow2_sigma () =
  (* sigma = 1.5 gives a non-power-of-two oversampled grid exercising the
     Bluestein FFT inside the pipeline; wider window per Beatty. *)
  let err =
    let n = 16 and m = 60 in
    let plan = Nufft.Plan.make ~n ~sigma:1.5 ~w:7 ~l:1024 () in
    let rng = Random.State.make [| 61 |] in
    let omega_x = random_omega rng m and omega_y = random_omega rng m in
    let values = Cvec.init m (fun _ ->
        C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)) in
    let samples =
      Sample.of_omega_2d ~g:plan.Nufft.Plan.g ~omega_x ~omega_y ~values
    in
    let fast = Nufft.Plan.adjoint plan samples in
    let exact = Nudft.adjoint_2d ~n:16 ~omega_x ~omega_y ~values in
    Cvec.nrmsd ~reference:exact fast
  in
  Alcotest.(check bool) (Printf.sprintf "sigma=1.5 nrmsd %.2e" err) true
    (err < 5e-3)

(* ------------------------------------------------------------------ *)
(* 3D *)

let random_coords rng m bound =
  Array.init m (fun _ -> Random.State.float rng bound)

let test_gridding3d_vs_sliced () =
  let g = 16 and m = 80 in
  let tbl = table ~w:4 () in
  let rng = Random.State.make [| 91 |] in
  let gx = random_coords rng m (float_of_int g)
  and gy = random_coords rng m (float_of_int g)
  and gz = random_coords rng m (float_of_int g) in
  let values = Cvec.init m (fun _ ->
      C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)) in
  let direct = Nufft.Gridding3d.grid_3d ~table:tbl ~g ~gx ~gy ~gz values in
  let sliced = Nufft.Gridding3d.grid_3d_sliced ~table:tbl ~g ~gx ~gy ~gz values in
  check_vec ~eps:1e-11 "direct = sliced schedule" direct sliced

let test_gridding3d_parallel () =
  let g = 12 and m = 60 in
  let tbl = table ~w:4 () in
  let rng = Random.State.make [| 92 |] in
  let gx = random_coords rng m (float_of_int g)
  and gy = random_coords rng m (float_of_int g)
  and gz = random_coords rng m (float_of_int g) in
  let values = Cvec.init m (fun _ ->
      C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)) in
  let direct = Nufft.Gridding3d.grid_3d ~table:tbl ~g ~gx ~gy ~gz values in
  let sliced = Nufft.Gridding3d.grid_3d_sliced ~table:tbl ~g ~gx ~gy ~gz values in
  List.iter
    (fun domains ->
      let par =
        Nufft.Gridding3d.grid_3d_parallel ~domains ~table:tbl ~g ~gx ~gy ~gz
          values
      in
      (* Slices are z-private, each accumulated in sample order: the
         parallel schedule is bitwise the sliced one for any pool size. *)
      check_vec ~eps:0.0
        (Printf.sprintf "parallel(%d) = sliced bitwise" domains)
        sliced par;
      check_vec ~eps:1e-11
        (Printf.sprintf "parallel(%d) = direct" domains)
        direct par)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  (* Stats parity with the serial sliced schedule, merged across chunks. *)
  let sliced_st = Stats.create () in
  ignore
    (Nufft.Gridding3d.grid_3d_sliced ~stats:sliced_st ~table:tbl ~g ~gx ~gy
       ~gz values);
  let par_st = Stats.create () in
  ignore
    (Nufft.Gridding3d.grid_3d_parallel ~stats:par_st ~domains:3 ~table:tbl ~g
       ~gx ~gy ~gz values);
  Alcotest.(check int) "checks" sliced_st.Stats.boundary_checks
    par_st.Stats.boundary_checks;
  Alcotest.(check int) "lookups" sliced_st.Stats.window_evals
    par_st.Stats.window_evals;
  Alcotest.(check int) "accums" sliced_st.Stats.grid_accumulates
    par_st.Stats.grid_accumulates;
  Alcotest.(check int) "samples" sliced_st.Stats.samples_processed
    par_st.Stats.samples_processed

let test_gridding3d_mass () =
  (* One sample in the interior: total grid mass = value * (window sum)^3. *)
  let g = 16 and w = 4 in
  let tbl = table ~w () in
  let u = 8.3 in
  let grid = Nufft.Gridding3d.grid_3d ~table:tbl ~g ~gx:[| u |] ~gy:[| u |]
      ~gz:[| u |] (Cvec.of_complex_array [| C.one |]) in
  let sum1d = ref 0.0 in
  Coord.iter_window ~w ~g u (fun ~k:_ ~dist ->
      sum1d := !sum1d +. Wt.lookup tbl dist);
  let total = Cvec.fold (fun a c -> C.add a c) C.zero grid in
  check_close ~eps:1e-12 "mass" (!sum1d ** 3.0) total.C.re;
  check_close ~eps:1e-12 "imag" 0.0 total.C.im

let test_nufft_3d_vs_nudft () =
  let n = 8 and m = 40 in
  let plan = Nufft.Plan.make ~n ~w:4 ~l:1024 () in
  let g = plan.Nufft.Plan.g in
  let rng = Random.State.make [| 53 |] in
  let omega k = Array.init m (fun i -> ignore k; ignore i;
      Random.State.float rng (2.0 *. Float.pi) -. Float.pi) in
  let ox = omega 0 and oy = omega 1 and oz = omega 2 in
  let values = Cvec.init m (fun _ ->
      C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)) in
  let to_grid = Array.map (Sample.omega_to_grid ~g) in
  let samples =
    Sample.make_3d ~g ~gx:(to_grid ox) ~gy:(to_grid oy) ~gz:(to_grid oz)
      ~values
  in
  let fast = Nufft.Plan.adjoint plan samples in
  let exact = Nudft.adjoint_3d ~n ~omega_x:ox ~omega_y:oy ~omega_z:oz ~values in
  let err = Cvec.nrmsd ~reference:exact fast in
  Alcotest.(check bool) (Printf.sprintf "3d adjoint nrmsd %.2e" err) true
    (err < 5e-3)

let test_nufft_3d_adjoint_pair () =
  let n = 8 and m = 25 in
  let plan = Nufft.Plan.make ~n ~w:4 () in
  let g = plan.Nufft.Plan.g in
  let rng = Random.State.make [| 59 |] in
  let coords () = Array.init m (fun _ -> Random.State.float rng (float_of_int g)) in
  let gx = coords () and gy = coords () and gz = coords () in
  let x = Cvec.init (n * n * n) (fun _ ->
      C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)) in
  let y = Cvec.init m (fun _ ->
      C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)) in
  let s = Sample.make_3d ~g ~gx ~gy ~gz ~values:y in
  let fx = Nufft.Plan.forward plan ~coords:s x in
  let ay = Nufft.Plan.adjoint plan s in
  let lhs = Cvec.dot fx y and rhs = Cvec.dot x ay in
  let scale = C.norm lhs +. C.norm rhs +. 1.0 in
  check_close ~eps:(1e-10 *. scale) "re" lhs.C.re rhs.C.re;
  check_close ~eps:(1e-10 *. scale) "im" lhs.C.im rhs.C.im

(* ------------------------------------------------------------------ *)
(* Min-max interpolation *)

let test_minmax_reproduces_on_grid_sample () =
  (* A sample exactly on a grid point: the optimal coefficients are a
     delta (reproduce the exponential exactly). *)
  let n = 16 and g = 32 and w = 6 in
  let u = 10.0 in
  let c = Nufft.Minmax.coefficients ~n ~g ~w u in
  (* Canonical window of u=10: kmax = 13, start = 8; u itself is index 2. *)
  Array.iteri
    (fun j cj ->
      if j = 2 then begin
        check_close ~eps:1e-8 "unit coeff re" 1.0 cj.C.re;
        check_close ~eps:1e-8 "unit coeff im" 0.0 cj.C.im
      end
      else check_close ~eps:1e-8 (Printf.sprintf "zero coeff %d" j) 0.0
          (C.norm cj))
    c

let test_minmax_worst_case_decreases_with_w () =
  let n = 16 and g = 32 in
  let u = 10.37 in
  let errs =
    List.map (fun w -> Nufft.Minmax.worst_case_error ~n ~g ~w u) [ 2; 4; 6 ]
  in
  (match errs with
  | [ e2; e4; e6 ] ->
      Alcotest.(check bool)
        (Printf.sprintf "monotone %.1e > %.1e > %.1e" e2 e4 e6)
        true
        (e2 > e4 && e4 > e6)
  | _ -> assert false)

let test_minmax_scaled_beats_kb () =
  (* The headline property of MIRT's interpolator: with good scaling
     factors, exact min-max beats the tabulated Kaiser-Bessel window at
     the same w. *)
  let n = 16 and m = 120 and w = 6 in
  let plan = Nufft.Plan.make ~n ~w ~l:2048 () in
  let g = plan.Nufft.Plan.g in
  let rng = Random.State.make [| 31 |] in
  let omega () = random_omega rng m in
  let ox = omega () and oy = omega () in
  let values = Cvec.init m (fun _ ->
      C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0)) in
  let exact = Nudft.adjoint_2d ~n ~omega_x:ox ~omega_y:oy ~values in
  let samples = Sample.of_omega_2d ~g ~omega_x:ox ~omega_y:oy ~values in
  let kb_err =
    Cvec.nrmsd ~reference:exact (Nufft.Plan.adjoint plan samples)
  in
  let mm =
    Nufft.Minmax.adjoint_2d ~scaling:Nufft.Minmax.Kaiser_bessel_scaling ~n ~g
      ~w ~gx:(Sample.gx samples) ~gy:(Sample.gy samples) values
  in
  let mm_err = Cvec.nrmsd ~reference:exact mm in
  Alcotest.(check bool)
    (Printf.sprintf "minmax %.2e < kb %.2e" mm_err kb_err)
    true (mm_err < kb_err)

let test_minmax_scaling_helps () =
  let n = 16 and g = 32 and w = 6 in
  let u = 9.43 in
  let uniform = Nufft.Minmax.worst_case_error ~n ~g ~w u in
  let scaled =
    Nufft.Minmax.worst_case_error ~scaling:Nufft.Minmax.Kaiser_bessel_scaling
      ~n ~g ~w u
  in
  Alcotest.(check bool)
    (Printf.sprintf "scaled %.2e < uniform %.2e" scaled uniform)
    true (scaled < uniform)

let test_minmax_validation () =
  Alcotest.check_raises "w" (Invalid_argument "Minmax.coefficients: w < 1")
    (fun () -> ignore (Nufft.Minmax.coefficients ~n:8 ~g:16 ~w:0 1.0));
  Alcotest.check_raises "n > g"
    (Invalid_argument "Minmax.coefficients: n must not exceed g") (fun () ->
      ignore (Nufft.Minmax.coefficients ~n:32 ~g:16 ~w:4 1.0))

(* ------------------------------------------------------------------ *)
(* Apodization *)

let test_apodization_factors () =
  let kernel = Window.default_kaiser_bessel ~width:6 ~sigma:2.0 in
  let f = Nufft.Apodization.factors ~kernel ~width:6 ~n:16 ~g:32 in
  Alcotest.(check int) "length" 16 (Array.length f);
  Array.iter (fun v -> Alcotest.(check bool) "positive" true (v > 0.0)) f;
  (* Symmetric around centre: f.(n/2 - k) = f.(n/2 + k). *)
  check_close ~eps:1e-12 "symmetry" f.(8 - 3) f.(8 + 3)

let test_dice_layout_roundtrip () =
  let t = 8 and g = 32 in
  let n_addr = g * g in
  let seen = Hashtbl.create n_addr in
  for addr = 0 to n_addr - 1 do
    let idx = Nufft.Gridding_slice.grid_index_of_dice ~t ~g addr in
    Alcotest.(check bool) "in range" true (idx >= 0 && idx < g * g);
    if Hashtbl.mem seen idx then Alcotest.failf "duplicate grid index %d" idx;
    Hashtbl.add seen idx ()
  done;
  Alcotest.(check int) "bijection" n_addr (Hashtbl.length seen)

(* [dice_address] and [grid_index_of_dice] are mutually inverse bijections
   between dice layout and the row-major grid, for any tiling (t, g). *)
let prop_dice_inverse =
  QCheck.Test.make ~name:"dice_address inverts grid_index_of_dice" ~count:60
    QCheck.(pair (int_range 1 8) (int_range 1 6))
    (fun (t, n_tiles) ->
      let g = t * n_tiles in
      let tiles_total = n_tiles * n_tiles in
      let ok = ref true in
      for addr = 0 to (g * g) - 1 do
        let idx = Nufft.Gridding_slice.grid_index_of_dice ~t ~g addr in
        if idx < 0 || idx >= g * g then ok := false;
        (* Recover the (column, tile) pair from the grid coordinates and
           re-address it: must come back to [addr]. *)
        let x = idx mod g and y = idx / g in
        let column = ((y mod t) * t) + (x mod t) in
        let tile = (y / t * n_tiles) + (x / t) in
        if
          Nufft.Gridding_slice.dice_address ~t ~g ~column ~tile <> addr
          || column <> addr / tiles_total
          || tile <> addr mod tiles_total
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)

(* Spreading and interpolation are exact transposes at the gridding level:
   <spread(v), u> = <v, interp(u)> for any grid u and samples v. *)
let prop_spread_interp_adjoint =
  QCheck.Test.make ~name:"spread and interp are transposes" ~count:40
    QCheck.(pair (int_range 0 10000) (int_range 5 60))
    (fun (seed, m) ->
      let g = 32 in
      let tbl = table () in
      let s = Sample.random_2d ~seed ~g m in
      let rng = Random.State.make [| seed + 1 |] in
      let u = Cvec.init (g * g) (fun _ ->
          C.make (Random.State.float rng 2.0 -. 1.0)
            (Random.State.float rng 2.0 -. 1.0)) in
      let spread =
        Gridding.grid_2d Gridding.Serial ~table:tbl ~g ~gx:(Sample.gx s)
          ~gy:(Sample.gy s) s.Sample.values
      in
      let back =
        Gridding.interp_2d ~table:tbl ~g ~gx:(Sample.gx s) ~gy:(Sample.gy s) u
      in
      let lhs = Cvec.dot spread u and rhs = Cvec.dot s.Sample.values back in
      let scale = C.norm lhs +. C.norm rhs +. 1.0 in
      Float.abs (lhs.C.re -. rhs.C.re) <= 1e-10 *. scale
      && Float.abs (lhs.C.im -. rhs.C.im) <= 1e-10 *. scale)

(* Gridding is linear in the sample values. *)
let prop_gridding_linear =
  QCheck.Test.make ~name:"gridding is linear in values" ~count:40
    QCheck.(pair (int_range 0 10000) (float_range (-3.0) 3.0))
    (fun (seed, alpha) ->
      let g = 32 and m = 40 in
      let tbl = table () in
      let s = Sample.random_2d ~seed ~g m in
      let scaled =
        Cvec.map (fun c -> C.scale alpha c) s.Sample.values
      in
      let base =
        Gridding.grid_2d Gridding.Serial ~table:tbl ~g ~gx:(Sample.gx s)
          ~gy:(Sample.gy s) s.Sample.values
      in
      let got =
        Gridding.grid_2d Gridding.Serial ~table:tbl ~g ~gx:(Sample.gx s)
          ~gy:(Sample.gy s) scaled
      in
      let expected = Cvec.copy base in
      Cvec.scale_inplace alpha expected;
      Cvec.max_abs_diff expected got <= 1e-9)

(* iter_window always yields exactly w wrapped points for any coordinate. *)
let prop_iter_window_total =
  QCheck.Test.make ~name:"iter_window yields w in-range points" ~count:500
    QCheck.(triple (int_range 1 8) (int_range 1 8) (float_range 0.0 0.99999))
    (fun (w, n_tiles, frac) ->
      let g = Float.max (float_of_int w) (float_of_int (8 * n_tiles)) in
      let g = int_of_float g in
      let u = frac *. float_of_int g in
      let count = ref 0 and ok = ref true in
      Coord.iter_window ~w ~g u (fun ~k ~dist ->
          incr count;
          if k < 0 || k >= g then ok := false;
          if Float.abs dist > float_of_int w /. 2.0 +. 1e-9 then ok := false);
      !ok && !count = w)

(* ------------------------------------------------------------------ *)
(* Shared geometry tables *)

module Plan = Nufft.Plan
module Apod = Nufft.Apodization

let c_built = Telemetry.Counter.make "plan.tables_built"
let c_shared = Telemetry.Counter.make "plan.tables_shared"

let with_telemetry f =
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f

(* Equal geometries share both tables physically; each key component
   splits exactly the table it keys: (kernel, w, l, precision) the
   weight table, (kernel, w, n, g) the deapodization factors. *)
let test_store_keys () =
  let kb = Window.default_kaiser_bessel ~width:6 ~sigma:2.0 in
  let base = Plan.make ~kernel:kb ~w:6 ~l:512 ~n:16 () in
  let check what ~table ~deapod (p : Plan.plan) =
    Alcotest.(check bool) (what ^ ": weight table shared") table
      (p.Plan.table == base.Plan.table);
    Alcotest.(check bool) (what ^ ": factors shared") deapod
      (p.Plan.deapod == base.Plan.deapod)
  in
  check "same geometry" ~table:true ~deapod:true
    (Plan.make ~kernel:kb ~w:6 ~l:512 ~n:16 ());
  check "kernel" ~table:false ~deapod:false
    (Plan.make ~kernel:(Window.default_exp_semicircle ~width:6 ~sigma:2.0)
       ~w:6 ~l:512 ~n:16 ());
  check "w" ~table:false ~deapod:false
    (Plan.make ~kernel:kb ~w:7 ~l:512 ~n:16 ());
  check "l" ~table:false ~deapod:true
    (Plan.make ~kernel:kb ~w:6 ~l:1024 ~n:16 ());
  check "precision" ~table:false ~deapod:true
    (Plan.make ~kernel:kb ~w:6 ~l:512 ~table_precision:Wt.Single ~n:16 ());
  check "n" ~table:true ~deapod:false
    (Plan.make ~kernel:kb ~w:6 ~l:512 ~n:20 ());
  (* Same n, kernel and w on a coarser grid: only g changes. *)
  check "g" ~table:true ~deapod:false
    (Plan.make ~kernel:kb ~w:6 ~l:512 ~sigma:1.5 ~n:16 ());
  let fx = Wt.shared ~precision:Wt.Fixed16 ~kernel:kb ~width:6 ~l:512 () in
  Alcotest.(check bool) "Fixed16 store entry shared" true
    (fx == Wt.shared ~precision:Wt.Fixed16 ~kernel:kb ~width:6 ~l:512 ());
  Alcotest.(check bool) "Fixed16 distinct from Double" true
    (fx != base.Plan.table);
  let f = Apod.shared ~kernel:kb ~width:6 ~n:16 ~g:32 in
  Alcotest.(check bool) "factors = Apodization.factors" true
    (f.Apod.values = Apod.factors ~kernel:kb ~width:6 ~n:16 ~g:32)

(* Two domains racing on a cold geometry adopt one table and produce
   bit-identical adjoints. *)
let test_store_two_domains () =
  let kernel = Window.default_kaiser_bessel ~width:5 ~sigma:2.0 in
  let n = 18 in
  let s = Sample.random ~seed:41 ~dims:2 ~g:(2 * n) 300 in
  let arrived = Atomic.make 0 in
  let run () =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do
      Domain.cpu_relax ()
    done;
    let p = Plan.make ~kernel ~w:5 ~l:1000 ~n () in
    (p, Plan.adjoint_compiled p s)
  in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let p1, a1 = Domain.join d1 and p2, a2 = Domain.join d2 in
  Alcotest.(check bool) "one weight table" true (p1.Plan.table == p2.Plan.table);
  Alcotest.(check bool) "one factor vector" true
    (p1.Plan.deapod == p2.Plan.deapod);
  for k = 0 to Cvec.length a1 - 1 do
    if
      Int64.bits_of_float (Cvec.unsafe_get_re a1 k)
      <> Int64.bits_of_float (Cvec.unsafe_get_re a2 k)
      || Int64.bits_of_float (Cvec.unsafe_get_im a1 k)
         <> Int64.bits_of_float (Cvec.unsafe_get_im a2 k)
    then Alcotest.failf "adjoints differ at %d" k
  done

(* The store keeps nothing alive: once a geometry's plans are gone, a
   major GC frees its table and the next plan builds it again. A warm
   geometry's plan allocates far less than one table. *)
let[@inline never] plan_and_forget ~kernel ~l ~n =
  let p = Plan.make ~kernel ~w:6 ~l ~n () in
  let table = Weak.create 1 and factors = Weak.create 1 in
  Weak.set table 0 (Some p.Plan.table);
  Weak.set factors 0 (Some p.Plan.deapod);
  (table, factors)

let test_store_weak () =
  with_telemetry @@ fun () ->
  let kernel = Window.default_kaiser_bessel ~width:6 ~sigma:2.0 in
  let l = 1536 and n = 22 in
  Gc.full_major ();
  let built0 = Telemetry.Counter.value c_built in
  let table, factors = plan_and_forget ~kernel ~l ~n in
  Alcotest.(check int) "cold geometry builds its table" 1
    (Telemetry.Counter.value c_built - built0);
  Gc.full_major ();
  Alcotest.(check bool) "table freed" false (Weak.check table 0);
  Alcotest.(check bool) "factors freed" false (Weak.check factors 0);
  let built1 = Telemetry.Counter.value c_built in
  let p = Plan.make ~kernel ~w:6 ~l ~n () in
  Alcotest.(check int) "next plan rebuilds it" 1
    (Telemetry.Counter.value c_built - built1);
  let built2 = Telemetry.Counter.value c_built
  and shared2 = Telemetry.Counter.value c_shared in
  let before = Gc.allocated_bytes () in
  let q = Plan.make ~kernel ~w:6 ~l ~n () in
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "warm plan shares the table" true
    (q.Plan.table == p.Plan.table);
  Alcotest.(check int) "warm plan builds nothing" 0
    (Telemetry.Counter.value c_built - built2);
  Alcotest.(check int) "warm plan counts one share" 1
    (Telemetry.Counter.value c_shared - shared2);
  let table_bytes = float_of_int (8 * Wt.entries p.Plan.table) in
  if bytes >= table_bytes /. 4.0 then
    Alcotest.failf "warm Plan.make allocated %.0f bytes (table: %.0f)" bytes
      table_bytes

(* ------------------------------------------------------------------ *)
(* Sample-plan compile = the engines' window formulas *)

(* Coordinates that stress the compile's exact integer/rounding shortcuts:
   the seam samples, u = 0 and u = pred g, window edges on integers
   (u + w/2 integral), and distances on exact half table steps (ties of
   the round-half-away address), with their float neighbours. *)
let compile_probe_axes ~dims ~g ~w ~l =
  let gf = float_of_int g and half = float_of_int w /. 2.0 in
  let lf = float_of_int l in
  let specials =
    [ 0.0; Float.pred gf; Float.succ 0.0; gf -. half; half; 1.0 -. half ]
    @ List.init 8 (fun k -> float_of_int (k + w) -. half)
    @ List.concat_map
        (fun j ->
          let u = 10.0 +. ((float_of_int j +. 0.5) /. lf) in
          [ u; Float.pred u; Float.succ u ])
        [ 0; 1; 2; 7; (l / 2) - 1; l / 2; l - 1; 3 * l / 2 ]
  in
  let specials =
    List.map (fun u -> if u < 0.0 then u +. gf else u) specials
    |> Array.of_list
  in
  let k = Array.length specials in
  let seam = Qutil.seam_samples ~seed:(w + (100 * dims)) ~dims ~g 40 in
  Array.mapi
    (fun a axis ->
      Array.append axis (Array.init k (fun i -> specials.((i + a) mod k))))
    seam.Sample.coords

let test_compile_formulas () =
  let l = 512 in
  List.iter
    (fun dims ->
      for w = 2 to 16 do
        let g = 40 in
        let table =
          Wt.make ~kernel:(Window.default_kaiser_bessel ~width:w ~sigma:2.0)
            ~width:w ~l ()
        in
        let axes = compile_probe_axes ~dims ~g ~w ~l in
        let sp =
          if dims = 2 then
            Nufft.Sample_plan.compile_2d ~table ~g ~gx:axes.(0) ~gy:axes.(1) ()
          else
            Nufft.Sample_plan.compile_3d ~table ~g ~gx:axes.(0) ~gy:axes.(1)
              ~gz:axes.(2) ()
        in
        Array.iteri
          (fun a coords ->
            let stride = if a = 0 then 1 else if a = 1 then g else g * g in
            Array.iteri
              (fun j u ->
                let off, wts =
                  Nufft.Sample_plan.axis_window sp ~sample:j ~axis:a
                in
                let s = Coord.window_start ~w u in
                for i = 0 to w - 1 do
                  let ku = s + i in
                  let want_off = Coord.wrap ~g ku * stride in
                  let want_w = Wt.lookup table (float_of_int ku -. u) in
                  if
                    off.(i) <> want_off
                    || Int64.bits_of_float wts.(i)
                       <> Int64.bits_of_float want_w
                  then
                    Alcotest.failf
                      "%dD w=%d axis %d sample %d (u = %h) point %d: (%d, %h) \
                       <> (%d, %h)"
                      dims w a j u i off.(i) wts.(i) want_off want_w
                done)
              coords)
          axes
      done)
    [ 2; 3 ]

let qtests =
  Qutil.to_alcotests
    [ prop_column_check; prop_engines_agree; prop_spread_interp_adjoint;
      prop_gridding_linear; prop_iter_window_total; prop_dice_inverse;
      prop_tol_plan_adjoint_pair ]

let () =
  Alcotest.run "nufft"
    [ ("coord",
       [ Alcotest.test_case "window_start" `Quick test_window_start;
         Alcotest.test_case "wrap" `Quick test_wrap;
         Alcotest.test_case "iter_window" `Quick test_iter_window;
         Alcotest.test_case "iter_window wraps" `Quick test_iter_window_wraps;
         Alcotest.test_case "decompose" `Quick test_decompose;
         Alcotest.test_case "check_tiling" `Quick test_check_tiling;
         Alcotest.test_case "affected_columns" `Quick test_affected_columns;
         Alcotest.test_case "column_check wrap flag" `Quick
           test_column_check_wrap_flag ]);
      ("engines",
       [ Alcotest.test_case "agree 1d" `Quick test_engines_agree_1d;
         Alcotest.test_case "agree 2d" `Quick test_engines_agree_2d;
         Alcotest.test_case "slice fast = serial bitwise" `Quick
           test_slice_fast_bitwise_equal_serial;
         Alcotest.test_case "slice faithful schedule" `Quick
           test_slice_faithful_agrees;
         Alcotest.test_case "parallel domains agree" `Quick
           test_slice_parallel_agrees;
         Alcotest.test_case "parallel pool reuse" `Quick
           test_slice_parallel_pool_reuse;
         Alcotest.test_case "mass conservation" `Quick test_mass_conservation;
         Alcotest.test_case "empty sample set" `Quick test_empty_sample_set;
         Alcotest.test_case "window = tile" `Quick test_window_equals_tile;
         Alcotest.test_case "w = 1 nearest neighbour" `Quick
           test_w1_minimal_window ]);
      ("stats",
       [ Alcotest.test_case "serial" `Quick test_stats_serial;
         Alcotest.test_case "output-parallel" `Quick test_stats_output_parallel;
         Alcotest.test_case "slice-and-dice" `Quick test_stats_slice;
         Alcotest.test_case "slice-parallel" `Quick test_stats_slice_parallel;
         Alcotest.test_case "binned duplicates" `Quick
           test_stats_binned_duplicates;
         Alcotest.test_case "duplication factor" `Quick test_duplication_factor ]);
      ("sample",
       [ Alcotest.test_case "omega mapping" `Quick test_omega_to_grid;
         Alcotest.test_case "omega mapping = Float.rem formula bitwise" `Quick
           test_omega_to_grid_bitwise;
         Alcotest.test_case "validation" `Quick test_sample_validation;
         Alcotest.test_case "all_finite = for_all is_finite" `Quick
           test_all_finite ]);
      ("nudft",
       [ Alcotest.test_case "adjoint dc" `Quick test_nudft_adjoint_1d_dc;
         Alcotest.test_case "adjointness 2d" `Quick test_nudft_adjointness_2d ]);
      ("nufft",
       [ Alcotest.test_case "adjoint accuracy" `Quick test_nufft_adjoint_accuracy;
         Alcotest.test_case "adjoint accuracy (all engines)" `Quick
           test_nufft_adjoint_accuracy_all_engines;
         Alcotest.test_case "accuracy improves with w" `Quick
           test_nufft_accuracy_improves_with_w;
         Alcotest.test_case "forward accuracy" `Quick test_nufft_forward_accuracy;
         Alcotest.test_case "adjoint pair" `Quick test_nufft_adjoint_pair;
         Alcotest.test_case "timed decomposition" `Quick test_nufft_timed;
         Alcotest.test_case "plan validation" `Quick test_plan_validation;
         Alcotest.test_case "tol-derived geometry" `Quick test_plan_tol_geometry;
         Alcotest.test_case "tol validation" `Quick test_plan_tol_validation;
         Alcotest.test_case "default width tracks sigma" `Quick
           test_plan_default_width_tracks_sigma;
         Alcotest.test_case "ft_numeric panel convergence" `Quick
           test_ft_numeric_panels;
         Alcotest.test_case "non-pow2 sigma (bluestein)" `Quick
           test_nufft_non_pow2_sigma ]);
      ("gridding3d",
       [ Alcotest.test_case "direct = sliced" `Quick test_gridding3d_vs_sliced;
         Alcotest.test_case "parallel = sliced (all pool sizes)" `Quick
           test_gridding3d_parallel;
         Alcotest.test_case "mass" `Quick test_gridding3d_mass;
         Alcotest.test_case "3d adjoint vs nudft" `Quick test_nufft_3d_vs_nudft;
         Alcotest.test_case "3d adjoint pair" `Quick test_nufft_3d_adjoint_pair ]);
      ("minmax",
       [ Alcotest.test_case "on-grid sample is a delta" `Quick
           test_minmax_reproduces_on_grid_sample;
         Alcotest.test_case "error decreases with w" `Quick
           test_minmax_worst_case_decreases_with_w;
         Alcotest.test_case "scaled beats kaiser-bessel" `Quick
           test_minmax_scaled_beats_kb;
         Alcotest.test_case "scaling helps" `Quick test_minmax_scaling_helps;
         Alcotest.test_case "validation" `Quick test_minmax_validation ]);
      ("apodization",
       [ Alcotest.test_case "factors" `Quick test_apodization_factors;
         Alcotest.test_case "dice layout bijection" `Quick
           test_dice_layout_roundtrip ]);
      ("geom-store",
       [ Alcotest.test_case "keys share and split" `Quick test_store_keys;
         Alcotest.test_case "two domains, one cold geometry" `Quick
           test_store_two_domains;
         Alcotest.test_case "weak: rebuilt after GC" `Quick test_store_weak ]);
      ("compile",
       [ Alcotest.test_case "= window_start/wrap/lut bitwise" `Quick
           test_compile_formulas ]);
      ("properties", qtests) ]
