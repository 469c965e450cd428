(* Region-sharded parallel replay: determinism & race suite.

   The contract under test is strong: for EVERY pool size, parallel
   compiled replay must be bitwise identical to serial replay — the
   partition gives each grid cell exactly one writer and preserves the
   serial accumulation order per cell, so not even the last floating
   point bit may move. The suite checks that contract at the three
   levels the engine is wired through (Sample_plan, Plan, Operator
   registry), property-checks the partition invariants on random
   geometries, and stress-tests concurrent reconstructions sharing one
   plan-cache entry. *)

module Cvec = Numerics.Cvec
module Sample = Nufft.Sample
module Sample_plan = Nufft.Sample_plan
module Plan = Nufft.Plan
module Gridding = Nufft.Gridding
module Op = Nufft.Operator
module Pool = Runtime.Pool

let pool_sizes = [ 1; 2; 3; 4; 7 ]

let with_pool domains f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let check_bitwise name a b =
  Alcotest.(check int) (name ^ " length") (Cvec.length a) (Cvec.length b);
  for k = 0 to Cvec.length a - 1 do
    if
      Cvec.unsafe_get_re a k <> Cvec.unsafe_get_re b k
      || Cvec.unsafe_get_im a k <> Cvec.unsafe_get_im b k
    then
      Alcotest.failf "%s: differs at %d: (%g,%g) vs (%g,%g)" name k
        (Cvec.unsafe_get_re a k) (Cvec.unsafe_get_im a k)
        (Cvec.unsafe_get_re b k) (Cvec.unsafe_get_im b k)
  done

(* One plan + compiled decomposition per dimensionality, shared by the
   bit-identity tests below. *)
let compiled_case ~dims =
  let n = if dims = 2 then 16 else 6 in
  let g = 2 * n in
  let m = if dims = 2 then 300 else 200 in
  let plan = Plan.make ~n () in
  let s = Sample.random ~seed:(100 + dims) ~dims ~g m in
  let sp = Plan.compiled plan s in
  (plan, s, sp)

(* ------------------------------------------------------------------ *)
(* Sample_plan level: spread / gather against the serial replay. *)

let test_spread_bitwise ~dims () =
  let _, s, sp = compiled_case ~dims in
  let reference = Sample_plan.spread sp s.Sample.values in
  List.iter
    (fun d ->
      with_pool d (fun pool ->
          check_bitwise
            (Printf.sprintf "%dd spread, pool %d" dims d)
            reference
            (Sample_plan.spread_parallel ~pool sp s.Sample.values);
          (* _into variant through the same pool *)
          let out = Cvec.create (Sample_plan.grid_length sp) in
          Sample_plan.spread_parallel_into ~pool sp s.Sample.values out;
          check_bitwise
            (Printf.sprintf "%dd spread_into, pool %d" dims d)
            reference out))
    pool_sizes

let test_gather_bitwise ~dims () =
  let _, s, sp = compiled_case ~dims in
  let glen = Sample_plan.grid_length sp in
  let grid = Cvec.init glen (fun k ->
      Numerics.Complexd.make
        (cos (0.01 *. float_of_int k))
        (sin (0.03 *. float_of_int k)))
  in
  ignore s;
  let reference = Sample_plan.gather sp grid in
  List.iter
    (fun d ->
      with_pool d (fun pool ->
          check_bitwise
            (Printf.sprintf "%dd gather, pool %d" dims d)
            reference
            (Sample_plan.gather_parallel ~pool sp grid)))
    pool_sizes

(* ------------------------------------------------------------------ *)
(* Plan level: full adjoint / forward pipelines with a replay pool. *)

let test_adjoint_compiled_bitwise ~dims () =
  let plan, s, _ = compiled_case ~dims in
  let reference = Plan.adjoint_compiled plan s in
  let image = reference in
  List.iter
    (fun d ->
      with_pool d (fun pool ->
          check_bitwise
            (Printf.sprintf "%dd adjoint_compiled, pool %d" dims d)
            reference
            (Plan.adjoint_compiled ~pool plan s);
          check_bitwise
            (Printf.sprintf "%dd forward_compiled, pool %d" dims d)
            (Plan.forward_compiled plan ~coords:s image)
            (Plan.forward_compiled ~pool plan ~coords:s image)))
    pool_sizes

(* A plan built with its own pool replays in parallel without a per-call
   pool argument — same bits as the pool-less plan. *)
let test_plan_pool_default () =
  let n = 16 in
  let g = 2 * n in
  let s = Sample.random_2d ~seed:11 ~g 250 in
  let serial_plan = Plan.make ~n () in
  let reference = Plan.adjoint_compiled serial_plan s in
  with_pool 3 (fun pool ->
      let pooled_plan = Plan.make ~pool ~n () in
      check_bitwise "plan-pool adjoint_compiled" reference
        (Plan.adjoint_compiled pooled_plan s))

(* ------------------------------------------------------------------ *)
(* Operator registry: the serial backend built on a pool (region-sharded
   replay) against the pool-less one. *)

let test_backend_bitwise () =
  let n = 16 in
  let g = 2 * n in
  let coords = Sample.random_2d ~seed:21 ~g 300 in
  let serial_op =
    Op.create "serial" (Op.context ~n ~coords ())
  in
  let reference = Op.apply_adjoint serial_op coords in
  let fwd_ref = Op.apply_forward serial_op reference in
  List.iter
    (fun d ->
      with_pool d (fun pool ->
          let op = Op.create "serial" (Op.context ~pool ~n ~coords ()) in
          check_bitwise
            (Printf.sprintf "sharded adjoint, pool %d" d)
            reference
            (Op.apply_adjoint op coords);
          check_bitwise
            (Printf.sprintf "sharded forward, pool %d" d)
            fwd_ref.Sample.values
            (Op.apply_forward op reference).Sample.values))
    pool_sizes

(* ------------------------------------------------------------------ *)
(* Partition invariants. *)

(* Exhaustive audit of one partition: bands tile the rows, every shard's
   sample list is strictly ascending (serial order), and sample j is in
   shard s exactly when one of j's window rows — read back through
   [axis_window] — lies in s's band. *)
let audit_partition sp part =
  let g = Sample_plan.grid sp in
  let m = Sample_plan.length sp in
  let dims = Sample_plan.dims sp in
  let rows = Sample_plan.partition_rows part in
  let shards = Sample_plan.partition_shards part in
  if shards < 1 then Alcotest.failf "no shards";
  (* bands tile [0, rows) in order *)
  let expect_lo = ref 0 in
  for s = 0 to shards - 1 do
    let lo, hi = Sample_plan.shard_rows part s in
    if lo <> !expect_lo then
      Alcotest.failf "shard %d starts at row %d, expected %d" s lo !expect_lo;
    if hi <= lo then Alcotest.failf "shard %d empty band [%d,%d)" s lo hi;
    expect_lo := hi
  done;
  if !expect_lo <> rows then
    Alcotest.failf "bands cover %d of %d rows" !expect_lo rows;
  let window_rows j =
    let rows_of a = fst (Sample_plan.axis_window sp ~sample:j ~axis:a) in
    let planes = if dims = 3 then rows_of 2 else [| 0 |] in
    Array.concat
      (Array.to_list
         (Array.map (fun p -> Array.map (fun r -> (p + r) / g) (rows_of 1))
            planes))
  in
  for s = 0 to shards - 1 do
    let lo, hi = Sample_plan.shard_rows part s in
    let samples = Sample_plan.shard_samples part s in
    Array.iteri
      (fun i j ->
        if i > 0 && j <= samples.(i - 1) then
          Alcotest.failf "shard %d: sample %d listed after %d" s j
            samples.(i - 1))
      samples;
    let listed = Array.make m false in
    Array.iter (fun j -> listed.(j) <- true) samples;
    for j = 0 to m - 1 do
      let touches = Array.exists (fun r -> lo <= r && r < hi) (window_rows j) in
      if touches <> listed.(j) then
        Alcotest.failf "shard %d [%d,%d): sample %d %s" s lo hi j
          (if touches then "has a row in the band but is not listed"
           else "is listed without a row in the band")
    done
  done

let prop_partition_covers =
  QCheck.Test.make
    ~name:"region partition covers every sample entry exactly once" ~count:60
    QCheck.(
      quad (int_range 0 10_000) (* seed *)
        (int_range 1 120) (* m *)
        (int_range 2 3) (* dims *)
        (int_range 1 40) (* requested shards *))
    (fun (seed, m, dims, shards) ->
      let n = if dims = 2 then 12 else 5 in
      let g = 2 * n in
      let plan = Plan.make ~w:4 ~n () in
      let s = Sample.random ~seed ~dims ~g m in
      let sp = Plan.compiled plan s in
      let part = Sample_plan.partition sp ~shards in
      audit_partition sp part;
      (* the clamp: never more shards than rows, never fewer than 1 *)
      Sample_plan.partition_shards part
      = max 1 (min shards (Sample_plan.partition_rows part))
      && Sample_plan.partition_requested part = shards)

let test_partition_cached () =
  let _, _, sp = compiled_case ~dims:2 in
  let p3 = Sample_plan.partition sp ~shards:3 in
  if not (Sample_plan.partition sp ~shards:3 == p3) then
    Alcotest.failf "same shard count must return the cached partition";
  let p5 = Sample_plan.partition sp ~shards:5 in
  if Sample_plan.partition_shards p5 <> 5 then
    Alcotest.failf "re-requesting with a new shard count must rebuild";
  if not (Sample_plan.partition sp ~shards:5 == p5) then
    Alcotest.failf "rebuilt partition must be cached in turn"

(* The band cuts balance entries per row, counted per window row; they
   are pinned to the values the per-entry count gave on these cases. *)
let test_partition_cuts () =
  List.iter
    (fun (dims, shards, expected) ->
      let _, _, sp = compiled_case ~dims in
      let part = Sample_plan.partition sp ~shards in
      let cuts =
        List.init (Sample_plan.partition_shards part) (fun s ->
            Sample_plan.shard_rows part s)
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%dd cuts, %d shards" dims shards)
        expected cuts)
    [ (2, 3, [ (0, 11); (11, 22); (22, 32) ]);
      (2, 7, [ (0, 5); (5, 9); (9, 14); (14, 19); (19, 23); (23, 28); (28, 32) ]);
      (3, 4, [ (0, 39); (39, 74); (74, 108); (108, 144) ]);
      ( 3,
        7,
        [ (0, 23); (23, 44); (44, 63); (63, 84); (84, 102); (102, 123);
          (123, 144) ] ) ]

(* ------------------------------------------------------------------ *)
(* Determinism stress: N concurrent compiled-replay reconstructions
   through submit_batch, all warm hits on ONE shared plan-cache entry
   (same physical coordinate arrays), repeated; every image must be
   bitwise identical to the serial single-shot reference. This is the
   test that catches read/write races on shared plan state (the compiled
   decomposition, the cached partition) that single-shot tests miss. *)

let test_determinism_stress () =
  let module Svc = Pipeline.Recon_service in
  let n = 16 in
  let g = 2 * n in
  let coords = Sample.random_2d ~seed:33 ~g 400 in
  let values =
    Cvec.init 400 (fun j ->
        Numerics.Complexd.make
          (sin (0.2 *. float_of_int j))
          (cos (0.7 *. float_of_int j)))
  in
  let req =
    { Svc.backend = "serial";
      transform = Nufft.Transform.Type1;
      n;
      coords;
      values;
      density = None;
      method_ = Svc.Adjoint;
      tol = None;
      family = None }
  in
  let image = function
    | Ok r -> r.Svc.image
    | Error e -> Alcotest.failf "stress request failed: %s" (Svc.error_message e)
  in
  (* pool-less reference service *)
  let ref_svc = Svc.create () in
  let reference = image (Svc.submit ref_svc req) in
  with_pool 4 (fun pool ->
      let svc = Svc.create ~pool () in
      (* direct submit exercises the parallel fast path (replay on the
         service pool from the caller's thread) *)
      check_bitwise "direct submit, pool 4" reference
        (image (Svc.submit svc req));
      for round = 1 to 3 do
        let out = Svc.submit_batch svc (List.init 8 (fun _ -> req)) in
        List.iteri
          (fun i r ->
            check_bitwise
              (Printf.sprintf "stress round %d request %d" round i)
              reference (image r))
          out
      done)

(* Two domains applying ONE cached operator at once: each forward and
   adjoint takes the plan's single reusable grid, so while one domain
   holds it the other finds the slot empty and allocates its own. Every
   result must still be bitwise the serial reference. *)
let test_shared_operator_domains () =
  let module Svc = Pipeline.Recon_service in
  let n = 16 in
  let g = 2 * n in
  let coords = Sample.random_2d ~seed:71 ~g 600 in
  let svc = Svc.create () in
  let op =
    match Svc.operator svc ~backend:"serial" ~n ~coords with
    | Ok (op, _) -> op
    | Error e -> Alcotest.failf "operator: %s" (Svc.error_message e)
  in
  let x =
    Cvec.init (n * n) (fun k ->
        Numerics.Complexd.make (cos (0.3 *. float_of_int k)) (sin (float_of_int k)))
  in
  let normal () = Op.apply_adjoint op (Op.apply_forward op x) in
  let reference = normal () in
  let rounds = 40 in
  let worker () = List.init rounds (fun _ -> normal ()) in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  List.iteri
    (fun i img ->
      check_bitwise (Printf.sprintf "concurrent application %d" i) reference img)
    (r1 @ r2)

let () =
  let bit2 f = List.map (fun (name, g) -> (name, `Quick, g)) f in
  Alcotest.run "parallel_replay"
    [ ( "spread",
        bit2
          [ ("2d bitwise across pool sizes", test_spread_bitwise ~dims:2);
            ("3d bitwise across pool sizes", test_spread_bitwise ~dims:3) ] );
      ( "gather",
        bit2
          [ ("2d bitwise across pool sizes", test_gather_bitwise ~dims:2);
            ("3d bitwise across pool sizes", test_gather_bitwise ~dims:3) ] );
      ( "plan",
        bit2
          [ ( "2d adjoint/forward compiled across pool sizes",
              test_adjoint_compiled_bitwise ~dims:2 );
            ( "3d adjoint/forward compiled across pool sizes",
              test_adjoint_compiled_bitwise ~dims:3 );
            ("plan-owned pool replay", test_plan_pool_default) ] );
      ("operator", bit2 [ ("serial backend on a pool", test_backend_bitwise) ]);
      ( "partition",
        Qutil.to_alcotests [ prop_partition_covers ]
        @ bit2
            [ ("partition cache", test_partition_cached);
              ("band cuts", test_partition_cuts) ] );
      ( "stress",
        bit2
          [ ("shared-plan determinism", test_determinism_stress);
            ("one operator on two domains", test_shared_operator_domains) ] )
    ]
