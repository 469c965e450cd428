(* Pipeline-layer tests: the plan cache (LRU eviction order, byte-budget
   eviction, fingerprint-collision safety, concurrent single-build), the
   workspace arenas (slot reuse, bitwise-identical results through reused
   buffers for every registered backend, O(1) steady-state minor-word
   allocation), and the reconstruction service (typed errors for every
   malformed request, warm requests performing zero plan builds, batch
   requests overlapping across the domain pool). *)

module Cvec = Numerics.Cvec
module C = Numerics.Complexd
module Op = Nufft.Operator
module Sample = Nufft.Sample
module Pool = Runtime.Pool
module Cache = Pipeline.Plan_cache
module Ws = Pipeline.Workspace
module Svc = Pipeline.Recon_service

let () =
  Jigsaw.Operator_backend.register ();
  Gpusim.Operator_backend.register ()

(* A backend that blocks inside its adjoint until two applications are
   in flight (or a deadline passes) — the overlap probe for the batch
   scheduler. Registered here, excluded from the all-backends sweeps. *)
let latch_name = "pipeline-latch"
let latch_entered = Atomic.make 0
let latch_peak = Atomic.make 0
let latch_inflight = Atomic.make 0

let () =
  Op.register ~dims:[ 2 ] ~doc:"test-only latch backend" latch_name
    (fun ctx ->
      let module M = struct
        let name = latch_name
        let dims = 2
        let n = ctx.Op.n
        let g = Op.ctx_grid ctx
        let plan = None
        let st = Op.create_stats ()

        let adjoint (_ : Sample.t) =
          let c = 1 + Atomic.fetch_and_add latch_inflight 1 in
          let rec bump () =
            let p = Atomic.get latch_peak in
            if c > p && not (Atomic.compare_and_set latch_peak p c) then
              bump ()
          in
          bump ();
          Atomic.incr latch_entered;
          let deadline = Unix.gettimeofday () +. 5.0 in
          while
            Atomic.get latch_peak < 2 && Unix.gettimeofday () < deadline
          do
            Domain.cpu_relax ()
          done;
          ignore (Atomic.fetch_and_add latch_inflight (-1));
          Cvec.create (n * n)

        let forward (_ : Cvec.t) : Sample.t = failwith "latch: forward unused"
        let transforms = [ Nufft.Transform.Type1 ]
        let type3 = None
        let normal = None
        let stats () = st
      end in
      (module M : Op.NUFFT_OP))

(* ------------------------------------------------------------------ *)
(* Helpers *)

let radial ~n =
  let traj = Trajectory.Radial.make ~spokes:(max 4 (n / 4)) ~readout:(2 * n) () in
  (traj, Imaging.Recon.coords_of_traj ~g:(2 * n) traj)

let values_for coords =
  let m = Sample.length coords in
  Cvec.init m (fun k ->
      C.make
        (0.1 *. float_of_int ((k mod 17) - 8))
        (0.05 *. float_of_int ((k mod 5) - 2)))

let ctx_for n coords = Op.context ~n ~coords ()

let lookup cache n coords =
  ignore (Cache.operator cache ~backend:"serial" ~ctx:(ctx_for n coords))

let sok = function
  | Ok (v : Svc.response) -> v
  | Error e -> Alcotest.failf "service error: %s" (Svc.error_message e)

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

let with_telemetry f =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f

(* ------------------------------------------------------------------ *)
(* Plan cache *)

let test_lru_eviction_order () =
  let cache = Cache.create ~max_entries:2 () in
  let _, c16 = radial ~n:16
  and _, c20 = radial ~n:20
  and _, c24 = radial ~n:24 in
  lookup cache 16 c16;
  (* miss *)
  lookup cache 20 c20;
  (* miss *)
  lookup cache 16 c16;
  (* hit: n=20 becomes least-recently-used *)
  lookup cache 24 c24;
  (* miss: evicts n=20, not n=16 *)
  let s = Cache.stats cache in
  Alcotest.(check int) "evictions after overflow" 1 s.Cache.evictions;
  Alcotest.(check int) "entries at capacity" 2 s.Cache.entries;
  Alcotest.(check int) "hits so far" 1 s.Cache.hits;
  Alcotest.(check int) "misses so far" 3 s.Cache.misses;
  lookup cache 16 c16;
  (* the recently-used entry survived: hit *)
  lookup cache 20 c20;
  (* the LRU entry was evicted: miss again *)
  let s = Cache.stats cache in
  Alcotest.(check int) "n=16 survived the eviction" 2 s.Cache.hits;
  Alcotest.(check int) "n=20 was the victim" 4 s.Cache.misses

let test_byte_budget () =
  let _, c16 = radial ~n:16 and _, c24 = radial ~n:24 in
  (* Size one resident n=24 entry with a throwaway cache. *)
  let probe = Cache.create () in
  lookup probe 24 c24;
  let b24 = (Cache.stats probe).Cache.bytes in
  Alcotest.(check bool) "entry footprint is accounted" true (b24 > 0);
  (* Budget fits the big entry plus change, but not both entries. *)
  let cache = Cache.create ~max_bytes:(b24 + (b24 / 4)) () in
  lookup cache 24 c24;
  lookup cache 16 c16;
  let s = Cache.stats cache in
  Alcotest.(check int) "byte budget evicted the older entry" 1
    s.Cache.evictions;
  Alcotest.(check int) "one resident entry" 1 s.Cache.entries;
  Alcotest.(check bool) "resident bytes within budget" true
    (s.Cache.bytes <= b24 + (b24 / 4));
  (* The small recent entry is the survivor. *)
  lookup cache 16 c16;
  let s = Cache.stats cache in
  Alcotest.(check int) "survivor is the recent entry" 1 s.Cache.hits

let test_fingerprint_collision () =
  (* A constant fingerprint makes every trajectory collide; the
     structural comparison must still keep distinct entries. *)
  let cache = Cache.create ~fingerprint:(fun _ -> 42) () in
  let _, a = radial ~n:16 in
  let b = Sample.random_2d ~seed:9 ~g:32 64 in
  let op_a, _ = Cache.operator cache ~backend:"serial" ~ctx:(ctx_for 16 a) in
  let op_b, _ = Cache.operator cache ~backend:"serial" ~ctx:(ctx_for 16 b) in
  Alcotest.(check bool) "colliding trajectories get distinct operators" true
    (op_a != op_b);
  let s = Cache.stats cache in
  Alcotest.(check int) "two entries despite equal fingerprints" 2
    s.Cache.entries;
  Alcotest.(check int) "both lookups were misses" 2 s.Cache.misses;
  let op_a', _ = Cache.operator cache ~backend:"serial" ~ctx:(ctx_for 16 a) in
  Alcotest.(check bool) "re-lookup hits the right entry" true (op_a' == op_a);
  Alcotest.(check int) "hit recorded" 1 (Cache.stats cache).Cache.hits;
  (* Coordinates compare with float [=], so sets that differ only in the
     sign of a zero are the same trajectory: under a colliding
     fingerprint the second one hits the first one's entry. *)
  let with_zero z =
    let gx = Array.copy (Sample.gx b) in
    gx.(0) <- z;
    Sample.make_2d ~g:32 ~gx ~gy:(Array.copy (Sample.gy b))
      ~values:b.Sample.values
  in
  let op_p, _ =
    Cache.operator cache ~backend:"serial" ~ctx:(ctx_for 16 (with_zero 0.0))
  in
  let op_m, _ =
    Cache.operator cache ~backend:"serial" ~ctx:(ctx_for 16 (with_zero (-0.0)))
  in
  Alcotest.(check bool) "-0.0 finds the 0.0 entry" true (op_m == op_p);
  let s = Cache.stats cache in
  Alcotest.(check int) "one new entry for the signed-zero pair" 3
    s.Cache.entries;
  Alcotest.(check int) "the signed-zero re-lookup is a hit" 2 s.Cache.hits

(* The djb2-xor fingerprint as defined over Int64 words. *)
let reference_fingerprint (s : Sample.t) =
  let h = ref 5381L in
  let mix v = h := Int64.logxor (Int64.mul !h 33L) v in
  mix (Int64.of_int s.Sample.g);
  Array.iter
    (fun axis ->
      mix (Int64.of_int (Array.length axis));
      Array.iter (fun x -> mix (Int64.bits_of_float x)) axis)
    s.Sample.coords;
  Int64.to_int !h land max_int

let test_fingerprint_reference () =
  List.iter
    (fun (dims, g, m, seed) ->
      let s = Sample.random ~seed ~dims ~g m in
      Alcotest.(check int)
        (Printf.sprintf "%dD g=%d m=%d" dims g m)
        (reference_fingerprint s) (Cache.default_fingerprint s);
      (* signed zeros, non-finite values and negative bit patterns hash
         through their raw bits like any other coordinate *)
      let odd = Array.map Array.copy s.Sample.coords in
      if m >= 4 then begin
        odd.(0).(0) <- -0.0;
        odd.(0).(1) <- Float.nan;
        odd.(dims - 1).(2) <- neg_infinity;
        odd.(dims - 1).(3) <- -1.5
      end;
      let s' = { s with Sample.coords = odd } in
      Alcotest.(check int) "special coordinates" (reference_fingerprint s')
        (Cache.default_fingerprint s'))
    [ (2, 32, 64, 1); (2, 128, 3072, 2); (2, 255, 1000, 3); (3, 16, 500, 4);
      (3, 64, 2048, 5); (2, 8, 0, 6); (1, 7, 9, 7) ];
  (* Allocation-free: a boxed Int64 per coordinate would cost 24 bytes
     each. *)
  let s = Sample.random ~seed:9 ~dims:2 ~g:128 3072 in
  ignore (Cache.default_fingerprint s);
  let b0 = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (Cache.default_fingerprint s));
  let bytes = Gc.allocated_bytes () -. b0 in
  Alcotest.(check bool)
    (Printf.sprintf "fingerprint allocates %g bytes <= 64" bytes)
    true (bytes <= 64.0)

let test_concurrent_single_build () =
  with_telemetry @@ fun () ->
  let c_miss = Telemetry.Counter.make "sample_plan.cache_miss" in
  let before = Telemetry.Counter.value c_miss in
  let _, coords = radial ~n:32 in
  let ctx = ctx_for 32 coords in
  let cache = Cache.create () in
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pool.parallel_for ~chunk:1 pool ~start:0 ~stop:8 (fun _ ->
          ignore (Cache.operator cache ~backend:"serial" ~ctx)));
  let s = Cache.stats cache in
  Alcotest.(check int) "eight concurrent lookups, one build" 1 s.Cache.misses;
  Alcotest.(check int) "the other seven were hits" 7 s.Cache.hits;
  Alcotest.(check int) "decomposition compiled exactly once" 1
    (Telemetry.Counter.value c_miss - before)

(* The Toeplitz state of a normal map lives in the operator instance, so
   every lookup of a cache entry shares one spectrum, and the entry's
   bytes count it once it is built. *)
let test_toeplitz_state_shared () =
  with_telemetry @@ fun () ->
  let c_built = Telemetry.Counter.make "op.normal_spectra_built" in
  let n = 12 in
  let _, coords = radial ~n in
  let ctx = ctx_for n coords in
  let cache = Cache.create () in
  let op1, _ = Cache.operator cache ~backend:"serial" ~ctx in
  let bytes0 = (Cache.stats cache).Cache.bytes in
  let x = Cvec.init (n * n) (fun k -> C.make (float_of_int (k mod 7)) 0.5) in
  let y = Op.normal op1 x in
  let op2, _ = Cache.operator cache ~backend:"serial" ~ctx in
  let s = Cache.stats cache in
  Alcotest.(check int) "operator built once" 1 s.Cache.misses;
  Alcotest.(check int) "second lookup hit the cache" 1 s.Cache.hits;
  let t = Option.get (Op.normal_of op1) in
  Alcotest.(check bool) "both lookups share one Toeplitz state" true
    (Option.get (Op.normal_of op2) == t);
  check_bitwise "normal map identical across cached lookups" y
    (Op.normal op2 x);
  Alcotest.(check int) "spectrum built once" 1
    (Telemetry.Counter.value c_built);
  Alcotest.(check int) "entry bytes count the spectrum"
    (bytes0 + Nufft.Toeplitz.bytes t) s.Cache.bytes

(* Adjoint requests never touch the normal map: a service serving only
   them builds no spectrum; the first CG request builds one. *)
let test_adjoint_traffic_builds_no_spectrum () =
  with_telemetry @@ fun () ->
  let c_built = Telemetry.Counter.make "op.normal_spectra_built" in
  let n = 16 in
  (* Dense enough (16 samples per unknown) that CG runs on the Toeplitz
     map. *)
  let traj =
    Trajectory.Spiral.make ~interleaves:16 ~samples_per_interleave:256 ()
  in
  let coords = Imaging.Recon.coords_of_traj ~g:(2 * n) traj in
  let svc = Svc.create () in
  let req =
    { Svc.backend = "serial";
      transform = Nufft.Transform.Type1;
      n;
      coords;
      values = values_for coords;
      density = None;
      method_ = Svc.Adjoint;
      tol = None;
      family = None }
  in
  for _ = 1 to 3 do
    ignore (sok (Svc.submit svc req))
  done;
  let op, _ =
    match Svc.operator svc ~backend:"serial" ~n ~coords with
    | Ok p -> p
    | Error e -> Alcotest.failf "operator: %s" (Svc.error_message e)
  in
  let t = Option.get (Op.normal_of op) in
  Alcotest.(check int) "no spectrum built" 0 (Telemetry.Counter.value c_built);
  Alcotest.(check bool) "no spectrum held" true
    (Nufft.Toeplitz.spectrum t = None);
  let bytes0 = (Cache.stats (Svc.cache svc)).Cache.bytes in
  ignore (sok (Svc.submit svc { req with Svc.method_ = Svc.Cg 4 }));
  Alcotest.(check int) "a CG request builds one" 1
    (Telemetry.Counter.value c_built);
  Alcotest.(check int) "and the cache counts it"
    (bytes0 + Nufft.Toeplitz.bytes t)
    (Cache.stats (Svc.cache svc)).Cache.bytes

(* ------------------------------------------------------------------ *)
(* Workspace *)

let test_workspace_reuse () =
  let ws = Ws.create () in
  let a1 = Ws.checkout ws ~grid:64 ~line:8 ~image:16 ~samples:10 in
  Alcotest.(check int) "grid view length" 64 (Cvec.length a1.Ws.grid);
  Alcotest.(check int) "line view length" 8 (Cvec.length a1.Ws.line);
  Alcotest.(check int) "image view length" 16 (Cvec.length a1.Ws.image);
  Alcotest.(check int) "vals view length" 10 (Cvec.length a1.Ws.vals);
  Alcotest.(check int) "cg buffer length" 16
    (Cvec.length a1.Ws.cg.Imaging.Cg.bx);
  Ws.checkin ws a1;
  (* Smaller request: the retained slot serves it without growing. *)
  let a2 = Ws.checkout ws ~grid:32 ~line:8 ~image:16 ~samples:4 in
  Alcotest.(check int) "smaller grid view" 32 (Cvec.length a2.Ws.grid);
  Alcotest.(check bool) "slot was reused" true (a1.Ws.slot == a2.Ws.slot);
  Ws.checkin ws a2;
  let s = Ws.stats ws in
  Alcotest.(check int) "checkouts" 2 s.Ws.checkouts;
  Alcotest.(check int) "reuses" 1 s.Ws.reuses;
  Alcotest.(check int) "grows only on first checkout" 7 s.Ws.grows;
  Alcotest.(check int) "slot retained" 1 s.Ws.retained;
  (* Concurrent checkouts get private slots. *)
  let b1 = Ws.checkout ws ~grid:8 ~line:4 ~image:4 ~samples:2 in
  let b2 = Ws.checkout ws ~grid:8 ~line:4 ~image:4 ~samples:2 in
  Alcotest.(check bool) "concurrent checkouts are distinct slots" true
    (b1.Ws.slot != b2.Ws.slot);
  Ws.checkin ws b1;
  Ws.checkin ws b2

(* Every registered 2D backend and every 3D-capable CPU backend, through
   the service twice (fresh arena, then reused arena), against a
   fresh-buffer reference reconstruction: all three images must be
   bitwise identical. *)
let test_arena_bitwise_all_backends () =
  let svc = Svc.create () in
  let check_backends ~n ~coords ~density backends =
    let values = values_for coords in
    List.iter
      (fun backend ->
        let req =
          { Svc.backend;
            transform = Nufft.Transform.Type1;
            n;
            coords;
            values;
            density;
            method_ = Svc.Adjoint;
            tol = None;
            family = None }
        in
        let r1 = sok (Svc.submit svc req) in
        let r2 = sok (Svc.submit svc req) in
        let op = Op.create backend (ctx_for n coords) in
        let reference =
          match
            Imaging.Recon.reconstruct_op ?density op
              (Sample.with_values coords values)
          with
          | Ok image -> image
          | Error e ->
              Alcotest.failf "%s reference: %s" backend
                (Imaging.Recon.error_message e)
        in
        check_bitwise (backend ^ ": arena = fresh buffers") reference
          r1.Svc.image;
        check_bitwise (backend ^ ": reused arena = first arena") r1.Svc.image
          r2.Svc.image)
      backends
  in
  let n = 16 in
  let traj, coords = radial ~n in
  check_backends ~n ~coords
    ~density:(Some (Trajectory.Radial.density_weights traj))
    (List.filter (fun b -> b <> latch_name) (Op.names ~dims:2 ()));
  let n = 12 in
  let coords = Sample.random_3d ~seed:19 ~g:(2 * n) 700 in
  check_backends ~n ~coords ~density:None
    (List.filter
       (fun b -> Op.plan_of (Op.create b (ctx_for n coords)) <> None)
       (Op.names ~dims:3 ()))

let test_steady_state_allocation () =
  Telemetry.set_enabled false;
  let n = 32 in
  let _, coords = radial ~n in
  let values = values_for coords in
  let svc = Svc.create () in
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
  (* Warm up: plan built, arena grown, FFT twiddles cached. *)
  ignore (sok (Svc.submit svc req));
  ignore (sok (Svc.submit svc req));
  let rounds = 5 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (sok (Svc.submit svc req))
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int rounds in
  (* O(1): independent of the sample count (m = 512 here) and the grid
     (64^2); per-sample or per-pixel allocation would be >= 10^4 words. *)
  Alcotest.(check bool)
    (Printf.sprintf "steady-state minor words per request (%g) <= 2000" per)
    true (per <= 2000.0)

(* ------------------------------------------------------------------ *)
(* Reconstruction service *)

let test_warm_request_zero_plan_builds () =
  with_telemetry @@ fun () ->
  let c_miss = Telemetry.Counter.make "sample_plan.cache_miss" in
  let n = 24 in
  let traj = Trajectory.Radial.make ~spokes:8 ~readout:(2 * n) () in
  (* Two structurally-equal but physically-distinct coordinate sets: the
     warm request must rebind onto the canonical arrays, not recompile. *)
  let coords1 = Imaging.Recon.coords_of_traj ~g:(2 * n) traj in
  let coords2 = Imaging.Recon.coords_of_traj ~g:(2 * n) traj in
  Alcotest.(check bool) "coordinate arrays are distinct" true
    (coords1.Sample.coords.(0) != coords2.Sample.coords.(0));
  let values = values_for coords1 in
  let svc = Svc.create () in
  let req coords =
    { Svc.backend = "slice";
      transform = Nufft.Transform.Type1;
      n;
      coords;
      values;
      density = None;
      method_ = Svc.Adjoint;
      tol = None;
      family = None }
  in
  let before = Telemetry.Counter.value c_miss in
  let r1 = sok (Svc.submit svc (req coords1)) in
  Alcotest.(check int) "cold request compiles the decomposition once" 1
    (Telemetry.Counter.value c_miss - before);
  let after_cold = Telemetry.Counter.value c_miss in
  let r2 = sok (Svc.submit svc (req coords2)) in
  Alcotest.(check int) "warm request performs zero plan builds" 0
    (Telemetry.Counter.value c_miss - after_cold);
  let s = Cache.stats (Svc.cache svc) in
  Alcotest.(check int) "warm request hit the operator cache" 1 s.Cache.hits;
  check_bitwise "warm image = cold image" r1.Svc.image r2.Svc.image

(* Fresh trajectories of one geometry, spread over two tenants' caches:
   every request misses its plan cache and builds a plan, but only the
   first builds the weight table; the rest share it. *)
let test_fresh_trajectories_share_tables () =
  with_telemetry @@ fun () ->
  let c_built = Telemetry.Counter.make "plan.tables_built"
  and c_shared = Telemetry.Counter.make "plan.tables_shared" in
  (* A geometry no other test uses (l = 768), so its table starts cold. *)
  let n = 20 and l = 768 and k = 6 in
  let tenant_a = Svc.create ~l () and tenant_b = Svc.create ~l () in
  Gc.full_major ();
  let built = Telemetry.Counter.value c_built
  and shared = Telemetry.Counter.value c_shared in
  for i = 0 to k - 1 do
    let coords = Sample.random_2d ~seed:(100 + i) ~g:(2 * n) 150 in
    let svc = if i land 1 = 0 then tenant_a else tenant_b in
    ignore
      (sok
         (Svc.submit svc
            { Svc.backend = "serial";
              transform = Nufft.Transform.Type1;
              n;
              coords;
              values = values_for coords;
              density = None;
              method_ = Svc.Adjoint;
              tol = None;
              family = None }))
  done;
  let misses svc = (Cache.stats (Svc.cache svc)).Cache.misses in
  Alcotest.(check int) "every request built a plan" k
    (misses tenant_a + misses tenant_b);
  Alcotest.(check int) "one table built" 1
    (Telemetry.Counter.value c_built - built);
  Alcotest.(check int) "K - 1 tables shared" (k - 1)
    (Telemetry.Counter.value c_shared - shared)

let test_typed_errors () =
  let n = 16 in
  let _, coords = radial ~n in
  let m = Sample.length coords in
  let values = values_for coords in
  let svc = Svc.create () in
  let base =
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
  let expect name pred req =
    match Svc.submit svc req with
    | Ok _ -> Alcotest.failf "%s: expected a typed error" name
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s -> %s" name (Svc.error_message e))
          true (pred e)
  in
  let invalid = function Svc.Invalid_request _ -> true | _ -> false in
  expect "unknown backend" invalid { base with Svc.backend = "no-such" };
  expect "n too small" invalid { base with Svc.n = 1 };
  expect "grid/coords mismatch" invalid { base with Svc.n = 20 };
  expect "3D-only backend on 2D coords" invalid
    { base with Svc.backend = "jigsaw-3d" };
  expect "values length mismatch" invalid
    { base with Svc.values = Cvec.create (m - 1) };
  expect "cg iterations < 1" invalid { base with Svc.method_ = Svc.Cg 0 };
  expect "empty sample set"
    (function
      | Svc.Recon_error Imaging.Recon.Empty_sample_set -> true | _ -> false)
    { base with
      Svc.coords = Sample.random_2d ~g:32 0;
      values = Cvec.create 0 };
  expect "density length mismatch"
    (function
      | Svc.Recon_error
          (Imaging.Recon.Density_length_mismatch { expected; got }) ->
          expected = m && got = 3
      | _ -> false)
    { base with Svc.density = Some (Array.make 3 1.0) };
  (* Batch: per-request failure, in request order, no escaped exception. *)
  match
    Svc.submit_batch svc [ base; { base with Svc.backend = "no-such" }; base ]
  with
  | [ Ok _; Error (Svc.Invalid_request _); Ok _ ] -> ()
  | results ->
      Alcotest.failf "batch results misordered (%d results)"
        (List.length results)

(* A non-finite density weight is a typed reject for every method, not a
   silently NaN image. *)
let test_nonfinite_density_rejected () =
  let n = 16 in
  let traj, coords = radial ~n in
  let svc = Svc.create () in
  List.iter
    (fun bad ->
      let density = Trajectory.Radial.density_weights traj in
      density.(3) <- bad;
      List.iter
        (fun method_ ->
          let req =
            { Svc.backend = "serial";
              transform = Nufft.Transform.Type1;
              n;
              coords;
              values = values_for coords;
              density = Some density;
              method_;
              tol = None;
              family = None }
          in
          match Svc.submit svc req with
          | Error (Svc.Invalid_request msg) ->
              Alcotest.(check string) "message" "non-finite density weight" msg
          | Ok _ -> Alcotest.failf "weight %g accepted" bad
          | Error e ->
              Alcotest.failf "untyped reject: %s" (Svc.error_message e))
        [ Svc.Adjoint; Svc.Cg 2 ])
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_cg_through_service () =
  let n = 16 in
  let traj, coords = radial ~n in
  let density = Trajectory.Radial.density_weights traj in
  let phantom = Imaging.Phantom.make ~n () in
  let svc = Svc.create () in
  let op, _ =
    match Svc.operator svc ~backend:"serial" ~n ~coords with
    | Ok p -> p
    | Error e -> Alcotest.failf "operator: %s" (Svc.error_message e)
  in
  let samples = Imaging.Recon.acquire_op op phantom in
  let req =
    { Svc.backend = "serial";
      transform = Nufft.Transform.Type1;
      n;
      coords;
      values = samples.Sample.values;
      density = Some density;
      method_ = Svc.Cg 8;
      tol = None;
      family = None }
  in
  let resp = sok (Svc.submit svc req) in
  Alcotest.(check bool) "cg ran at least one iteration" true
    (resp.Svc.iterations >= 1);
  (* Pooled CG buffers must match the fresh-buffer solver bitwise. *)
  let rhs = Imaging.Cg.normal_equations_rhs_op ~weights:density op samples in
  let reference =
    Imaging.Cg.solve_normal ~max_iterations:8 ~weights:density op rhs
  in
  check_bitwise "service CG = direct CG" reference.Imaging.Cg.solution
    resp.Svc.image

(* An undersampled radial set (4 spokes at n = 16, 128 samples for 256
   unknowns): the solve runs on the gridding composition and returns
   exactly CG on [Operator.normal_gridded]. *)
let test_undersampled_cg_gridded () =
  with_telemetry @@ fun () ->
  let n = 16 in
  let traj, coords = radial ~n in
  let weights = Trajectory.Radial.density_weights traj in
  let op = Nufft.Operator.create "serial" (Nufft.Operator.context ~n ~coords ()) in
  let samples = Sample.with_values coords (values_for coords) in
  let rhs = Imaging.Cg.normal_equations_rhs_op ~weights op samples in
  let reruns = Telemetry.Counter.make "cg.gridded_solves" in
  let before = Telemetry.Counter.value reruns in
  let got = Imaging.Cg.solve_normal ~max_iterations:8 ~weights op rhs in
  Alcotest.(check int) "one gridded solve" 1 (Telemetry.Counter.value reruns - before);
  let gridded =
    Imaging.Cg.solve ~max_iterations:8
      ~apply:(Nufft.Operator.normal_gridded ~weights op)
      rhs
  in
  check_bitwise "solve = CG on the composition"
    gridded.Imaging.Cg.solution got.Imaging.Cg.solution

let test_type3_and_type2_through_service () =
  let n = 16 in
  let traj, coords = radial ~n in
  let density = Trajectory.Radial.density_weights traj in
  let values = values_for coords in
  let m = Sample.length coords in
  let svc = Svc.create () in
  let base =
    { Svc.backend = "serial";
      transform = Nufft.Transform.Type1;
      n;
      coords;
      values;
      density = Some density;
      method_ = Svc.Adjoint;
      tol = Some 1e-5;
      family = None }
  in
  (* Type-3 on the default lattice targets reproduces the type-1 adjoint
     reconstruction to the plan tolerance (same sum, two different
     factorizations). *)
  let r1 = sok (Svc.submit svc base) in
  let r3 =
    sok (Svc.submit svc { base with Svc.transform = Nufft.Transform.Type3 })
  in
  Alcotest.(check int) "type-3 image length" (Cvec.length r1.Svc.image)
    (Cvec.length r3.Svc.image);
  let err = Cvec.nrmsd ~reference:r1.Svc.image r3.Svc.image in
  Alcotest.(check bool)
    (Printf.sprintf "type-3 = type-1 on the lattice (nrmsd %.2e)" err)
    true (err < 1e-3);
  (* Type-3 + CG is a typed error, not an escape. *)
  (match
     Svc.submit svc
       { base with
         Svc.transform = Nufft.Transform.Type3;
         method_ = Svc.Cg 4 }
   with
  | Error (Svc.Invalid_request _) -> ()
  | _ -> Alcotest.fail "type-3 cg accepted");
  (* Type-2 forward projection: image in, m k-space samples out. *)
  let image =
    Cvec.init (n * n) (fun k ->
        C.make
          (0.02 *. float_of_int ((k mod 23) - 11))
          (0.01 *. float_of_int ((k mod 7) - 3)))
  in
  let r2 =
    sok
      (Svc.submit svc
         { base with
           Svc.transform = Nufft.Transform.Type2;
           values = image;
           density = None })
  in
  Alcotest.(check int) "type-2 returns one value per sample" m
    (Cvec.length r2.Svc.image);
  Alcotest.(check int) "type-2 performs no iterations" 0 r2.Svc.iterations;
  (* Type-2 with an image-length mismatch is a typed error. *)
  match
    Svc.submit svc
      { base with
        Svc.transform = Nufft.Transform.Type2;
        values;
        density = None }
  with
  | Error (Svc.Invalid_request _) -> ()
  | _ -> Alcotest.fail "type-2 with k-space-length values accepted"

let test_batch_overlap () =
  Atomic.set latch_entered 0;
  Atomic.set latch_peak 0;
  Atomic.set latch_inflight 0;
  let n = 16 in
  let _, coords = radial ~n in
  let values = values_for coords in
  let pool = Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let svc = Svc.create ~pool () in
      let req =
        { Svc.backend = latch_name;
          transform = Nufft.Transform.Type1;
          n;
          coords;
          values;
          density = None;
          method_ = Svc.Adjoint;
          tol = None;
          family = None }
      in
      let t0 = Unix.gettimeofday () in
      let results = Svc.submit_batch svc [ req; req ] in
      let dt = Unix.gettimeofday () -. t0 in
      List.iter
        (fun r ->
          match r with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "latch request failed: %s" (Svc.error_message e))
        results;
      Alcotest.(check int) "both requests reached the backend" 2
        (Atomic.get latch_entered);
      Alcotest.(check int) "requests were in flight concurrently" 2
        (Atomic.get latch_peak);
      Alcotest.(check bool)
        (Printf.sprintf "overlap released the latch promptly (%.1fs)" dt)
        true (dt < 4.0))

(* An unset service width takes the plan's sigma-derived default: at
   sigma = 1.5 that is the Beatty width 7, not the sigma = 2 width 6. *)
let test_geometry_defaults () =
  let n = 16 and sigma = 1.5 in
  let coords = Sample.random_2d ~seed:3 ~g:24 200 in
  let svc = Svc.create ~sigma () in
  match Svc.operator svc ~backend:"serial" ~n ~coords with
  | Error e -> Alcotest.failf "operator: %s" (Svc.error_message e)
  | Ok (op, _) ->
      let plan = Option.get (Op.plan_of op) in
      let reference = Nufft.Plan.make ~sigma ~n () in
      Alcotest.(check int) "w = Plan.make's w" reference.Nufft.Plan.w
        plan.Nufft.Plan.w;
      Alcotest.(check int) "l = Plan.make's l" reference.Nufft.Plan.l
        plan.Nufft.Plan.l

(* ["auto"] (and the retired ["replay-simd"]) resolve to ["serial"]: under
   every SIMD dispatch state an auto request and a serial request share
   one plan-cache entry and give the same image bit for bit. *)
let test_auto_backend () =
  let n = 16 in
  let _, coords = radial ~n in
  let values = values_for coords in
  let req backend =
    { Svc.backend;
      transform = Nufft.Transform.Type1;
      n;
      coords;
      values;
      density = None;
      method_ = Svc.Adjoint;
      tol = None;
      family = None }
  in
  List.iter
    (fun impl ->
      Simd.with_impl impl @@ fun () ->
      let label = Simd.impl_name (Simd.active ()) in
      List.iter
        (fun name ->
          Alcotest.(check string) (label ^ ": " ^ name ^ " resolves") "serial"
            (Op.resolve_backend name))
        [ "auto"; "replay-simd" ];
      let svc = Svc.create () in
      let auto = sok (Svc.submit svc (req "auto")) in
      let serial = sok (Svc.submit svc (req "serial")) in
      let again = sok (Svc.submit svc (req "auto")) in
      let st = Cache.stats (Svc.cache svc) in
      Alcotest.(check int) (label ^ ": one cache entry") 1 st.Cache.entries;
      Alcotest.(check int) (label ^ ": serial and repeat auto hit it") 2
        st.Cache.hits;
      check_bitwise (label ^ ": auto = serial") serial.Svc.image auto.Svc.image;
      check_bitwise (label ^ ": repeat auto") auto.Svc.image again.Svc.image)
    (List.sort_uniq compare [ Simd.Off; Simd.Scalar; Simd.available ])

(* Image 4 at full M (n = 320, 500,016 samples): its factored plan
   (~96 MB) fits the default 256 MiB cache budget, so a repeat request is
   a hit and nothing is evicted. *)
let test_image4_resident () =
  let d = Trajectory.Dataset.by_name "Image 4" in
  let n = d.Trajectory.Dataset.n in
  let coords = Imaging.Recon.coords_of_traj ~g:(2 * n) (d.trajectory ()) in
  Alcotest.(check int) "full M" d.m (Sample.length coords);
  let svc = Svc.create () in
  let req =
    { Svc.backend = "serial";
      transform = Nufft.Transform.Type1;
      n;
      coords;
      values = values_for coords;
      density = None;
      method_ = Svc.Adjoint;
      tol = None;
      family = None }
  in
  let first = sok (Svc.submit svc req) in
  let again = sok (Svc.submit svc req) in
  let st = Cache.stats (Svc.cache svc) in
  Alcotest.(check int) "second submit is a cache hit" 1 st.Cache.hits;
  Alcotest.(check int) "no evictions" 0 st.Cache.evictions;
  check_bitwise "repeat image" first.Svc.image again.Svc.image

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "pipeline"
    [ ( "plan_cache",
        [ Alcotest.test_case "lru eviction order" `Quick
            test_lru_eviction_order;
          Alcotest.test_case "byte budget" `Quick test_byte_budget;
          Alcotest.test_case "fingerprint collision" `Quick
            test_fingerprint_collision;
          Alcotest.test_case "fingerprint = djb2-xor reference" `Quick
            test_fingerprint_reference;
          Alcotest.test_case "concurrent single build" `Quick
            test_concurrent_single_build;
          Alcotest.test_case "toeplitz state shared by lookups" `Quick
            test_toeplitz_state_shared ] );
      ( "workspace",
        [ Alcotest.test_case "slot reuse" `Quick test_workspace_reuse;
          Alcotest.test_case "bitwise through arenas, all backends" `Quick
            test_arena_bitwise_all_backends;
          Alcotest.test_case "steady-state allocation" `Quick
            test_steady_state_allocation ] );
      ( "recon_service",
        [ Alcotest.test_case "warm request zero plan builds" `Quick
            test_warm_request_zero_plan_builds;
          Alcotest.test_case "typed errors" `Quick test_typed_errors;
          Alcotest.test_case "cg through the service" `Quick
            test_cg_through_service;
          Alcotest.test_case "type-3 and type-2 requests" `Quick
            test_type3_and_type2_through_service;
          Alcotest.test_case "batch overlap across the pool" `Quick
            test_batch_overlap;
          Alcotest.test_case "geometry defaults from the plan" `Quick
            test_geometry_defaults;
          Alcotest.test_case "auto backend rule" `Quick test_auto_backend;
          Alcotest.test_case "Image 4 at full M stays resident" `Quick
            test_image4_resident;
          Alcotest.test_case "fresh trajectories share geometry tables"
            `Quick test_fresh_trajectories_share_tables;
          Alcotest.test_case "non-finite density rejected" `Quick
            test_nonfinite_density_rejected;
          Alcotest.test_case "adjoint traffic builds no spectrum" `Quick
            test_adjoint_traffic_builds_no_spectrum;
          Alcotest.test_case "undersampled cg runs on the composition"
            `Quick test_undersampled_cg_gridded ] )
    ]
