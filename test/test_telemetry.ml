(* Telemetry unit tests: the disabled near-no-op contract, span
   nesting/ordering, deterministic cross-domain event merging, counter
   monotonicity, histograms, synthetic spans, and the chrome-trace JSON
   exporter (parsed with a small self-contained JSON reader and checked
   for well-formed ph/ts/dur and proper per-track nesting). The last
   group drives a real pooled CG reconstruction through the operator
   registry and asserts the trace covers plan build, gridding, FFT, pool
   scheduling and CG iterations. *)

module T = Telemetry
module Op = Nufft.Operator
module Sample = Nufft.Sample
module Cvec = Numerics.Cvec

let with_telemetry f =
  T.reset ();
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Disabled path. *)

let test_disabled () =
  T.reset ();
  T.set_enabled false;
  Alcotest.(check bool) "span_begin returns the shared null token" true
    (T.span_begin "x" == T.null_span);
  T.span_end (T.span_begin ~cat:"t" "x");
  T.emit_span ~name:"y" ~ts_ns:0 ~dur_ns:10 ();
  let c = T.Counter.make "test.disabled" in
  T.Counter.add c 5;
  let h = T.Histogram.make "test.disabled_h" in
  T.Histogram.observe h 1.0;
  Alcotest.(check int) "no events recorded" 0 (List.length (T.events ()));
  Alcotest.(check int) "counter untouched" 0 (T.Counter.value c);
  Alcotest.(check int) "histogram untouched" 0 (T.Histogram.count h);
  Alcotest.(check int) "with_span calls the thunk directly" 7
    (T.with_span "z" (fun () -> 7))

(* ------------------------------------------------------------------ *)
(* Span nesting and event ordering. *)

let find name evs = List.filter (fun (e : T.event) -> e.T.name = name) evs

let the name evs =
  match find name evs with
  | [ e ] -> e
  | l ->
      Alcotest.failf "expected exactly one %S event, got %d" name
        (List.length l)

let contains (parent : T.event) (child : T.event) =
  child.T.ts_ns >= parent.T.ts_ns
  && child.T.ts_ns + child.T.dur_ns <= parent.T.ts_ns + parent.T.dur_ns

let has_substring hay needle =
  let len = String.length hay and nl = String.length needle in
  let rec scan i =
    i + nl <= len && (String.sub hay i nl = needle || scan (i + 1))
  in
  scan 0

let test_nesting () =
  with_telemetry @@ fun () ->
  let a = T.span_begin ~cat:"t" "outer" in
  let b = T.span_begin ~cat:"t" "middle" in
  ignore (T.with_span ~cat:"t" "inner" (fun () -> 1 + 1));
  T.span_end b;
  T.span_end a;
  let evs = T.events () in
  Alcotest.(check int) "three events" 3 (List.length evs);
  let outer = the "outer" evs
  and middle = the "middle" evs
  and inner = the "inner" evs in
  Alcotest.(check bool) "middle inside outer" true (contains outer middle);
  Alcotest.(check bool) "inner inside middle" true (contains middle inner);
  (* events () is sorted by start time: inner opened last *)
  Alcotest.(check (list string)) "sorted by start time"
    [ "outer"; "middle"; "inner" ]
    (List.map (fun (e : T.event) -> e.T.name) evs);
  let tree = T.tree_summary () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " in tree summary") true
        (has_substring tree n))
    [ "outer"; "middle"; "inner" ]

let test_exception_safety () =
  with_telemetry @@ fun () ->
  (try T.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span closed on exception" 1
    (List.length (find "boom" (T.events ())))

let test_emit_span () =
  with_telemetry @@ fun () ->
  T.emit_span ~cat:"model" ~tid:900
    ~args:[ ("cycles", "1234") ]
    ~name:"synthetic" ~ts_ns:5000 ~dur_ns:250 ();
  let e = the "synthetic" (T.events ()) in
  Alcotest.(check int) "verbatim ts" 5000 e.T.ts_ns;
  Alcotest.(check int) "verbatim dur" 250 e.T.dur_ns;
  Alcotest.(check int) "custom tid" 900 e.T.tid;
  Alcotest.(check (list (pair string string)))
    "args kept"
    [ ("cycles", "1234") ]
    e.T.args

(* ------------------------------------------------------------------ *)
(* Counters. *)

let test_counter_monotonic () =
  with_telemetry @@ fun () ->
  let c = T.Counter.make "test.mono" in
  Alcotest.(check bool) "make is idempotent" true
    (c == T.Counter.make "test.mono");
  T.Counter.add c 3;
  T.Counter.incr c;
  Alcotest.(check int) "accumulates" 4 (T.Counter.value c);
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Telemetry.Counter.add: negative increment") (fun () ->
      T.Counter.add c (-1));
  Alcotest.(check int) "value unchanged after rejection" 4 (T.Counter.value c);
  Alcotest.(check bool) "listed in all ()" true
    (List.mem ("test.mono", 4) (T.Counter.all ()))

let test_counter_domains () =
  with_telemetry @@ fun () ->
  let c = T.Counter.make "test.domains" in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              T.Counter.incr c
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "atomic across domains" 4000 (T.Counter.value c)

let test_histogram () =
  with_telemetry @@ fun () ->
  let h = T.Histogram.make "test.h" in
  List.iter (T.Histogram.observe h) [ 1.0; 2.0; 3.0; 10.0 ];
  Alcotest.(check int) "count" 4 (T.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 16.0 (T.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean" 4.0 (T.Histogram.mean h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (T.Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 10.0 (T.Histogram.max_value h)

(* ------------------------------------------------------------------ *)
(* Deterministic merge of per-domain sinks. *)

let test_merge_determinism () =
  with_telemetry @@ fun () ->
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 25 do
              let sp = T.span_begin ~cat:"t" (Printf.sprintf "d%d.%d" d i) in
              T.span_end sp
            done))
  in
  Array.iter Domain.join domains;
  let a = T.events () and b = T.events () in
  Alcotest.(check int) "all events merged" 100 (List.length a);
  Alcotest.(check bool) "merge is deterministic" true (a = b);
  let keys =
    List.map (fun (e : T.event) -> (e.T.ts_ns, e.T.tid, e.T.seq)) a
  in
  Alcotest.(check bool) "sorted by (ts, tid, seq)" true
    (List.sort compare keys = keys);
  (* per-sink sequence numbers stay increasing in merged order *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : T.event) ->
      (match Hashtbl.find_opt tbl e.T.tid with
      | Some prev when prev >= e.T.seq ->
          Alcotest.failf "tid %d seq regressed: %d then %d" e.T.tid prev
            e.T.seq
      | _ -> ());
      Hashtbl.replace tbl e.T.tid e.T.seq)
    a

(* ------------------------------------------------------------------ *)
(* A minimal JSON reader — just enough to validate the exporter without
   adding a dependency. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else '\255' in
    let advance () = incr pos in
    let fail msg = raise (Parse (Printf.sprintf "%s at %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = c then advance ()
      else fail (Printf.sprintf "expected %c" c)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                (* code points are irrelevant here; skip the 4 digits *)
                for _ = 1 to 4 do
                  advance ()
                done;
                Buffer.add_char b '?'
            | c -> fail (Printf.sprintf "bad escape %c" c));
            advance ();
            go ()
        | '\255' -> fail "unterminated string"
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then begin
            advance ();
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | '}' ->
                  advance ();
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected , or }"
            in
            members []
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then begin
            advance ();
            Arr []
          end
          else
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  elements (v :: acc)
              | ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected , or ]"
            in
            elements []
      | '"' -> Str (parse_string ())
      | 't' ->
          pos := !pos + 4;
          Bool true
      | 'f' ->
          pos := !pos + 5;
          Bool false
      | 'n' ->
          pos := !pos + 4;
          Null
      | _ ->
          let start = !pos in
          let is_num c =
            (c >= '0' && c <= '9')
            || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
          in
          while is_num (peek ()) do
            advance ()
          done;
          if !pos = start then fail "expected value";
          Num (float_of_string (String.sub s start (!pos - start)))
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function Obj l -> List.assoc_opt k l | _ -> None
  let str = function Str s -> Some s | _ -> None
  let num = function Num f -> Some f | _ -> None
end

let get_str j k =
  match Option.bind (Json.member k j) Json.str with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %S" k

let get_num j k =
  match Option.bind (Json.member k j) Json.num with
  | Some f -> f
  | None -> Alcotest.failf "missing numeric field %S" k

(* Validate exporter output: every traceEvent is a ph:"X" complete event
   with non-negative microsecond ts/dur (rebased so the first span is at
   ts 0) or a ph:"C" counter sample, and the "X" intervals on each track
   are properly nested (any two either disjoint or contained). *)
let check_chrome_trace json =
  let root = Json.parse json in
  let evs =
    match Json.member "traceEvents" root with
    | Some (Json.Arr l) -> l
    | _ -> Alcotest.fail "traceEvents missing or not an array"
  in
  Alcotest.(check bool) "has events" true (evs <> []);
  let spans = ref [] in
  List.iter
    (fun e ->
      ignore (get_str e "name");
      match get_str e "ph" with
      | "X" ->
          let ts = get_num e "ts" and dur = get_num e "dur" in
          let tid = int_of_float (get_num e "tid") in
          Alcotest.(check bool) "ts >= 0" true (ts >= 0.0);
          Alcotest.(check bool) "dur >= 0" true (dur >= 0.0);
          spans := (tid, ts, dur) :: !spans
      | "C" -> ignore (get_num e "ts")
      | ph -> Alcotest.failf "unexpected phase %S" ph)
    evs;
  Alcotest.(check bool) "some complete spans" true (!spans <> []);
  Alcotest.(check bool) "rebased to t=0" true
    (List.exists (fun (_, ts, _) -> ts = 0.0) !spans);
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (tid, ts, dur) ->
      let l = try Hashtbl.find by_tid tid with Not_found -> [] in
      Hashtbl.replace by_tid tid ((ts, ts +. dur) :: l))
    !spans;
  Hashtbl.iter
    (fun tid l ->
      let arr = Array.of_list l in
      Array.iteri
        (fun i (s1, e1) ->
          Array.iteri
            (fun j (s2, e2) ->
              if i < j then
                (* ns -> us conversion leaves sub-nanosecond float noise
                   on the boundaries of touching spans *)
                let eps = 1e-3 in
                let disjoint = e1 <= s2 +. eps || e2 <= s1 +. eps in
                let contained =
                  (s1 <= s2 +. eps && e2 <= e1 +. eps)
                  || (s2 <= s1 +. eps && e1 <= e2 +. eps)
                in
                if not (disjoint || contained) then
                  Alcotest.failf
                    "tid %d: overlapping spans [%f,%f] and [%f,%f]" tid s1
                    e1 s2 e2)
            arr)
        arr)
    by_tid

let test_chrome_trace_simple () =
  with_telemetry @@ fun () ->
  let a = T.span_begin ~cat:"t" ~args:[ ("k", "v\"with\\quote") ] "a" in
  let b = T.span_begin ~cat:"t" "b" in
  T.span_end b;
  T.span_end a;
  T.emit_span ~cat:"model" ~tid:900 ~name:"cycles" ~ts_ns:(T.Clock.now_ns ())
    ~dur_ns:1000 ();
  let c = T.Counter.make "test.trace_counter" in
  T.Counter.add c 17;
  check_chrome_trace (T.chrome_trace ())

(* ------------------------------------------------------------------ *)
(* End-to-end coverage: a pooled CG reconstruction must leave spans from
   every stage of the pipeline in one trace. *)

let test_cg_trace_coverage () =
  with_telemetry @@ fun () ->
  let n = 16 in
  let g = 2 * n in
  let pool = Runtime.Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let traj = Trajectory.Radial.make ~spokes:8 ~readout:g () in
  let density = Trajectory.Radial.density_weights traj in
  let coords = Imaging.Recon.coords_of_traj ~g traj in
  let op = Op.create "slice-parallel" (Op.context ~pool ~n ~coords ()) in
  let phantom = Imaging.Phantom.make ~n () in
  let samples = Imaging.Recon.acquire_op op phantom in
  let rhs = Imaging.Cg.normal_equations_rhs_op ~weights:density op samples in
  let res =
    Imaging.Cg.solve ~max_iterations:3
      ~apply:(Imaging.Cg.normal_map ~weights:density op)
      rhs
  in
  Alcotest.(check bool) "cg ran" true (res.Imaging.Cg.iterations > 0);
  let evs = T.events () in
  let cats =
    List.sort_uniq compare (List.map (fun (e : T.event) -> e.T.cat) evs)
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) (Printf.sprintf "cat %S covered" c) true
        (List.mem c cats))
    [ "plan"; "grid"; "fft"; "pool"; "cg"; "op" ];
  Alcotest.(check int) "cg.iterations counted" res.Imaging.Cg.iterations
    (T.Counter.value (T.Counter.make "cg.iterations"));
  Alcotest.(check bool) "sample plan cache hit on re-application" true
    (T.Counter.value (T.Counter.make "sample_plan.cache_hit") > 0);
  Alcotest.(check bool) "pool tasks scheduled" true
    (T.Counter.value (T.Counter.make "pool.tasks") > 0);
  (* and the exported trace of that run must be valid chrome JSON *)
  check_chrome_trace (T.chrome_trace ())

(* A warm CG request applies its cached operator's normal map once per
   iteration, one [op.normal] span each, and builds no spectrum: the cold
   request built it. The set is Image 2's spiral (the served CG
   workload), eight samples per unknown, so the solve runs on the
   Toeplitz map. *)
let test_warm_cg_normal_spans () =
  with_telemetry @@ fun () ->
  let ds = Trajectory.Dataset.by_name "Image 2" in
  let n = ds.Trajectory.Dataset.n in
  let traj = ds.Trajectory.Dataset.trajectory () in
  let coords = Imaging.Recon.coords_of_traj ~g:(2 * n) traj in
  let svc = Pipeline.Recon_service.create () in
  let req =
    { Pipeline.Recon_service.backend = "serial";
      transform = Nufft.Transform.Type1;
      n;
      coords;
      values = Cvec.init (Sample.length coords) (fun j ->
          Numerics.Complexd.make (float_of_int (j mod 5)) 1.0);
      density = None;
      method_ = Pipeline.Recon_service.Cg 8;
      tol = None;
      family = None }
  in
  let submit () =
    match Pipeline.Recon_service.submit svc req with
    | Ok r ->
        Alcotest.(check int) "8 iterations" 8
          r.Pipeline.Recon_service.iterations
    | Error e -> Alcotest.fail (Pipeline.Recon_service.error_message e)
  in
  submit ();
  Alcotest.(check int) "cold request: one build" 1
    (List.length (find "op.normal_build" (T.events ())));
  T.reset ();
  submit ();
  let evs = T.events () in
  Alcotest.(check int) "warm request: 8 op.normal spans" 8
    (List.length (find "op.normal" evs));
  Alcotest.(check int) "warm request: no build" 0
    (List.length (find "op.normal_build" evs));
  Alcotest.(check int) "warm request: counter unchanged" 0
    (T.Counter.value (T.Counter.make "op.normal_spectra_built"))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "telemetry"
    [ ( "core",
        [ Alcotest.test_case "disabled is a no-op" `Quick test_disabled;
          Alcotest.test_case "span nesting and order" `Quick test_nesting;
          Alcotest.test_case "exception safety" `Quick test_exception_safety;
          Alcotest.test_case "synthetic spans" `Quick test_emit_span ] );
      ( "metrics",
        [ Alcotest.test_case "counter monotonicity" `Quick
            test_counter_monotonic;
          Alcotest.test_case "counter cross-domain" `Quick
            test_counter_domains;
          Alcotest.test_case "histogram" `Quick test_histogram ] );
      ( "merge",
        [ Alcotest.test_case "deterministic across sinks" `Quick
            test_merge_determinism ] );
      ( "export",
        [ Alcotest.test_case "chrome trace well-formed" `Quick
            test_chrome_trace_simple;
          Alcotest.test_case "cg run covers the pipeline" `Quick
            test_cg_trace_coverage;
          Alcotest.test_case "warm cg: one normal span per iteration" `Quick
            test_warm_cg_normal_spans ] ) ]
