(* Reconstruction benchmark entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics of the workload; with
   --trace 1 it prints the per-layer metrics of a separate traced run and
   writes the recorded spans to .perfbench-out/. The last line of
   standard output is one JSON object; the exit code is nonzero when an
   output check failed. *)

let workloads = [ "radial-256"; "spiral-320-quick"; "cg-spiral-64"; "serve-realtime-64" ]

(* Every per-layer metric, in report order; a workload that does not
   exercise a layer reports 0 for it. *)
let per_layer =
  [ ("trajectory.gen_s", "s");
    ("plan_cache.build_s", "s");
    ("plan_cache.lookup_us", "us");
    ("plan_cache.hits", "count");
    ("plan_cache.misses", "count");
    ("plan_cache.evictions", "count");
    ("plan_cache.hit_ratio", "fraction");
    ("sample_plan.compile_s", "s");
    ("sample_plan.resident_mb", "MB");
    ("sample_plan.spread_ms", "ms");
    ("sample_plan.spread_entries", "count");
    ("sample_plan.spread_gbps_computed", "GB/s");
    ("sample_plan.gather_ms", "ms");
    ("fft.transform_ms", "ms");
    ("fft.gflops_est", "GFLOP/s");
    ("apod.crop_deapodize_ms", "ms");
    ("apod.pad_apodize_ms", "ms");
    ("svc.submit_ms", "ms");
    ("svc.stage_coverage", "fraction");
    ("svc.unattributed_ms", "ms");
    ("workspace.minor_words_per_request", "words");
    ("workspace.major_gcs_per_1k", "count");
    ("workspace.in_use_after", "count");
    ("operator.forward_ms", "ms");
    ("operator.adjoint_ms", "ms");
    ("cg.iterations", "count");
    ("cg.rhs_ms", "ms");
    ("cg.normal_map_ms", "ms");
    ("protocol.encode_request_us", "us");
    ("protocol.decode_request_us", "us");
    ("protocol.encode_response_us", "us");
    ("protocol.decode_response_us", "us");
    ("protocol.request_bytes", "bytes");
    ("protocol.response_bytes", "bytes");
    ("tenants.handle_ms", "ms");
    ("server.worker_busy_frac", "fraction");
    ("server.wait_ms", "ms");
    ("server.shed", "count");
    ("server.timeouts", "count");
    ("server.protocol_errors", "count");
    ("serve.max_rate_rps", "1/s");
    ("serve.max_rate_probes", "count");
    ("generator.late_ms_tail", "ms");
    ("trace.overhead_pct", "%") ]

let usage () =
  prerr_endline
    ("usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n  workloads: "
    ^ String.concat " " workloads);
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref false in
  let rec scan = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        scan rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        scan rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        scan rest
    | "--trace" :: v :: rest ->
        trace := v = "1";
        scan rest
    | _ -> usage ()
  in
  (try scan (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) then usage ();
  let seconds = !seconds and seed = !seed and trace = !trace in
  Printf.printf
    "context: workload=%s seed=%d seconds=%g trace=%b nproc=%d simd=%s ocaml=%s profile=%s\n%!"
    !workload seed seconds trace (Domain.recommended_domain_count ())
    (Simd.impl_name (Simd.active ()))
    Sys.ocaml_version Build_info.profile;
  let o =
    match !workload with
    | "serve-realtime-64" -> Serve.run ~seed ~seconds ~trace
    | w ->
        let spec = List.find (fun s -> s.Inproc.name = w) Inproc.specs in
        Inproc.run ~spec ~seed ~seconds ~trace
  in
  let metrics =
    if not trace then o.Inproc.metrics
    else
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun m -> m.Stats.name = name) o.Inproc.metrics with
          | Some m -> m
          | None -> Inproc.metric name unit_ 0.0)
        per_layer
  in
  if trace then begin
    let dir = ".perfbench-out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Printf.sprintf "%s/trace-%s-seed%d.json" dir !workload seed in
    Ledger.write_chrome path;
    Printf.printf "spans: %d recorded, %d dropped, written to %s\n" !Ledger.count
      !Ledger.dropped path
  end;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) o.Inproc.problems;
  let correct = o.Inproc.problems = [] && o.Inproc.failed = 0 in
  Stats.print_result ~correct ~attempted:o.Inproc.attempted ~failed:o.Inproc.failed metrics;
  exit (if correct then 0 else 1)
