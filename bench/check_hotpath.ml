(* Compare a freshly produced BENCH_hotpath.json against the checked-in
   baseline and fail (exit 1) on a throughput regression beyond the
   tolerance, naming every metric that breached and by how much. When
   the baseline file does not exist (fresh checkout, first run on a new
   machine) the check is skipped with exit 0 so the bench harness stays
   usable without a baseline. Reads only the per-engine lines the
   hotpath harness writes (one object per line), so no JSON library is
   needed.

   Per-metric tolerance overrides: a baseline engine line may carry
   ["tolerance": T] (relative throughput floor for that engine only)
   and/or ["words_tolerance": W] (allocation-note threshold in minor
   words/sample), and the baseline service line may carry a trailing
   ["tolerance": T]. Overrides beat the global [--tolerance] flag, so a
   noisy metric (a pool-scheduled engine, a minor-words count) can be
   held to a loose bound without loosening the bound on every other
   metric.

   The current run's ["replay"] line is self-asserting: the harness
   records the parallel-over-serial replay speedup and the required
   floor (domains / 2); the check fails if the recorded speedup is below
   the recorded requirement. The baseline is not consulted for this —
   the requirement scales with the domain count of the measuring
   machine.

   Usage: check_hotpath.exe CURRENT BASELINE [--tolerance 0.30] *)

type engine_row = {
  name : string;
  sps : float;
  words : float;
  tol : float option;
  words_tol : float option;
}

(* Scanf.sscanf matches a prefix of the line, so the patterns with
   optional trailing fields must be tried longest first — the short
   pattern would happily accept a line carrying overrides and drop
   them. *)
let parse_engine_line line =
  let try_pat pat k = try Some (Scanf.sscanf line pat k) with _ -> None in
  let base = " { \"name\": %S, \"samples_per_sec\": %f, \"minor_words_per_sample\": %f" in
  match
    try_pat
      (Scanf.format_from_string
         (base ^ ", \"tolerance\": %f, \"words_tolerance\": %f")
         " %S %f %f %f %f")
      (fun name sps words t w ->
        { name; sps; words; tol = Some t; words_tol = Some w })
  with
  | Some r -> Some r
  | None -> (
      match
        try_pat
          (Scanf.format_from_string (base ^ ", \"tolerance\": %f")
             " %S %f %f %f")
          (fun name sps words t ->
            { name; sps; words; tol = Some t; words_tol = None })
      with
      | Some r -> Some r
      | None -> (
          match
            try_pat
              (Scanf.format_from_string (base ^ ", \"words_tolerance\": %f")
                 " %S %f %f %f")
              (fun name sps words w ->
                { name; sps; words; tol = None; words_tol = Some w })
          with
          | Some r -> Some r
          | None ->
              try_pat
                (Scanf.format_from_string base " %S %f %f")
                (fun name sps words ->
                  { name; sps; words; tol = None; words_tol = None })))

let fold_lines path f init =
  let ic = open_in path in
  let acc = ref init in
  (try
     while true do
       acc := f !acc (input_line ic)
     done
   with End_of_file -> ());
  close_in ic;
  !acc

let parse_engines path =
  List.rev
    (fold_lines path
       (fun rows line ->
         match parse_engine_line line with
         | Some r -> r :: rows
         | None -> rows)
       [])

(* The service line the hotpath harness writes (schema "service": {...}).
   Older baselines predate the pipeline layer; [None] from the baseline
   skips the service check so they keep working. *)
let parse_service path =
  fold_lines path
    (fun found line ->
      let try_pat pat k = try Some (Scanf.sscanf line pat k) with _ -> None in
      let base =
        " \"service\": { \"requests_per_sec\": %f, \"cold_plan_ms\": %f, \
         \"warm_request_ms\": %f, \"minor_words_per_request\": %f"
      in
      match
        try_pat
          (Scanf.format_from_string
             (base ^ ", \"m\": %d, \"tolerance\": %f")
             " %f %f %f %f %d %f")
          (fun r c w mw _m t -> (r, c, w, mw, Some t))
      with
      | Some row -> Some row
      | None -> (
          match
            try_pat
              (Scanf.format_from_string base " %f %f %f %f")
              (fun r c w mw -> (r, c, w, mw, None))
          with
          | Some row -> Some row
          | None -> found))
    None

let parse_replay path =
  fold_lines path
    (fun found line ->
      match
        Scanf.sscanf line
          " \"replay\": { \"serial_sps\": %f, \"parallel_sps\": %f, \
           \"domains\": %d, \"speedup\": %f, \"required_speedup\": %f"
          (fun s p d sp req -> (s, p, d, sp, req))
      with
      | row -> Some row
      | exception _ -> found)
    None

let parse_simd path =
  fold_lines path
    (fun found line ->
      match
        Scanf.sscanf line
          " \"simd\": { \"impl\": %S, \"scalar_sps\": %f, \"simd_sps\": %f, \
           \"speedup\": %f, \"required_speedup\": %f"
          (fun i s v sp req -> (i, s, v, sp, req))
      with
      | row -> Some row
      | exception _ -> found)
    None

let parse_slice_dispatch path =
  fold_lines path
    (fun found line ->
      match
        Scanf.sscanf line
          " \"slice_dispatch\": { \"serial_sps\": %f, \"dispatched_sps\": \
           %f, \"pool_size\": %d, \"profitable\": %B, \"ratio\": %f, \
           \"required_ratio\": %f"
          (fun s d p prof r req -> (s, d, p, prof, r, req))
      with
      | row -> Some row
      | exception _ -> found)
    None

let parse_telemetry_pct path =
  fold_lines path
    (fun found line ->
      match
        Scanf.sscanf line " \"telemetry_disabled_overhead_pct\": %f"
          (fun p -> p)
      with
      | p -> Some p
      | exception _ -> found)
    None

let () =
  let args = Array.to_list Sys.argv in
  let tolerance = ref 0.30 in
  let files = ref [] in
  let rec scan = function
    | [] -> ()
    | "--tolerance" :: v :: rest ->
        tolerance := float_of_string v;
        scan rest
    | f :: rest ->
        files := f :: !files;
        scan rest
  in
  scan (List.tl args);
  let breaches = ref [] in
  let report () =
    match List.rev !breaches with
    | [] -> ()
    | l ->
        Printf.eprintf "check_hotpath: %d metric(s) breached:\n"
          (List.length l);
        List.iter (fun b -> Printf.eprintf "  - %s\n" b) l;
        exit 1
  in
  match List.rev !files with
  | [ current_path; baseline_path ] ->
      if not (Sys.file_exists baseline_path) then begin
        Printf.printf
          "check_hotpath: baseline %s absent; skipping regression check\n"
          baseline_path;
        exit 0
      end;
      if not (Sys.file_exists current_path) then begin
        Printf.eprintf
          "check_hotpath: current run %s absent (run hotpath --json first)\n"
          current_path;
        exit 2
      end;
      let current = parse_engines current_path in
      let baseline = parse_engines baseline_path in
      if baseline = [] then begin
        Printf.eprintf "check_hotpath: no engine rows in %s\n" baseline_path;
        exit 2
      end;
      if current = [] then begin
        Printf.eprintf "check_hotpath: no engine rows in %s\n" current_path;
        exit 2
      end;
      Printf.printf
        "hot-path throughput vs baseline (default tolerance %.0f%%):\n"
        (100.0 *. !tolerance);
      List.iter
        (fun b ->
          match List.find_opt (fun (c : engine_row) -> c.name = b.name) current with
          | None ->
              Printf.printf "  %-24s MISSING from current run\n" b.name;
              breaches :=
                Printf.sprintf "%s: missing from current run" b.name
                :: !breaches
          | Some c ->
              let tol = match b.tol with Some t -> t | None -> !tolerance in
              let delta_pct = 100.0 *. ((c.sps /. b.sps) -. 1.0) in
              let floor = (1.0 -. tol) *. b.sps in
              let ok = c.sps >= floor in
              Printf.printf
                "  %-24s %12.0f vs baseline %12.0f  (%+.1f%%, floor \
                 -%.0f%%)  %s\n"
                b.name c.sps b.sps delta_pct (100.0 *. tol)
                (if ok then "ok" else "REGRESSION");
              if not ok then
                breaches :=
                  Printf.sprintf
                    "%s samples_per_sec: %.0f vs baseline %.0f (%+.1f%%, \
                     floor -%.0f%%)"
                    b.name c.sps b.sps delta_pct (100.0 *. tol)
                  :: !breaches;
              (* allocation is informational: the hot paths are meant to
                 be allocation-free, so flag any new per-sample churn *)
              let wtol =
                match b.words_tol with Some w -> w | None -> 0.5
              in
              if c.words > b.words +. wtol then
                Printf.printf
                  "  %-24s note: minor words/sample rose %.4f -> %.4f \
                   (threshold +%.4f)\n"
                  b.name b.words c.words wtol)
        baseline;
      (match (parse_service baseline_path, parse_service current_path) with
      | None, _ ->
          Printf.printf
            "  %-24s baseline has no service metrics; skipping\n" "service"
      | Some _, None ->
          Printf.printf "  %-24s MISSING from current run\n" "service";
          breaches :=
            "service: requests_per_sec missing from current run" :: !breaches
      | ( Some (base_rps, _, _, base_mw, base_tol),
          Some (cur_rps, cold, warm, cur_mw, _) ) ->
          let tol = match base_tol with Some t -> t | None -> !tolerance in
          let delta_pct = 100.0 *. ((cur_rps /. base_rps) -. 1.0) in
          let ok = cur_rps >= (1.0 -. tol) *. base_rps in
          Printf.printf
            "  %-24s %12.0f vs baseline %12.0f  (%+.1f%%, floor -%.0f%%)  \
             %s\n"
            "service req/s" cur_rps base_rps delta_pct (100.0 *. tol)
            (if ok then "ok" else "REGRESSION");
          Printf.printf
            "  %-24s cold plan %.3f ms, warm request %.3f ms\n" "" cold warm;
          if not ok then
            breaches :=
              Printf.sprintf
                "service requests_per_sec: %.0f vs baseline %.0f (%+.1f%%, \
                 floor -%.0f%%)"
                cur_rps base_rps delta_pct (100.0 *. tol)
              :: !breaches;
          if cur_mw > base_mw +. 64.0 then
            Printf.printf
              "  %-24s note: minor words/request rose %.1f -> %.1f\n" ""
              base_mw cur_mw);
      (match parse_replay current_path with
      | None ->
          Printf.printf
            "  %-24s current run has no replay metrics; skipping\n" "replay"
      | Some (_, _, domains, speedup, required) when required <= 0.0 ->
          (* The harness records required_speedup 0.0 when it measured on a
             single domain: the ratio is then serial-vs-serial noise and
             asserting on it would be vacuous either way. *)
          Printf.printf
            "  %-24s %.2fx on %d domain(s) — SKIPPED (single domain; run \
             with JIGSAW_BENCH_DOMAINS>=2 for a meaningful gate)\n"
            "parallel replay" speedup domains
      | Some (serial_sps, parallel_sps, domains, speedup, required) ->
          let ok = speedup >= required in
          Printf.printf
            "  %-24s %.2fx serial on %d domains (%.0f vs %.0f sps, \
             required >= %.2fx)  %s\n"
            "parallel replay" speedup domains parallel_sps serial_sps
            required
            (if ok then "ok" else "BELOW REQUIREMENT");
          if not ok then
            breaches :=
              Printf.sprintf
                "replay speedup: %.2fx on %d domains, required >= %.2fx"
                speedup domains required
              :: !breaches);
      (match parse_simd current_path with
      | None ->
          Printf.printf
            "  %-24s current run has no simd metrics; skipping\n" "simd"
      | Some (impl, _, _, speedup, required) when required <= 0.0 ->
          Printf.printf
            "  %-24s %.2fx scalar replay (impl %s) — SKIPPED (no vector \
             unit dispatched on this host)\n"
            "simd replay" speedup impl
      | Some (impl, scalar_sps, simd_sps, speedup, required) ->
          let ok = speedup >= required in
          Printf.printf
            "  %-24s %.2fx scalar replay (impl %s, %.0f vs %.0f sps, \
             required >= %.2fx)  %s\n"
            "simd replay" speedup impl simd_sps scalar_sps required
            (if ok then "ok" else "BELOW REQUIREMENT");
          if not ok then
            breaches :=
              Printf.sprintf
                "simd replay speedup: %.2fx (impl %s), required >= %.2fx"
                speedup impl required
              :: !breaches);
      (* Self-asserting like replay/simd: the dispatched slice-parallel
         engine demotes to the serial schedule when unprofitable, so the
         chosen path must never be slower than serial beyond noise. *)
      (match parse_slice_dispatch current_path with
      | None ->
          Printf.printf
            "  %-24s current run has no dispatch metrics; skipping\n"
            "slice dispatch"
      | Some (serial_sps, dispatched_sps, pool, profitable, ratio, required)
        ->
          let ok = ratio >= required in
          Printf.printf
            "  %-24s %.2fx serial (pool %d, %s, %.0f vs %.0f sps, required \
             >= %.2fx)  %s\n"
            "slice dispatch" ratio pool
            (if profitable then "column-scan" else "demoted")
            dispatched_sps serial_sps required
            (if ok then "ok" else "BELOW REQUIREMENT");
          if not ok then
            breaches :=
              Printf.sprintf
                "slice dispatch ratio: %.2fx serial on pool %d, required >= \
                 %.2fx (cliff: chosen path slower than serial)"
                ratio pool required
              :: !breaches);
      (match parse_telemetry_pct current_path with
      | None ->
          Printf.printf
            "  %-24s current run has no telemetry metric; skipping\n"
            "telemetry"
      | Some pct ->
          let ok = pct < 5.0 in
          Printf.printf
            "  %-24s disabled-dispatch overhead %+.2f%% (budget < 5%%)  %s\n"
            "telemetry" pct
            (if ok then "ok" else "OVER BUDGET");
          if not ok then
            breaches :=
              Printf.sprintf
                "telemetry disabled overhead: %.2f%%, budget < 5%%" pct
              :: !breaches);
      report ()
  | _ ->
      Printf.eprintf
        "usage: check_hotpath.exe CURRENT BASELINE [--tolerance 0.30]\n";
      exit 2
