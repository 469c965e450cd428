(* Per-backend operator benchmark: one adjoint application through every
   registered 2D backend on a shared dataset, reporting the stage timings
   the operator interface collects (and simulated cycle counts for the
   gpusim-replayed backends). With [json := true] the results are also
   written to BENCH_operators.json so the perf trajectory can be tracked
   across revisions. *)

module Op = Nufft.Operator

let json = ref false
let json_path = "BENCH_operators.json"

type row = {
  backend : string;
  adjoint_s : float;
  gridding_s : float;
  fft_s : float;
  deapod_s : float;
  cycles : int;
  rel_l2_err : float;
}

let measure_backend ds name =
  let ctx =
    Op.context ~w:Bench_data.w ~n:ds.Bench_data.n
      ~coords:ds.Bench_data.samples ()
  in
  let op = Op.create name ctx in
  ignore (Op.apply_adjoint op ds.Bench_data.samples);
  let st = Op.stats_of op in
  (* The bench dataset is far beyond the exact NuDFT's O(M n^2) reach, so
     the accuracy column is measured on Accuracy's small canonical
     problem with the same backend (and the default plan geometry). *)
  let rel_l2_err = Imaging.Accuracy.backend_rel_l2_err name in
  { backend = name;
    adjoint_s = st.Op.adjoint_s;
    gridding_s = st.Op.stages.Nufft.Plan.gridding_s;
    fft_s = st.Op.stages.Nufft.Plan.fft_s;
    deapod_s = st.Op.stages.Nufft.Plan.deapod_s;
    cycles = st.Op.cycles;
    rel_l2_err }

let write_json ds rows =
  let oc = open_out json_path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"dataset\": %S,\n" ds.Bench_data.name;
  p "  \"n\": %d,\n" ds.Bench_data.n;
  p "  \"g\": %d,\n" ds.Bench_data.g;
  p "  \"m\": %d,\n" ds.Bench_data.m;
  p "  \"backends\": [\n";
  List.iteri
    (fun i r ->
      p "    { \"name\": %S, \"adjoint_s\": %.6f, \"gridding_s\": %.6f,\n"
        r.backend r.adjoint_s r.gridding_s;
      p "      \"fft_s\": %.6f, \"deapod_s\": %.6f, \"cycles\": %d,\n" r.fft_s
        r.deapod_s r.cycles;
      p "      \"rel_l2_err\": %.6e }%s\n" r.rel_l2_err
        (if i < List.length rows - 1 then "," else ""))
    rows;
  p "  ]\n";
  p "}\n";
  close_out oc;
  Printf.printf "  wrote %s\n" json_path

let run () =
  Jigsaw.Operator_backend.register ();
  Gpusim.Operator_backend.register ();
  let ds =
    Bench_data.load
      (let d = Trajectory.Dataset.by_name "Image 2" in
       if !Bench_data.quick then Trajectory.Dataset.small_variant d else d)
  in
  Printf.printf "\n=== Operator backends: one adjoint on %s ===\n"
    (Bench_data.label ds);
  Printf.printf "  %-16s %10s %10s %8s %8s %12s %11s\n" "backend" "adjoint ms"
    "gridding" "fft" "deapod" "cycles" "rel_l2_err";
  let rows =
    List.map
      (fun name ->
        let r = measure_backend ds name in
        Printf.printf "  %-16s %10.3f %10.3f %8.3f %8.3f %12s %11.2e\n"
          r.backend (1e3 *. r.adjoint_s) (1e3 *. r.gridding_s)
          (1e3 *. r.fft_s) (1e3 *. r.deapod_s)
          (if r.cycles > 0 then string_of_int r.cycles else "-")
          r.rel_l2_err;
        r)
      (Op.names ~dims:2 ())
  in
  if !json then write_json ds rows
