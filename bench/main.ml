(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index), plus Bechamel
   micro-benchmarks of the CPU-measurable kernels behind them.

   Usage:
     main.exe                 run everything (full datasets)
     main.exe --quick [...]   use reduced datasets (~1/16 of the samples)
     main.exe --json [...]    also emit BENCH_operators.json (operators) /
                              BENCH_hotpath.json (hotpath)
     main.exe fig6|fig7|fig8|fig9|fig3|table1|table2|fraction|gpustats|
              slice3d|ablation|operators|hotpath
     main.exe bechamel        only the Bechamel micro-benchmarks *)

let experiments =
  [ ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("fig8", Fig8.run);
    ("fig9", Fig9.run);
    ("fig3", Fig3.run);
    ("table1", Table1.run);
    ("table2", Table2.run);
    ("fraction", Fraction.run);
    ("gpustats", Gpustats.run);
    ("slice3d", Slice3d.run);
    ("ablation", Ablation.run);
    ("operators", Operators_bench.run);
    ("hotpath", Hotpath_bench.run) ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment's measured
   CPU kernel. *)

let bechamel_tests () =
  let open Bechamel in
  let table = Perf_models.table_for () in
  let small =
    Bench_data.load
      (Trajectory.Dataset.small_variant (Trajectory.Dataset.by_name "Image 2"))
  in
  let s = small.Bench_data.samples in
  let g = small.Bench_data.g in
  let grid_with engine () =
    ignore
      (Nufft.Gridding.grid_2d engine ~table ~g ~gx:(Nufft.Sample.gx s)
         ~gy:(Nufft.Sample.gy s) s.Nufft.Sample.values)
  in
  let fft_buf = Numerics.Cvec.create (256 * 256) in
  let jigsaw_cfg = Jigsaw.Config.make ~n:g ~w:Bench_data.w ~l:32 () in
  let jigsaw_table =
    Perf_models.table_for ~precision:Numerics.Weight_table.Fixed16 ~l:32 ()
  in
  Test.make_grouped ~name:"jigsaw-repro"
    [ Test.make ~name:"fig6.cpu-serial-gridding"
        (Staged.stage (grid_with Nufft.Gridding.Serial));
      Test.make ~name:"fig6.binned-gridding-cpu"
        (Staged.stage (grid_with (Nufft.Gridding.Binned 8)));
      Test.make ~name:"fig6.slice-and-dice-cpu"
        (Staged.stage (grid_with (Nufft.Gridding.Slice_and_dice 8)));
      Test.make ~name:"fig7.fft-256x256"
        (Staged.stage (fun () ->
             Fft.Fftnd.transform_2d Fft.Dft.Forward ~nx:256 ~ny:256 fft_buf));
      Test.make ~name:"fig9.float32-gridding"
        (Staged.stage (fun () ->
             ignore
               (Nufft.Gridding_serial.grid_2d ~precision:`Single ~table ~g
                  ~gx:(Nufft.Sample.gx s) ~gy:(Nufft.Sample.gy s)
                  s.Nufft.Sample.values)));
      Test.make ~name:"fig9.jigsaw-fixed-point-model"
        (Staged.stage (fun () ->
             let e = Jigsaw.Engine2d.create jigsaw_cfg ~table:jigsaw_table in
             Jigsaw.Engine2d.stream e ~gx:(Nufft.Sample.gx s)
               ~gy:(Nufft.Sample.gy s) s.Nufft.Sample.values));
      Test.make ~name:"fig3.boundary-check-decomposition"
        (Staged.stage (fun () ->
             for j = 0 to Array.length (Nufft.Sample.gx s) - 1 do
               for column = 0 to 7 do
                 ignore
                   (Nufft.Coord.column_check ~w:Bench_data.w ~t:8 ~g ~column
                      (Nufft.Sample.gx s).(j))
               done
             done)) ]

let run_bechamel () =
  let open Bechamel in
  Printf.printf "\n=== Bechamel micro-benchmarks (ns per run) ===\n%!";
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (bechamel_tests ())
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some (t :: _) -> Printf.printf "  %-48s %14.1f ns/run\n" name t
      | _ -> Printf.printf "  %-48s %14s\n" name "n/a")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    if List.mem "--quick" args then begin
      Bench_data.quick := true;
      List.filter (fun a -> a <> "--quick") args
    end
    else args
  in
  let args =
    if List.mem "--json" args then begin
      Operators_bench.json := true;
      Hotpath_bench.json := true;
      List.filter (fun a -> a <> "--json") args
    end
    else args
  in
  Printf.printf "Jigsaw reproduction benchmark harness%s\n"
    (if !Bench_data.quick then " (quick datasets)" else "");
  match args with
  | [] ->
      List.iter (fun (_, f) -> f ()) experiments;
      run_bechamel ()
  | [ "bechamel" ] -> run_bechamel ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %S (known: %s, bechamel)\n"
                name
                (String.concat ", " (List.map fst experiments));
              exit 1)
        names
