(* jigsaw_cli: command-line driver for the Jigsaw / Slice-and-Dice
   reproduction.

   Subcommands:
     grid    generate a trajectory, run the adjoint NuFFT through the
             reconstruction service (cold build + warm cached replay),
             report latencies/stats and optionally validate against the
             serial reference
     recon   reconstruct the Shepp-Logan phantom from a simulated
             acquisition through any registered backend, write a PGM image
     batch   serve a batch of reconstruction requests across the domain
             pool, amortising plans through the cache and buffers through
             the workspace arenas
     accuracy  adjoint-NuFFT error vs the exact NuDFT (tabulated KB and
             exact min-max interpolation)
     info    print the hardware models' parameters (Table I / Table II)

   Backends are looked up in the Nufft.Operator registry; --list-backends
   prints every registered name. All subcommands report failures as typed
   errors through Cmdliner (clean exit code + one-line message), never as
   escaped exceptions. *)

module Cvec = Numerics.Cvec
module C = Numerics.Complexd
module Op = Nufft.Operator
module Svc = Pipeline.Recon_service

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Shared helpers *)

(* The hardware-model backends live outside lib/core; plug them into the
   registry once at startup. *)
let register_backends () =
  Jigsaw.Operator_backend.register ();
  Gpusim.Operator_backend.register ()

let make_trajectory kind m n =
  match kind with
  | "radial" ->
      let readout = 2 * n in
      let spokes = max 1 (m / readout) in
      Ok (Trajectory.Radial.make ~spokes ~readout ())
  | "spiral" ->
      Ok
        (Trajectory.Spiral.make ~samples_per_interleave:m
           ~turns:(float_of_int n /. 8.0) ())
  | "rosette" -> Ok (Trajectory.Rosette.make ~samples:m ())
  | "random" -> Ok (Trajectory.Random_traj.make ~samples:m ())
  | "cartesian" -> Ok (Trajectory.Cartesian.make ~n)
  | other ->
      Error
        (Printf.sprintf
           "unknown trajectory %S (expected radial, spiral, rosette, random \
            or cartesian)"
           other)

let samples_of_traj ~g ~seed traj =
  let m = Trajectory.Traj.length traj in
  let rng = Random.State.make [| seed |] in
  let values =
    Cvec.init m (fun _ ->
        C.make
          (0.2 *. (Random.State.float rng 2.0 -. 1.0))
          (0.2 *. (Random.State.float rng 2.0 -. 1.0)))
  in
  Nufft.Sample.of_omega_2d ~g ~omega_x:traj.Trajectory.Traj.omega_x
    ~omega_y:traj.Trajectory.Traj.omega_y ~values

(* --kernel NAME -> Window.family, as a typed error. *)
let family_of_flag = function
  | None -> Ok None
  | Some s -> (
      match Numerics.Window.family_of_string s with
      | Some f -> Ok (Some f)
      | None ->
          Error
            (Printf.sprintf "unknown kernel %S (expected es or kaiser-bessel)"
               s))

(* --transform NAME -> Transform.t; type-2 is not a reconstruction, so
   the CLI rejects it with a pointer at the API that serves it. *)
let transform_of_flag s =
  match Nufft.Transform.of_string s with
  | Some Nufft.Transform.Type2 ->
      Error
        "--transform type2 is a forward evaluation, not a reconstruction; \
         use the Recon_service/Operator API for forward projections"
  | Some t -> Ok t
  | None ->
      Error
        (Printf.sprintf "unknown transform %S (expected type1 or type3)" s)

(* Historical CLI spellings, mapped onto registry names; ["auto"]
   resolves exactly as the service resolves it. *)
let canonical_backend name =
  match String.lowercase_ascii name with
  | "output" -> "output-parallel"
  | "parallel" -> "slice-parallel"
  | "replay" -> "serial"
  | "jigsaw" -> "jigsaw-2d"
  | "gpu-slice" -> "gpusim-slice"
  | "gpu-binned" -> "gpusim-binned"
  | other -> Op.resolve_backend other

(* Both subcommands drive 2D problems, so only 2D-capable backends are
   usable (and listed) here; 3D-only entries like jigsaw-3d stay reachable
   through the Operator API. *)
let list_backends () =
  register_backends ();
  print_endline "registered backends (NAME [dims] types  description):";
  List.iter
    (fun (e : Op.entry) ->
      if List.mem 2 e.Op.dims then
        Printf.printf "  %-15s %s %-8s  %s\n" e.Op.name
          (String.concat ""
             (List.map (fun d -> Printf.sprintf "[%dD]" d) e.Op.dims))
          (Nufft.Transform.list_to_string e.Op.transforms)
          e.Op.doc)
    (Op.entries ());
  print_endline
    "  (types: t1 = adjoint/recon, t2 = forward, t3 = nonuniform-to-\n\
    \   nonuniform; the jigsaw/gpusim hardware models support t1/t2 only)";
  `Ok ()

(* Typed Result -> Cmdliner: a one-line error on stderr and a non-zero
   exit, instead of an escaped exception. *)
let to_ret = function Ok () -> `Ok () | Error msg -> `Error (false, msg)

let svc_error r = Result.map_error Svc.error_message r

(* --trace FILE / --metrics switch the telemetry layer on for the run;
   the chrome trace is written and the metrics + span-tree summaries
   printed after the subcommand body finishes. *)
let with_telemetry ~trace ~metrics f =
  let on = trace <> None || metrics in
  if on then begin
    Telemetry.reset ();
    Telemetry.set_enabled true
  end;
  let r = f () in
  if on then begin
    Telemetry.set_enabled false;
    (match trace with
    | Some path ->
        Telemetry.write_chrome_trace path;
        Printf.printf
          "chrome trace written to %s (load in chrome://tracing or \
           https://ui.perfetto.dev)\n"
          path
    | None -> ());
    if metrics then begin
      print_string (Telemetry.tree_summary ());
      print_string (Telemetry.metrics_summary ())
    end
  end;
  r

(* --domains D sizes the process-wide pool: D maps to the paper's T^d
   workers in the sense that the t^2 dice columns (or g z-slices in 3D)
   are distributed over D domains. *)
let apply_domains = function
  | None -> Ok None
  | Some d when d >= 1 ->
      Runtime.Pool.set_global_domains d;
      Ok (Some (Runtime.Pool.global ()))
  | Some _ -> Error "--domains must be >= 1"

let print_cache_line svc =
  let cs = Pipeline.Plan_cache.stats (Svc.cache svc) in
  Printf.printf
    "plan cache: %d hits / %d misses / %d evictions (%d entries, %.1f MiB)\n"
    cs.Pipeline.Plan_cache.hits cs.Pipeline.Plan_cache.misses
    cs.Pipeline.Plan_cache.evictions cs.Pipeline.Plan_cache.entries
    (float_of_int cs.Pipeline.Plan_cache.bytes /. (1024.0 *. 1024.0))

let print_backend_stats op =
  let st = Op.stats_of op in
  if st.Op.adjoint_s > 0.0 then
    Printf.printf "%s: %.3f ms (gridding %.3f + fft %.3f + deapod %.3f)\n"
      (Op.name_of op)
      (1e3 *. st.Op.adjoint_s)
      (1e3 *. st.Op.stages.Nufft.Plan.gridding_s)
      (1e3 *. st.Op.stages.Nufft.Plan.fft_s)
      (1e3 *. st.Op.stages.Nufft.Plan.deapod_s);
  if st.Op.cycles > 0 then Printf.printf "simulated cycles: %d\n" st.Op.cycles;
  if Nufft.Gridding_stats.total_work st.Op.grid > 0 then
    Format.printf "stats: %a@." Nufft.Gridding_stats.pp st.Op.grid

(* ------------------------------------------------------------------ *)
(* grid subcommand *)

let run_grid n traj_kind m backend w l tol kernel transform seed validate
    domains trace metrics list =
  if list then list_backends ()
  else
    to_ret @@ with_telemetry ~trace ~metrics
    @@ fun () ->
    register_backends ();
    let* pool = apply_domains domains in
    let* family = family_of_flag kernel in
    let* transform = transform_of_flag transform in
    let g = 2 * n in
    let* traj = make_trajectory traj_kind m n in
    let s = samples_of_traj ~g ~seed traj in
    let m = Nufft.Sample.length s in
    let backend = canonical_backend backend in
    let svc = Svc.create ?pool ~w ~l () in
    let req =
      { Svc.backend;
        transform;
        n;
        coords = s;
        values = s.Nufft.Sample.values;
        density = None;
        method_ = Svc.Adjoint;
        tol;
        family }
    in
    (match tol with
    | Some t ->
        Printf.printf
          "adjoint NuFFT of %d %s samples onto %dx%d (tol=%g, kernel=%s)\n" m
          traj_kind g g t
          (Numerics.Window.family_name
             (Option.value family ~default:Numerics.Window.ES))
    | None ->
        Printf.printf "adjoint NuFFT of %d %s samples onto %dx%d (w=%d, l=%d)\n"
          m traj_kind g g w l);
    (* The cold request pays the plan build + trajectory decomposition;
       the warm one replays the cached entry. *)
    let* cold = svc_error (Svc.submit svc req) in
    let* warm = svc_error (Svc.submit svc req) in
    Printf.printf
      "%s: cold %.3f ms (plan build + transform), warm %.3f ms (cached plan)\n"
      backend
      (1e3 *. cold.Svc.elapsed_s)
      (1e3 *. warm.Svc.elapsed_s);
    let* op, _ =
      svc_error (Svc.operator ?tol ?family ~transform svc ~backend ~n ~coords:s)
    in
    print_backend_stats op;
    let* () =
      if not validate then Ok ()
      else
        let* reference =
          svc_error (Svc.submit svc { req with Svc.backend = "serial" })
        in
        Printf.printf "NRMSD vs serial reference: %.3e\n"
          (Cvec.nrmsd ~reference:reference.Svc.image cold.Svc.image);
        Ok ()
    in
    print_cache_line svc;
    Ok ()

(* ------------------------------------------------------------------ *)
(* recon subcommand *)

let run_recon n spokes output backend tol kernel transform domains cg trace
    metrics list =
  if list then list_backends ()
  else
    to_ret @@ with_telemetry ~trace ~metrics
    @@ fun () ->
    register_backends ();
    let* pool = apply_domains domains in
    let* family = family_of_flag kernel in
    let* transform = transform_of_flag transform in
    let* () =
      match (transform, cg) with
      | Nufft.Transform.Type3, Some _ ->
          Error "--cg applies to type-1 reconstructions only"
      | _ -> Ok ()
    in
    (* The phantom is built before the service sees a request, so the
       image-size check must happen here to stay a typed error. *)
    let* () = if n < 2 then Error "recon: n must be >= 2" else Ok () in
    let phantom = Imaging.Phantom.make ~n () in
    let spokes =
      match spokes with
      | Some s -> s
      | None -> Trajectory.Radial.fully_sampled_spokes ~n
    in
    let traj = Trajectory.Radial.make ~spokes ~readout:(2 * n) () in
    let density = Trajectory.Radial.density_weights traj in
    let coords = Imaging.Recon.coords_of_traj ~g:(2 * n) traj in
    let backend = canonical_backend backend in
    let svc = Svc.create ?pool () in
    (* The acquisition needs the forward operator; taking it from the
       service's cache means the reconstruction request below is a warm
       hit on the same entry. A type-3 context still provides the forward
       (type-2) direction — CPU operators carry all three legs. *)
    let* op, _ =
      svc_error (Svc.operator ?tol ?family ~transform svc ~backend ~n ~coords)
    in
    let samples = Imaging.Recon.acquire_op op phantom in
    let method_ = match cg with None -> Svc.Adjoint | Some i -> Svc.Cg i in
    let req =
      { Svc.backend;
        transform;
        n;
        coords;
        values = samples.Nufft.Sample.values;
        density = Some density;
        method_;
        tol;
        family }
    in
    let* resp = svc_error (Svc.submit svc req) in
    let method_desc =
      match (transform, method_) with
      | Nufft.Transform.Type3, _ -> "type-3 adjoint"
      | _, Svc.Adjoint -> "adjoint"
      | _, Svc.Cg _ -> Printf.sprintf "CG(%d iters)" resp.Svc.iterations
    in
    let recon = resp.Svc.image in
    let err = Imaging.Metrics.nrmsd_scaled ~reference:phantom recon in
    Imaging.Pgm.write_magnitude ~path:output ~n recon;
    Printf.printf
      "reconstructed %dx%d phantom through %s (%s) from %d spokes (%d \
       samples): scaled NRMSD %.3f -> %s\n"
      n n (Op.name_of op) method_desc spokes
      (Trajectory.Traj.length traj)
      err output;
    let st = Op.stats_of op in
    if st.Op.cycles > 0 then
      Printf.printf "simulated gridding cycles: %d\n" st.Op.cycles;
    print_cache_line svc;
    Ok ()

(* ------------------------------------------------------------------ *)
(* batch subcommand *)

(* N reconstruction requests served through one Recon_service: a --share
   fraction repeat the same trajectory (rebuilt per request, so the
   coordinate arrays are equal but physically distinct — the cache's
   canonical-rebinding path), the rest use distinct spoke counts. With
   --domains > 1 the requests overlap across the pool. *)
let run_batch n requests share backend tol kernel cg seed domains trace metrics
    list =
  if list then list_backends ()
  else
    to_ret @@ with_telemetry ~trace ~metrics
    @@ fun () ->
    register_backends ();
    let* () = if requests < 1 then Error "--requests must be >= 1" else Ok () in
    let* () =
      if share < 0.0 || share > 1.0 then Error "--share must be in [0, 1]"
      else Ok ()
    in
    let* pool = apply_domains domains in
    let* family = family_of_flag kernel in
    let svc = Svc.create ?pool () in
    let g = 2 * n in
    let backend = canonical_backend backend in
    let base_spokes = Trajectory.Radial.fully_sampled_spokes ~n in
    let shared = int_of_float ((share *. float_of_int requests) +. 0.5) in
    let method_ = match cg with None -> Svc.Adjoint | Some i -> Svc.Cg i in
    let spokes_of i =
      if i < shared then base_spokes else base_spokes + (i - shared + 1)
    in
    let make_req i =
      let traj = Trajectory.Radial.make ~spokes:(spokes_of i) ~readout:g () in
      let density = Trajectory.Radial.density_weights traj in
      let coords = Imaging.Recon.coords_of_traj ~g traj in
      let m = Nufft.Sample.length coords in
      let rng = Random.State.make [| seed; i |] in
      let values =
        Cvec.init m (fun _ ->
            C.make
              (0.2 *. (Random.State.float rng 2.0 -. 1.0))
              (0.2 *. (Random.State.float rng 2.0 -. 1.0)))
      in
      { Svc.backend;
        transform = Nufft.Transform.Type1;
        n;
        coords;
        values;
        density = Some density;
        method_;
        tol;
        family }
    in
    let reqs = List.init requests make_req in
    let t0 = Unix.gettimeofday () in
    let results = Svc.submit_batch svc reqs in
    let dt = Unix.gettimeofday () -. t0 in
    let ok = ref 0 in
    List.iteri
      (fun i r ->
        match r with
        | Ok resp ->
            incr ok;
            Printf.printf "  request %2d (%3d spokes): ok %8.2f ms%s\n" i
              (spokes_of i)
              (1e3 *. resp.Svc.elapsed_s)
              (if resp.Svc.iterations > 0 then
                 Printf.sprintf " (%d CG iters)" resp.Svc.iterations
               else "")
        | Error e ->
            Printf.printf "  request %2d (%3d spokes): error %s\n" i
              (spokes_of i) (Svc.error_message e))
      results;
    let domains_used =
      match pool with Some p -> Runtime.Pool.size p | None -> 1
    in
    Printf.printf "%d/%d requests ok in %.3f s (%.1f req/s, %d domain%s)\n" !ok
      requests dt
      (float_of_int requests /. dt)
      domains_used
      (if domains_used = 1 then "" else "s");
    print_cache_line svc;
    let ws = Pipeline.Workspace.stats (Svc.workspace svc) in
    Printf.printf "arenas: %d checkouts (%d reused, %d grows, %d retained)\n"
      ws.Pipeline.Workspace.checkouts ws.Pipeline.Workspace.reuses
      ws.Pipeline.Workspace.grows ws.Pipeline.Workspace.retained;
    if !ok = 0 then Error "batch: every request failed" else Ok ()

(* ------------------------------------------------------------------ *)
(* accuracy subcommand *)

(* --contract: run the tolerance sweep of Imaging.Accuracy (both kernel
   families unless --kernel narrows it, all trajectories, 2D+3D) and fail
   with a non-zero exit when any cell breaches the 10x accuracy contract —
   the CI accuracy-smoke gate. *)
let run_contract tols kernel type3 seed =
  register_backends ();
  match family_of_flag kernel with
  | Error msg -> `Error (false, msg)
  | Ok family ->
      let families =
        match family with
        | Some f -> [ f ]
        | None -> [ Numerics.Window.ES; Numerics.Window.KB ]
      in
      let tols =
        match tols with [] -> Imaging.Accuracy.default_tols | ts -> ts
      in
      let rows = Imaging.Accuracy.sweep ~seed ~families ~tols () in
      let rows =
        if type3 then
          rows @ Imaging.Accuracy.sweep_type3 ~seed ~families ~tols ()
        else rows
      in
      List.iter (fun r -> Format.printf "%a@." Imaging.Accuracy.pp_row r) rows;
      let failed = Imaging.Accuracy.failures rows in
      Printf.printf "accuracy contract: %d/%d cells within %gx of request\n"
        (List.length rows - List.length failed)
        (List.length rows) Imaging.Accuracy.contract_slack;
      if failed = [] then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf "accuracy contract breached in %d cell(s)"
              (List.length failed) )

let run_accuracy n m w sigma l tols kernel contract type3 seed =
  if contract then run_contract tols kernel type3 seed
  else if n > 48 then
    `Error
      ( false,
        "accuracy: n must be <= 48 (the exact NuDFT reference is O(M n^2))" )
  else begin
    let rng = Random.State.make [| seed |] in
    let omega () =
      Array.init m (fun _ ->
          Random.State.float rng (2.0 *. Float.pi) -. Float.pi)
    in
    let ox = omega () and oy = omega () in
    let values =
      Cvec.init m (fun _ ->
          C.make
            (Random.State.float rng 2.0 -. 1.0)
            (Random.State.float rng 2.0 -. 1.0))
    in
    let exact = Nufft.Nudft.adjoint_2d ~n ~omega_x:ox ~omega_y:oy ~values in
    match family_of_flag kernel with
    | Error msg -> `Error (false, msg)
    | Ok family ->
    let plan =
      match tols with
      | t :: _ -> Nufft.Plan.make ~n ~tol:t ?family ~sigma ()
      | [] -> Nufft.Plan.make ~n ?family ~w ~sigma ~l ()
    in
    let w = plan.Nufft.Plan.w and l = plan.Nufft.Plan.l in
    let g = plan.Nufft.Plan.g in
    let samples = Nufft.Sample.of_omega_2d ~g ~omega_x:ox ~omega_y:oy ~values in
    let fast = Nufft.Plan.adjoint plan samples in
    Printf.printf
      "adjoint NuFFT vs exact NuDFT (n=%d, m=%d, w=%d, sigma=%g, L=%d, g=%d):\n"
      n m w sigma l g;
    Printf.printf "  %-20s  NRMSD %.3e\n"
      (Numerics.Window.name plan.Nufft.Plan.kernel ^ " table:")
      (Cvec.nrmsd ~reference:exact fast);
    let mm =
      Nufft.Minmax.adjoint_2d ~scaling:Nufft.Minmax.Kaiser_bessel_scaling ~n ~g
        ~w ~gx:(Nufft.Sample.gx samples) ~gy:(Nufft.Sample.gy samples) values
    in
    Printf.printf "  exact min-max:        NRMSD %.3e\n"
      (Cvec.nrmsd ~reference:exact mm);
    `Ok ()
  end

(* ------------------------------------------------------------------ *)
(* info subcommand *)

let run_info () =
  print_endline "JIGSAW model parameters (paper Tables I & II)";
  print_endline "  Table I ranges: N 8-1024, T 8, W 1-8, L 1-64 (pow2),";
  print_endline "                  32-bit fixed-point pipeline, 16-bit weights";
  List.iter
    (fun (name, m) ->
      Printf.printf "  %-28s %8.2f mW %8.2f mm2\n" name
        m.Jigsaw.Synthesis.power_mw m.Jigsaw.Synthesis.area_mm2)
    Jigsaw.Synthesis.table;
  let gpu = Gpusim.Config.titan_xp in
  Printf.printf
    "  GPU model: %d SMs @ %.2f GHz, L2 %d KiB, DRAM %.0f B/cycle\n"
    gpu.Gpusim.Config.num_sms gpu.Gpusim.Config.clock_ghz
    (gpu.Gpusim.Config.l2.Cachesim.Cache.size_bytes / 1024)
    gpu.Gpusim.Config.dram.Cachesim.Dram.bytes_per_cycle;
  `Ok ()

(* ------------------------------------------------------------------ *)
(* Cmdliner plumbing *)

open Cmdliner

let n_arg =
  Arg.(value & opt int 128 & info [ "n" ] ~docv:"N" ~doc:"Image size per side.")

let traj_arg =
  Arg.(
    value
    & opt string "radial"
    & info [ "t"; "trajectory" ] ~docv:"KIND"
        ~doc:"Trajectory: radial, spiral, rosette, random, cartesian.")

let m_arg =
  Arg.(
    value & opt int 50000
    & info [ "m"; "samples" ] ~docv:"M" ~doc:"Approximate sample count.")

let backend_arg =
  Arg.(
    value
    & opt string "slice"
    & info [ "b"; "backend" ] ~docv:"BACKEND"
        ~doc:
          "Registered operator backend (see $(b,--list-backends)): serial, \
           output-parallel, binned, slice, slice-parallel, jigsaw-2d, \
           gpusim-slice, gpusim-binned, ...; or $(b,auto), which is serial \
           (its replay runs the SIMD kernels whenever dispatch is live).")

let list_backends_arg =
  Arg.(
    value & flag
    & info [ "list-backends" ]
        ~doc:"Print every registered operator backend and exit.")

let w_arg = Arg.(value & opt int 6 & info [ "w" ] ~docv:"W" ~doc:"Window width.")

let l_arg =
  Arg.(
    value & opt int 512
    & info [ "l" ] ~docv:"L" ~doc:"Table oversampling factor.")

let tol_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "tol" ] ~docv:"TOL"
        ~doc:
          "Requested relative accuracy, e.g. $(b,1e-5): kernel, window \
           width and table oversampling are derived from it (overriding \
           $(b,-w)/$(b,-l)); the measured error vs the exact NuDFT stays \
           within 10x the request.")

let kernel_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "kernel" ] ~docv:"KIND"
        ~doc:
          "Interpolation kernel family: $(b,es) (exponential of \
           semicircle) or $(b,kb) (Kaiser-Bessel). Default: ES with \
           $(b,--tol), Kaiser-Bessel otherwise.")

let transform_arg =
  Arg.(
    value
    & opt string "type1"
    & info [ "transform" ] ~docv:"TYPE"
        ~doc:
          "Transform type: $(b,type1) (classic adjoint reconstruction) or \
           $(b,type3) (treat the trajectory as arbitrary source \
           frequencies and reconstruct on the centred lattice via the \
           scale/shift decomposition). Type-2 forward evaluation is \
           API-only.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Value RNG seed.")

let validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ] ~doc:"Compare against the serial double reference.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Size of the domain pool used by the parallel backend and \
           pool-backed plans — the paper's \\$(i,T^d) workers multiplexed \
           onto D OCaml domains (default: the runtime's recommended count).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace_event JSON of the run (plan build, \
           gridding, FFT, pool scheduling, CG iterations, hardware cycle \
           models) to $(docv); open it in chrome://tracing or Perfetto.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the aggregated telemetry span tree and counter/histogram \
           summary after the run.")

let cg_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cg" ] ~docv:"ITERS"
        ~doc:
          "Reconstruct iteratively: conjugate gradient on the \
           density-weighted normal equations, at most $(docv) iterations \
           (default: single adjoint application).")

let grid_cmd =
  let doc = "run the adjoint NuFFT through a registered backend" in
  Cmd.v (Cmd.info "grid" ~doc)
    Term.(
      ret
        (const run_grid $ n_arg $ traj_arg $ m_arg $ backend_arg $ w_arg
       $ l_arg $ tol_arg $ kernel_arg $ transform_arg $ seed_arg
       $ validate_arg $ domains_arg $ trace_arg $ metrics_arg
       $ list_backends_arg))

let recon_cmd =
  let doc = "reconstruct the Shepp-Logan phantom from radial k-space" in
  let spokes =
    Arg.(
      value
      & opt (some int) None
      & info [ "spokes" ] ~docv:"S" ~doc:"Spoke count (default: Nyquist).")
  in
  let output =
    Arg.(
      value & opt string "recon.pgm"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output PGM path.")
  in
  Cmd.v (Cmd.info "recon" ~doc)
    Term.(
      ret
        (const run_recon $ n_arg $ spokes $ output $ backend_arg $ tol_arg
       $ kernel_arg $ transform_arg $ domains_arg $ cg_arg
       $ trace_arg $ metrics_arg $ list_backends_arg))

let batch_cmd =
  let doc =
    "serve a batch of reconstruction requests through the plan cache and \
     workspace arenas"
  in
  let requests =
    Arg.(
      value & opt int 8
      & info [ "requests" ] ~docv:"R" ~doc:"Number of requests in the batch.")
  in
  let share =
    Arg.(
      value & opt float 0.5
      & info [ "share" ] ~docv:"F"
          ~doc:
            "Fraction of the batch repeating one trajectory (plan-cache \
             hits); the rest use distinct spoke counts.")
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      ret
        (const run_batch $ n_arg $ requests $ share $ backend_arg $ tol_arg
       $ kernel_arg $ cg_arg $ seed_arg $ domains_arg $ trace_arg
       $ metrics_arg $ list_backends_arg))

let info_cmd =
  let doc = "print hardware-model parameters" in
  Cmd.v (Cmd.info "info" ~doc) Term.(ret (const run_info $ const ()))

(* ------------------------------------------------------------------ *)
(* serve subcommand *)

let run_serve host port workers queue_capacity read_timeout max_connections
    max_tenants cache_entries print_metrics =
  register_backends ();
  (* Counters and histograms feed /metrics; span recording stays off so a
     long-running server's per-domain sinks cannot grow without bound. *)
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Telemetry.set_span_recording false;
  let config =
    { Serving.Server.default_config with
      host;
      port;
      workers;
      queue_capacity;
      read_timeout_s = read_timeout;
      max_connections;
      tenants =
        { Serving.Tenants.default_config with max_tenants; cache_entries } }
  in
  let srv = Serving.Server.create ~config () in
  match Serving.Server.start srv with
  | exception Unix.Unix_error (e, _, _) ->
      to_ret
        (Error
           (Printf.sprintf "cannot listen on %s:%d: %s" host port
              (Unix.error_message e)))
  | () ->
      Printf.printf
        "jigsaw serve: listening on %s:%d (%d workers, queue %d)\n\
         metrics: curl http://%s:%d/metrics — stop with SIGINT/SIGTERM \
         (graceful drain)\n\
         %!"
        host (Serving.Server.port srv) workers queue_capacity host
        (Serving.Server.port srv);
      (* The handler only flips a flag: running drain() from inside a
         signal handler could deadlock against a lock the interrupted
         code holds. The main loop below does the actual work. *)
      let stop_requested = Atomic.make false in
      let request_stop _ = Atomic.set stop_requested true in
      Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
      while not (Atomic.get stop_requested) do
        try Thread.delay 0.2
        with Unix.Unix_error (EINTR, _, _) -> ()
      done;
      print_endline "jigsaw serve: draining (in-flight requests finish)...";
      let drained = Serving.Server.stop ~timeout_s:30.0 srv in
      let s = Serving.Server.stats srv in
      Printf.printf
        "jigsaw serve: %s — %d requests (%d responses, %d shed, %d timeouts, \
         %d protocol errors, %d disconnects) across %d tenants\n"
        (if drained then "drained" else "drain timed out")
        s.Serving.Server.s_requests s.Serving.Server.s_responses
        s.Serving.Server.s_shed s.Serving.Server.s_timeouts
        s.Serving.Server.s_protocol_errors s.Serving.Server.s_disconnects
        s.Serving.Server.s_tenants;
      List.iter
        (fun (tenant, cs) ->
          Printf.printf
            "  tenant %-12s plan cache: %d hits / %d misses (%d entries)\n"
            tenant cs.Pipeline.Plan_cache.hits cs.Pipeline.Plan_cache.misses
            cs.Pipeline.Plan_cache.entries)
        (Serving.Tenants.cache_stats (Serving.Server.tenants srv));
      if print_metrics then print_string (Serving.Server.metrics_text srv);
      Telemetry.set_enabled false;
      if drained then `Ok () else `Error (false, "graceful drain timed out")

let serve_cmd =
  let doc =
    "serve reconstruction requests over the JGS1 binary protocol (with \
     /metrics over HTTP on the same port)"
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Listen address.")
  in
  let port =
    Arg.(
      value & opt int 7411
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen port (0 picks an ephemeral port).")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"W"
          ~doc:"Reconstruction worker domains.")
  in
  let queue =
    Arg.(
      value & opt int 32
      & info [ "queue" ] ~docv:"Q"
          ~doc:
            "Admission queue capacity; requests beyond it are shed with a \
             typed error.")
  in
  let timeout =
    Arg.(
      value & opt float 5.0
      & info [ "read-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-connection read timeout (slow-loris defence).")
  in
  let max_conns =
    Arg.(
      value & opt int 128
      & info [ "max-connections" ] ~docv:"C"
          ~doc:"Concurrent connection cap.")
  in
  let max_tenants =
    Arg.(
      value & opt int 64
      & info [ "max-tenants" ] ~docv:"T"
          ~doc:"Tenant cap; new tenants past it get a typed quota error.")
  in
  let cache_entries =
    Arg.(
      value & opt int 8
      & info [ "cache-entries" ] ~docv:"E"
          ~doc:"Per-tenant plan-cache entry quota.")
  in
  let print_metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the final Prometheus exposition on exit.")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run_serve $ host $ port $ workers $ queue $ timeout $ max_conns
       $ max_tenants $ cache_entries $ print_metrics))

let accuracy_cmd =
  let doc = "measure adjoint-NuFFT accuracy against the exact NuDFT" in
  let n =
    Arg.(value & opt int 24 & info [ "n" ] ~docv:"N" ~doc:"Image size (<= 48).")
  in
  let m =
    Arg.(value & opt int 300 & info [ "m" ] ~docv:"M" ~doc:"Sample count.")
  in
  let sigma =
    Arg.(
      value & opt float 2.0
      & info [ "sigma" ] ~docv:"S" ~doc:"Oversampling factor.")
  in
  let tols =
    Arg.(
      value & opt_all float []
      & info [ "tol" ] ~docv:"TOL"
          ~doc:
            "Requested tolerance (repeatable). Without $(b,--contract): \
             derive the plan geometry from the first value instead of \
             $(b,-w)/$(b,-l). With $(b,--contract): the tolerances to \
             sweep (default 1e-2 .. 1e-6).")
  in
  let contract =
    Arg.(
      value & flag
      & info [ "contract" ]
          ~doc:
            "Run the measured accuracy-contract sweep (ES + Kaiser-Bessel \
             unless $(b,--kernel) narrows it, radial/spiral/random, \
             2D+3D) and exit non-zero if any cell exceeds 10x its \
             requested tolerance.")
  in
  let type3 =
    Arg.(
      value & flag
      & info [ "type3" ]
          ~doc:
            "With $(b,--contract): also sweep the type-3 \
             (nonuniform-to-nonuniform) transform against the direct \
             NuDFT oracle at every tolerance, 2D+3D, under the same 10x \
             contract.")
  in
  Cmd.v (Cmd.info "accuracy" ~doc)
    Term.(
      ret
        (const run_accuracy $ n $ m $ w_arg $ sigma $ l_arg $ tols
       $ kernel_arg $ contract $ type3 $ seed_arg))

let main_cmd =
  let doc = "Slice-and-Dice / JIGSAW NuFFT acceleration reproduction" in
  Cmd.group (Cmd.info "jigsaw_cli" ~doc)
    [ grid_cmd; recon_cmd; batch_cmd; accuracy_cmd; info_cmd; serve_cmd ]

let () = exit (Cmd.eval main_cmd)
