(* Iterative (model-based) MRI reconstruction — the emerging workload the
   paper's introduction says makes NuFFT throughput critical ("millions of
   NuFFTs are taken iteratively to reconstruct a single volume").

   Solves the regularised normal equations (A^H A + lambda I) x = A^H y
   with conjugate gradients. [Nufft.Operator.normal] applies the Gram
   operator through its Toeplitz embedding (two pruned 2N-point FFTs per
   iteration around a spectrum cached in the operator, no gridding after
   the first call — the structure of the Impatient framework the paper
   compares against). Compares against one-shot density-compensated
   gridding reconstruction at two undersampling levels, and writes
   iter_recon_full.pgm and iter_recon_third.pgm.

   Run with:  dune exec examples/iterative_recon.exe *)

module Cvec = Numerics.Cvec
module C = Numerics.Complexd
module Op = Nufft.Operator

let n = 64

let ok = function
  | Ok v -> v
  | Error e -> failwith (Imaging.Recon.error_message e)

let () =
  let plan = Nufft.Plan.make ~n () in
  let phantom = Imaging.Phantom.make ~n () in
  let full = Trajectory.Radial.fully_sampled_spokes ~n in
  (* Operators come from a plan cache: a second solve on the same
     trajectory (here, a second regularisation weight) finds the cached
     operator, whose Toeplitz spectrum is already built. *)
  let cache = Pipeline.Plan_cache.create () in
  List.iter
    (fun (tag, spokes) ->
      let traj = Trajectory.Radial.make ~spokes ~readout:(2 * n) () in
      let samples = Imaging.Recon.acquire plan traj phantom in
      (* Direct: density-compensated adjoint. *)
      let density = Trajectory.Radial.density_weights traj in
      let direct = ok (Imaging.Recon.reconstruct ~density plan samples) in
      let direct_err = Imaging.Metrics.nrmsd_scaled ~reference:phantom direct in
      (* Iterative: CG on the Toeplitz normal operator. *)
      let solve rel_lambda =
        let ctx = Op.context ~n ~coords:samples () in
        let op, _ = Pipeline.Plan_cache.operator cache ~backend:"serial" ~ctx in
        let b = Imaging.Cg.normal_equations_rhs_op op samples in
        let lambda = rel_lambda *. sqrt (Cvec.norm2 b) in
        let apply x =
          let tx = Op.normal op x in
          Cvec.iteri
            (fun k c ->
              Cvec.set tx k (C.add (Cvec.get tx k) (C.scale lambda c)))
            x;
          tx
        in
        let t0 = Unix.gettimeofday () in
        let r = Imaging.Cg.solve ~max_iterations:25 ~tolerance:1e-6 ~apply b in
        (r, Unix.gettimeofday () -. t0)
      in
      let r, cold = solve 1e-3 in
      let _, warm = solve 1e-2 in
      let cg_err =
        Imaging.Metrics.nrmsd_scaled ~reference:phantom r.Imaging.Cg.solution
      in
      let path = Printf.sprintf "iter_recon_%s.pgm" tag in
      Imaging.Pgm.write_magnitude ~path ~n r.Imaging.Cg.solution;
      Printf.printf
        "%-6s %3d spokes: direct NRMSD %.4f | CG(%2d iters%s) NRMSD %.4f \
         [first solve %.3fs incl. operator build, second %.3fs] -> %s\n"
        tag spokes direct_err r.Imaging.Cg.iterations
        (if r.Imaging.Cg.converged then ", converged" else "")
        cg_err cold warm path)
    [ ("full", full); ("third", full / 3) ];
  let cs = Pipeline.Plan_cache.stats cache in
  Printf.printf "Operator plan cache: %d hits / %d misses\n"
    cs.Pipeline.Plan_cache.hits cs.Pipeline.Plan_cache.misses;
  Printf.printf
    "CG wins where it matters — under undersampling, where no one-shot \
     density compensation can undo the point-spread function; at full \
     sampling both reconstructions are Gibbs-limited. Each CG iteration \
     costs one Gram-operator application (two pruned 2N FFTs here; a \
     forward + adjoint NuFFT without the Toeplitz trick).\n"
