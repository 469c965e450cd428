(* Shared test helpers. The qcheck plumbing for every property-based
   test in this directory: the generator randomness comes from the
   QCHECK_SEED environment variable (one process-wide seed, a fresh
   [Random.State] per test so suites stay order-independent), and the
   seed is printed on stderr when a property fails, so any failure is
   reproducible with

     QCHECK_SEED=<seed> dune runtest *)

let seed =
  lazy
    (match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some i -> i
        | None ->
            failwith ("qutil: QCHECK_SEED must be an integer, got " ^ s))
    | None ->
        Random.self_init ();
        Random.int 1_000_000_000)

let to_alcotest test =
  let s = Lazy.force seed in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| s |]) test
  in
  let run args =
    try run args
    with e ->
      Printf.eprintf "\n[qcheck] failing seed: QCHECK_SEED=%d\n%!" s;
      raise e
  in
  (name, speed, run)

let to_alcotests tests = List.map to_alcotest tests

(* Random samples whose first few coordinates sit on the wrap seam: u = 0,
   u just below g, and windows straddling the low and the high edge, on
   every axis, so each kernel's non-contiguous (seam) row path runs as
   well as its contiguous one. *)
let seam_samples ~seed ~dims ~g m =
  let s = Nufft.Sample.random ~seed ~dims ~g m in
  let gf = float_of_int g in
  let edges = [| 0.0; Float.pred gf; 1.3; gf -. 1.6 |] in
  let k = Array.length edges in
  (* Sample i takes edge (i + a) mod k on axis a, so seam positions meet
     each other across axes too. *)
  let coords =
    Array.mapi
      (fun a axis ->
        Array.mapi (fun i u -> if i < k then edges.((i + a) mod k) else u) axis)
      s.Nufft.Sample.coords
  in
  Nufft.Sample.make ~g ~coords ~values:s.Nufft.Sample.values
