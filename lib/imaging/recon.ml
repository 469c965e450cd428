module Cvec = Numerics.Cvec
module C = Numerics.Complexd
module Sample = Nufft.Sample
module Plan = Nufft.Plan
module Op = Nufft.Operator

type error =
  | Density_length_mismatch of { expected : int; got : int }
  | Empty_sample_set
  | Backend_failure of string

let error_message = function
  | Density_length_mismatch { expected; got } ->
      Printf.sprintf
        "density weights length %d does not match the %d-sample set" got
        expected
  | Empty_sample_set -> "sample set is empty"
  | Backend_failure msg -> "backend failure: " ^ msg

let coords_of_traj ~g traj =
  let m = Trajectory.Traj.length traj in
  Sample.of_omega_2d ~g ~omega_x:traj.Trajectory.Traj.omega_x
    ~omega_y:traj.Trajectory.Traj.omega_y ~values:(Cvec.create m)

let apply_density ?density samples =
  match density with
  | None -> Ok samples
  | Some w ->
      let m = Sample.length samples in
      if Array.length w <> m then
        Error (Density_length_mismatch { expected = m; got = Array.length w })
      else
        Ok (Sample.weighted ~weights:w samples)

(* Backends validate their inputs with [Invalid_argument] (grid mismatch,
   unsupported dimensionality, ...); the reconstruction driver is the seam
   where those become typed errors, so no exception escapes to a serving
   layer. *)
let guard f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument msg -> Error (Backend_failure msg)
  | exception Failure msg -> Error (Backend_failure msg)

let ( let* ) = Result.bind

(* Operator-based pipeline: backend- and dimension-agnostic. *)

let acquire_op op image = Op.apply_forward op image

let reconstruct_op ?density op samples =
  let m = Sample.length samples in
  if m = 0 then Error Empty_sample_set
  else
    let* samples = apply_density ?density samples in
    let* image = guard (fun () -> Op.apply_adjoint op samples) in
    (* Unit-gain normalisation: the adjoint of an m-sample uniform
       acquisition scales the image by m (and the oversampled FFT pair by
       nothing since forward/adjoint are unnormalised transposes); dividing
       by m recovers the original scale for fully sampled data. *)
    Cvec.scale_inplace (1.0 /. float_of_int m) image;
    Ok image

let roundtrip_op ?density op image =
  let* samples = guard (fun () -> acquire_op op image) in
  let* recon = reconstruct_op ?density op samples in
  Ok (recon, Metrics.nrmsd ~reference:image recon)

(* Plan-based wrappers (the historical 2D API) ride on the same path. *)

let acquire plan traj image =
  let coords = coords_of_traj ~g:plan.Plan.g traj in
  acquire_op (Op.of_plan plan ~coords) image

let reconstruct ?density plan samples =
  let* op = guard (fun () -> Op.of_plan plan ~coords:samples) in
  reconstruct_op ?density op samples

let roundtrip ?density plan traj image =
  let coords = coords_of_traj ~g:plan.Plan.g traj in
  let* op = guard (fun () -> Op.of_plan plan ~coords) in
  roundtrip_op ?density op image
