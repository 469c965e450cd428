module Cvec = Numerics.Cvec
module C = Numerics.Complexd

type t = {
  coords : float array array;
  values : Cvec.t;
  g : int;
}

type t2 = t

let dims s = Array.length s.coords
let length s = Array.length s.coords.(0)

let coord s d =
  if d < 0 || d >= dims s then
    invalid_arg
      (Printf.sprintf "Sample.coord: axis %d of a %d-dimensional set" d
         (dims s));
  s.coords.(d)

let gx s = s.coords.(0)

let gy s =
  if dims s < 2 then invalid_arg "Sample.gy: 1-dimensional sample set";
  s.coords.(1)

let gz s =
  if dims s < 3 then
    invalid_arg
      (Printf.sprintf "Sample.gz: %d-dimensional sample set" (dims s));
  s.coords.(2)

let[@inline] omega_to_grid ~g omega =
  let gf = float_of_int g in
  let u = omega *. gf /. (2.0 *. Float.pi) in
  (* fmod returns its argument exactly (-0.0 included) when |u| < g, so
     the common in-range case skips the libm call. *)
  let u = if Float.abs u < gf then u else Float.rem u gf in
  let u = if u < 0.0 then u +. gf else u in
  (* Guard the open upper bound against rounding. *)
  if u >= gf then 0.0 else u

let check_lengths name coords values =
  if Array.length coords = 0 then
    invalid_arg (name ^ ": at least one coordinate axis required");
  let m = Array.length coords.(0) in
  if
    Array.exists (fun c -> Array.length c <> m) coords
    || m <> Cvec.length values
  then invalid_arg (name ^ ": coordinate/value length mismatch")

let validate s =
  let gf = float_of_int s.g in
  let check u =
    if not (u >= 0.0 && u < gf) then
      invalid_arg
        (Printf.sprintf "Sample: coordinate %g outside [0, %d)" u s.g)
  in
  Array.iter (fun axis -> Array.iter check axis) s.coords

let make ~g ~coords ~values =
  check_lengths "Sample.make" coords values;
  let s = { coords; values; g } in
  validate s;
  s

(* A non-finite omega has no grid position: [omega_to_grid] would map
   NaN through [Float.rem] to NaN and +-inf to NaN, and the gridding
   loops would silently drop or misplace the sample. *)
let grid_axes name ~g omega =
  Array.mapi
    (fun a (axis : float array) ->
      let out = Array.create_float (Array.length axis) in
      for j = 0 to Array.length axis - 1 do
        let om = axis.(j) in
        if not (Float.is_finite om) then
          invalid_arg
            (Printf.sprintf "%s: non-finite omega %g at sample %d (axis %d)"
               name om j a);
        out.(j) <- omega_to_grid ~g om
      done;
      out)
    omega

let of_omega ~g ~omega ~values =
  check_lengths "Sample.of_omega" omega values;
  { coords = grid_axes "Sample.of_omega" ~g omega; values; g }

let of_omega_2d ~g ~omega_x ~omega_y ~values =
  let omega = [| omega_x; omega_y |] in
  check_lengths "Sample.of_omega_2d" omega values;
  { coords = grid_axes "Sample.of_omega_2d" ~g omega; values; g }

let of_omega_3d ~g ~omega_x ~omega_y ~omega_z ~values =
  let omega = [| omega_x; omega_y; omega_z |] in
  check_lengths "Sample.of_omega_3d" omega values;
  { coords = grid_axes "Sample.of_omega_3d" ~g omega; values; g }

let make_2d ~g ~gx ~gy ~values =
  check_lengths "Sample.make_2d" [| gx; gy |] values;
  let s = { coords = [| gx; gy |]; values; g } in
  validate s;
  s

let make_3d ~g ~gx ~gy ~gz ~values =
  check_lengths "Sample.make_3d" [| gx; gy; gz |] values;
  let s = { coords = [| gx; gy; gz |]; values; g } in
  validate s;
  s

let random ?(seed = 0) ?(dims = 2) ~g m =
  if dims < 1 then invalid_arg "Sample.random: dims must be >= 1";
  let rng = Random.State.make [| seed |] in
  let gf = float_of_int g in
  let coord () =
    let u = Random.State.float rng gf in
    if u >= gf then 0.0 else u
  in
  { coords = Array.init dims (fun _ -> Array.init m (fun _ -> coord ()));
    values =
      Cvec.init m (fun _ ->
          C.make
            (Random.State.float rng 2.0 -. 1.0)
            (Random.State.float rng 2.0 -. 1.0));
    g }

let random_2d ?seed ~g m = random ?seed ~dims:2 ~g m
let random_3d ?seed ~g m = random ?seed ~dims:3 ~g m

let with_values s values =
  if Cvec.length values <> length s then
    invalid_arg "Sample.with_values: length mismatch";
  { s with values }

let all_finite (a : float array) = Array.for_all Float.is_finite a

(* The products of [C.scale] (w*re, w*im), written without a complex
   record per sample: the one density-weighting loop of the library. *)
let weight_into (w : float array) (values : Cvec.t) (out : Cvec.t) =
  let m = Cvec.length values in
  if Array.length w <> m || Cvec.length out <> m then
    invalid_arg "Sample.weight_into: weights length mismatch";
  for j = 0 to m - 1 do
    let s = Array.unsafe_get w j in
    Bigarray.Array1.unsafe_set out (2 * j)
      (s *. Bigarray.Array1.unsafe_get values (2 * j));
    Bigarray.Array1.unsafe_set out
      ((2 * j) + 1)
      (s *. Bigarray.Array1.unsafe_get values ((2 * j) + 1))
  done

let weighted ?weights s =
  match weights with
  | None -> s
  | Some w ->
      let out = Cvec.create_uninit (length s) in
      weight_into w s.values out;
      { s with values = out }
