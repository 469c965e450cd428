module Cvec = Numerics.Cvec
module A1 = Bigarray.Array1

let factors ~kernel ~width ~n ~g =
  let f =
    Array.init n (fun i ->
        let freq = float_of_int (i - (n / 2)) /. float_of_int g in
        Numerics.Window.ft kernel ~width freq)
  in
  Array.iteri
    (fun i v ->
      if Float.abs v < 1e-12 then
        failwith
          (Printf.sprintf
             "Apodization.factors: psi_hat vanishes at index %d (kernel too \
              narrow for this oversampling)"
             i))
    f;
  f

type shared = {
  kernel : Numerics.Window.t;
  width : int;
  n : int;
  g : int;
  values : float array;
}

(* Like {!Numerics.Weight_table.shared}: one weakly held vector per
   (kernel, width, n, g). *)
module Store = Numerics.Weak_store.Make (struct
  type t = shared

  let equal a b =
    a.width = b.width && a.n = b.n && a.g = b.g && a.kernel = b.kernel

  let hash a = Hashtbl.hash (a.kernel, a.width, a.n, a.g)
end)

let shared ~kernel ~width ~n ~g =
  let probe = { kernel; width; n; g; values = [||] } in
  fst
    (Store.find_or_build probe (fun () ->
         { probe with values = factors ~kernel ~width ~n ~g }))

(* The pointwise scale shared by every deapodization call site: one
   contiguous run of [len] complex elements divided by the separable
   factor product [(f.(f_off+i) *. fy) *. fz]. The left-associated
   product is the rounding order of the historical 3D loops; 2D callers
   pass [fz = 1.0], which multiplies exactly, so their results are
   bit-identical to the old [1.0 /. (fx *. fy)] form. Dispatches to the
   {!Simd} kernel when active (same op order, 4-ULP contract). *)
let scale_row_into ~dst ~dst_off ~src ~src_off ~f ~f_off ~len ~fy ~fz =
  if
    len < 0 || dst_off < 0 || src_off < 0 || f_off < 0
    || dst_off + len > Cvec.length dst
    || src_off + len > Cvec.length src
    || f_off + len > Array.length f
  then invalid_arg "Apodization.scale_row_into: range out of bounds";
  if Simd.enabled () then Simd.deapod_row dst dst_off src src_off f f_off len fy fz
  else
    for i = 0 to len - 1 do
      let s = 1.0 /. ((Array.unsafe_get f (f_off + i) *. fy) *. fz) in
      let d = 2 * (dst_off + i) and q = 2 * (src_off + i) in
      A1.unsafe_set dst d (s *. A1.unsafe_get src q);
      A1.unsafe_set dst (d + 1) (s *. A1.unsafe_get src (q + 1))
    done

let divide_2d ~factors ~n image =
  if Cvec.length image <> n * n then
    invalid_arg "Apodization: image size mismatch";
  if Array.length factors <> n then
    invalid_arg "Apodization: factors length mismatch";
  let out = Cvec.create (n * n) in
  for iy = 0 to n - 1 do
    scale_row_into ~dst:out ~dst_off:(iy * n) ~src:image ~src_off:(iy * n)
      ~f:factors ~f_off:0 ~len:n ~fy:factors.(iy) ~fz:1.0
  done;
  out

let deapodize_2d = divide_2d
let apodize_2d = divide_2d
