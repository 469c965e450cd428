module Ba = Bigarray
module A1 = Bigarray.Array1

type t = (float, Ba.float64_elt, Ba.c_layout) A1.t

let create_uninit n = A1.create Ba.float64 Ba.c_layout (2 * n)

let create n =
  let v = create_uninit n in
  A1.fill v 0.0;
  v

let length (v : t) = A1.dim v / 2

(* Raw interleaved-float accessors. The [unsafe_] variants skip the bounds
   check entirely and are the only accessors the per-sample / per-butterfly
   hot loops use; Bigarray float64 loads/stores compile to direct memory
   operations with no boxing. *)

let[@inline] unsafe_get_re (v : t) k = A1.unsafe_get v (2 * k)
let[@inline] unsafe_get_im (v : t) k = A1.unsafe_get v ((2 * k) + 1)

let[@inline] unsafe_set_parts (v : t) k re im =
  A1.unsafe_set v (2 * k) re;
  A1.unsafe_set v ((2 * k) + 1) im

let[@inline] unsafe_accumulate_parts (v : t) k re im =
  let j = 2 * k in
  A1.unsafe_set v j (A1.unsafe_get v j +. re);
  A1.unsafe_set v (j + 1) (A1.unsafe_get v (j + 1) +. im)

let[@inline] get_re (v : t) k = A1.get v (2 * k)
let[@inline] get_im (v : t) k = A1.get v ((2 * k) + 1)

let[@inline] set_parts (v : t) k re im =
  A1.set v (2 * k) re;
  A1.set v ((2 * k) + 1) im

let[@inline] accumulate_parts (v : t) k re im =
  let j = 2 * k in
  A1.set v j (A1.get v j +. re);
  A1.set v (j + 1) (A1.get v (j + 1) +. im)

let get v k = Complexd.make (get_re v k) (get_im v k)

let set v k (c : Complexd.t) = set_parts v k c.Complexd.re c.Complexd.im

let accumulate v k (c : Complexd.t) =
  accumulate_parts v k c.Complexd.re c.Complexd.im

let fill_zero (v : t) = A1.fill v 0.0

let copy (v : t) =
  let c = A1.create Ba.float64 Ba.c_layout (A1.dim v) in
  A1.blit v c;
  c

let blit (src : t) (dst : t) =
  if A1.dim src <> A1.dim dst then invalid_arg "Cvec.blit: length mismatch";
  A1.blit src dst

(* Plain forward float loop rather than [A1.blit] over [A1.sub] views:
   the sub proxies are two minor-heap allocations per call, and this runs
   per grid line inside the FFT passes. Callers pass non-overlapping
   ranges (distinct buffers, or a gather/scatter through a scratch). *)
let blit_complex ~(src : t) ~src_pos ~(dst : t) ~dst_pos ~len =
  if
    src_pos < 0 || dst_pos < 0 || len < 0
    || src_pos + len > length src
    || dst_pos + len > length dst
  then invalid_arg "Cvec.blit_complex: range out of bounds";
  let s0 = 2 * src_pos and d0 = 2 * dst_pos in
  for j = 0 to (2 * len) - 1 do
    A1.unsafe_set dst (d0 + j) (A1.unsafe_get src (s0 + j))
  done

let of_complex_array a =
  let v = create (Array.length a) in
  Array.iteri (fun k c -> set v k c) a;
  v

let to_complex_array v = Array.init (length v) (get v)

let init n f =
  let v = create n in
  for k = 0 to n - 1 do
    set v k (f k)
  done;
  v

let map f v = init (length v) (fun k -> f (get v k))

let iteri f v =
  for k = 0 to length v - 1 do
    f k (get v k)
  done

let fold f acc v =
  let acc = ref acc in
  for k = 0 to length v - 1 do
    acc := f !acc (get v k)
  done;
  !acc

let scale_inplace s (v : t) =
  for j = 0 to A1.dim v - 1 do
    A1.unsafe_set v j (s *. A1.unsafe_get v j)
  done

let add_inplace (dst : t) (src : t) =
  if A1.dim dst <> A1.dim src then
    invalid_arg "Cvec.add_inplace: length mismatch";
  for j = 0 to A1.dim dst - 1 do
    A1.unsafe_set dst j (A1.unsafe_get dst j +. A1.unsafe_get src j)
  done

(* y <- y + alpha * x and the CG update pair, fused so iterative solvers
   never touch per-element boxed complex values. *)
let axpy_inplace alpha ~(x : t) (y : t) =
  if A1.dim x <> A1.dim y then invalid_arg "Cvec.axpy_inplace: length mismatch";
  for j = 0 to A1.dim y - 1 do
    A1.unsafe_set y j (A1.unsafe_get y j +. (alpha *. A1.unsafe_get x j))
  done

let xpay_inplace alpha ~(x : t) (y : t) =
  if A1.dim x <> A1.dim y then invalid_arg "Cvec.xpay_inplace: length mismatch";
  for j = 0 to A1.dim y - 1 do
    A1.unsafe_set y j (A1.unsafe_get x j +. (alpha *. A1.unsafe_get y j))
  done

let dot a b =
  if A1.dim a <> A1.dim b then invalid_arg "Cvec.dot: length mismatch";
  let re = ref 0.0 and im = ref 0.0 in
  for k = 0 to length a - 1 do
    let ar = unsafe_get_re a k and ai = unsafe_get_im a k in
    let br = unsafe_get_re b k and bi = unsafe_get_im b k in
    re := !re +. ((ar *. br) +. (ai *. bi));
    im := !im +. ((ar *. bi) -. (ai *. br))
  done;
  Complexd.make !re !im

let norm2 (v : t) =
  let s = ref 0.0 in
  for j = 0 to A1.dim v - 1 do
    let x = A1.unsafe_get v j in
    s := !s +. (x *. x)
  done;
  !s

let max_abs_diff (a : t) (b : t) =
  if A1.dim a <> A1.dim b then invalid_arg "Cvec.max_abs_diff: length mismatch";
  let m = ref 0.0 in
  for j = 0 to A1.dim a - 1 do
    let d = Float.abs (A1.unsafe_get a j -. A1.unsafe_get b j) in
    if d > !m then m := d
  done;
  !m

let nrmsd ~(reference : t) (v : t) =
  if A1.dim reference <> A1.dim v then
    invalid_arg "Cvec.nrmsd: length mismatch";
  let num = ref 0.0 and den = ref 0.0 in
  for j = 0 to A1.dim v - 1 do
    let d = A1.unsafe_get v j -. A1.unsafe_get reference j in
    num := !num +. (d *. d);
    den := !den +. (A1.unsafe_get reference j *. A1.unsafe_get reference j)
  done;
  if !den = 0.0 then invalid_arg "Cvec.nrmsd: zero reference";
  sqrt (!num /. !den)

let pp ppf v =
  let n = min 8 (length v) in
  Format.fprintf ppf "[|";
  for k = 0 to n - 1 do
    if k > 0 then Format.fprintf ppf "; ";
    Complexd.pp ppf (get v k)
  done;
  if length v > n then Format.fprintf ppf "; ...";
  Format.fprintf ppf "|](%d)" (length v)
