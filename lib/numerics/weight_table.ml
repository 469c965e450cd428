type precision =
  | Double
  | Single
  | Fixed16

type t = {
  kernel : Window.t;
  width : int;
  l : int;
  precision : precision;
  table : float array;  (* quantised weights, half window, step 1/L *)
}

let quantize precision x =
  match precision with
  | Double -> x
  | Single -> Float32.round x
  | Fixed16 ->
      Fixed_point.to_float Fixed_point.q15 (Fixed_point.of_float Fixed_point.q15 x)

let make ?(precision = Double) ~kernel ~width ~l () =
  if width < 1 then invalid_arg "Weight_table.make: width < 1";
  if l < 1 then invalid_arg "Weight_table.make: l < 1";
  let entries = (width * l / 2) + 1 in
  let psi = Window.staged kernel ~width and lf = float_of_int l in
  let table = Array.create_float entries in
  for a = 0 to entries - 1 do
    Array.unsafe_set table a (quantize precision (psi (float_of_int a /. lf)))
  done;
  { kernel; width; l; precision; table }

(* Tables are pure functions of their geometry (kernel, width, l,
   precision), so every plan of one geometry can read one immutable
   array. The store holds them weakly (see {!Weak_store}): a w = 16,
   l = 262144 table is 16 MB and [tol] comes off the wire. *)
module Store = Weak_store.Make (struct
  type nonrec t = t

  let equal a b =
    a.width = b.width && a.l = b.l && a.precision = b.precision
    && a.kernel = b.kernel

  let hash t = Hashtbl.hash (t.kernel, t.width, t.l, t.precision)
end)

let c_built = Telemetry.Counter.make "plan.tables_built"
let c_shared = Telemetry.Counter.make "plan.tables_shared"

let shared ?(precision = Double) ~kernel ~width ~l () =
  let probe = { kernel; width; l; precision; table = [||] } in
  let t, built =
    Store.find_or_build probe (fun () -> make ~precision ~kernel ~width ~l ())
  in
  Telemetry.Counter.incr (if built then c_built else c_shared);
  t

let kernel t = t.kernel
let width t = t.width
let data t = t.table
let oversampling t = t.l
let precision t = t.precision
let entries t = Array.length t.table

(* Raw quantised address: [round (|d| * L)]. Always >= 0; may fall past the
   table end when the distance is outside the window. *)
let[@inline] quantize_distance t d =
  int_of_float (Float.round (Float.abs d *. float_of_int t.l))

let address_of_distance t d =
  let a = quantize_distance t d in
  if a >= Array.length t.table then None else Some a

let get t a =
  if a < 0 || a >= Array.length t.table then
    invalid_arg "Weight_table.get: address out of range";
  t.table.(a)

let get_q15 t a = Fixed_point.of_float Fixed_point.q15 (get t a)

(* Hot-path lookups: branch + arithmetic only, no [option] allocation. *)

let[@inline] weight_at t a =
  if a >= Array.length t.table then 0.0 else Array.unsafe_get t.table a

let[@inline] lookup t d = weight_at t (quantize_distance t d)

let lookup_exact t d = Window.eval t.kernel ~width:t.width d

let max_table_error t =
  (* Probe at 8 points between consecutive table addresses. *)
  let probes = 8 * t.width * t.l / 2 in
  let half = float_of_int t.width /. 2.0 in
  let err = ref 0.0 in
  for j = 0 to probes - 1 do
    let d = float_of_int j /. float_of_int probes *. half in
    let e = Float.abs (lookup t d -. lookup_exact t d) in
    if e > !err then err := e
  done;
  !err
