(* Order statistics and the result line.

   Timings are reported as a median and a tail: the highest percentile
   of a fixed ladder that still has at least [min_beyond] samples beyond
   it, so a tail is never read off one or two outliers. The ladder is
   coarse on purpose: run-to-run sample counts move a little, and a fine
   ladder would make the reported percentile itself change between runs. *)

let now_s () = float_of_int (Telemetry.Clock.now_ns ()) *. 1e-9

let sorted (xs : float array) =
  let c = Array.copy xs in
  Array.sort compare c;
  c

(* Nearest-rank percentile of a sorted array. *)
let rank s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let i = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) i))

let median xs = rank (sorted xs) 0.5

let ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]
let min_beyond = 10

(* [beyond n p] — samples strictly above the nearest-rank [p] index. *)
let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))

type tail = { p : float; value : float; count : int }

let tail xs =
  let s = sorted xs in
  let n = Array.length s in
  let p =
    match List.find_opt (fun p -> beyond n p >= min_beyond) ladder with
    | Some p -> p
    | None -> 0.5
  in
  { p; value = rank s p; count = n }

let tail_label t =
  Printf.sprintf "p%g of %d samples" (100.0 *. t.p) t.count

(* Interference rejection. The host is shared, and neighbours slow a
   run by up to ~1.9x in phases lasting seconds, so a plain median over
   a run reads whichever phase the run fell into. The timed phase is
   therefore cut into windows of equal request count (at least
   [window_requests] each, at most [max_windows] windows), and the
   end-to-end figures are computed over the requests of the quietest
   tenth of them (lowest window median; at least [min_pool] requests). A
   slowdown of the program itself slows every window and still shows. *)

let window_requests = 5
let max_windows = 200
let quiet_fraction = 0.1
let min_pool = 20

type quiet = {
  q_p50 : float;
  q_tail : tail;
  q_rate : float;  (** completed requests per wall second in the kept windows *)
  q_kept : int;
  q_windows : int;
}

(* [starts]/[ends]: per-request wall times (an open loop passes due
   times as starts); [lat_ms]: latencies; all in request order. *)
let quiet ~starts ~ends ~lat_ms ~ok =
  let n = Array.length lat_ms in
  let w = max 1 (min max_windows (n / window_requests)) in
  let lo i = i * n / w in
  let med = Array.init w (fun i -> median (Array.sub lat_ms (lo i) (lo (i + 1) - lo i))) in
  let order = Array.init w Fun.id in
  Array.stable_sort (fun a b -> compare med.(a) med.(b)) order;
  let min_keep = max 1 (int_of_float (Float.ceil (quiet_fraction *. float_of_int w))) in
  let sel = ref [] and pool = ref 0 and span = ref 0.0 and completed = ref 0 in
  let kept = ref 0 in
  while !kept < w && (!kept < min_keep || !pool < min_pool) do
    let i = order.(!kept) in
    for r = lo i to lo (i + 1) - 1 do
      sel := lat_ms.(r) :: !sel;
      incr pool;
      if ok.(r) then incr completed
    done;
    span := !span +. (ends.(lo (i + 1) - 1) -. starts.(lo i));
    incr kept
  done;
  let sel = Array.of_list !sel in
  { q_p50 = median sel;
    q_tail = tail sel;
    q_rate = float_of_int !completed /. !span;
    q_kept = !kept;
    q_windows = w }

(* Growable float buffer for per-request samples. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* Peak resident set (VmHWM) of this process, in MB (10^6 bytes). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024.0 /. 1e6)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Bitwise equality of two complex vectors (NaN-safe, -0.0-sensitive). *)
let bits_equal (a : Numerics.Cvec.t) (b : Numerics.Cvec.t) =
  let n = Bigarray.Array1.dim a in
  n = Bigarray.Array1.dim b
  &&
  let rec go i =
    i = n
    || Int64.equal
         (Int64.bits_of_float (Bigarray.Array1.unsafe_get a i))
         (Int64.bits_of_float (Bigarray.Array1.unsafe_get b i))
       && go (i + 1)
  in
  go 0

(* 63-bit FNV-style digest of a float array's bit patterns: lets the
   serving workload check every response bit for bit without keeping
   each image. *)
let digest_floats (a : float array) =
  let h = ref 0x0cbf29ce484222 in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor Int64.to_int (Int64.bits_of_float (Array.unsafe_get a i)))
         * 0x100000001b3
  done;
  !h

let digest_cvec (c : Numerics.Cvec.t) =
  let h = ref 0x0cbf29ce484222 in
  for i = 0 to Bigarray.Array1.dim c - 1 do
    h := (!h lxor Int64.to_int (Int64.bits_of_float (Bigarray.Array1.unsafe_get c i)))
         * 0x100000001b3
  done;
  !h

(* The result line: the last line of standard output, one JSON object. *)
type metric = { name : string; value : float; unit_ : string }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)
