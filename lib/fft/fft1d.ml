module Cvec = Numerics.Cvec

(* Same-module element accessors over the Bigarray externals: the dev
   profile compiles with [-opaque] (no cross-module inlining), so calling
   [Cvec.unsafe_get_re] etc. per butterfly would box a float each. These
   compile to loads/stores in every profile. *)
module A1 = Bigarray.Array1

let[@inline] get_re (v : Cvec.t) k = A1.unsafe_get v (2 * k)
let[@inline] get_im (v : Cvec.t) k = A1.unsafe_get v ((2 * k) + 1)

let[@inline] set_parts (v : Cvec.t) k re im =
  let j = 2 * k in
  A1.unsafe_set v j re;
  A1.unsafe_set v (j + 1) im

let is_pow2 n = n > 0 && n land (n - 1) = 0

let next_pow2 n =
  if n < 1 then invalid_arg "Fft1d.next_pow2";
  let rec go m = if m >= n then m else go (m * 2) in
  go 1

(* Caches, keyed by (n, sign). The tables are tiny relative to the data and
   the cache makes repeated transforms of the same size (2D row/column
   passes, iterative reconstruction) allocation-free. A mutex guards the
   hashtables so concurrent line transforms from a domain pool cannot
   corrupt them; the tables themselves are immutable once published.

   The build runs *outside* the lock: under the domain pool the first large
   transform would otherwise serialize every worker behind one twiddle
   build. Workers that miss concurrently each build a candidate table, then
   re-check under the lock and all adopt whichever table was inserted
   first (the tables are deterministic, so the losers' work is identical
   and simply dropped).

   A power-of-two length's tables ({!Simd.fft_tables}: the bit-reversal
   transpositions, the twiddles, and the per-stage lane-duplicated
   twiddles of the vector kernel) are one record, so a batch pays one
   lookup. The hit path allocates nothing: int-keyed tables (one per
   transform direction instead of an [(n, sign)] tuple key) looked up with
   [Hashtbl.find] under an exception match, so a warm serving loop pays no
   per-line closure, tuple or [Some] box. *)
let cache_mutex = Mutex.create ()
let tables_fwd : (int, Simd.fft_tables) Hashtbl.t = Hashtbl.create 16
let tables_inv : (int, Simd.fft_tables) Hashtbl.t = Hashtbl.create 16

let cache_adopt cache key candidate =
  Mutex.lock cache_mutex;
  let adopted =
    match Hashtbl.find_opt cache key with
    | Some winner -> winner
    | None ->
        Hashtbl.add cache key candidate;
        candidate
  in
  Mutex.unlock cache_mutex;
  adopted

let build_twiddles n sgn =
  let t = Array.make n 0.0 in
  for j = 0 to (n / 2) - 1 do
    let theta =
      float_of_int sgn *. 2.0 *. Float.pi *. float_of_int j /. float_of_int n
    in
    t.(2 * j) <- cos theta;
    t.((2 * j) + 1) <- sin theta
  done;
  t

(* The bit-reversal permutation as its transpositions (i, rev i) with
   i < rev i, in increasing i. *)
let build_swaps n =
  let bits =
    let rec go b m = if m = 1 then b else go (b + 1) (m / 2) in
    go 0 n
  in
  let rev i =
    let r = ref 0 and x = ref i in
    for _ = 1 to bits do
      r := (!r lsl 1) lor (!x land 1);
      x := !x lsr 1
    done;
    !r
  in
  let pairs = ref [] in
  for i = n - 1 downto 0 do
    let j = rev i in
    if j > i then pairs := i :: j :: !pairs
  done;
  Array.of_list !pairs

(* Stage [len]'s twiddles, copied from [tw] and duplicated per lane in
   the {!Simd.fft_tables} layout. *)
let build_stages n tw =
  let st = Array.make (max 0 ((4 * n) - 8)) 0.0 in
  let len = ref 4 in
  while !len <= n do
    let base = 2 * (!len - 4) and step = n / !len in
    for j = 0 to (!len / 2) - 1 do
      let o = base + (4 * (j land lnot 1)) + (2 * (j land 1)) in
      let wr = tw.(2 * j * step) and wi = tw.((2 * j * step) + 1) in
      st.(o) <- wr;
      st.(o + 1) <- wr;
      st.(o + 4) <- wi;
      st.(o + 5) <- wi
    done;
    len := !len * 2
  done;
  st

let build_tables n sgn : Simd.fft_tables =
  let twiddles = build_twiddles n sgn in
  { n; swaps = build_swaps n; twiddles; stages = build_stages n twiddles }

let tables n sgn =
  let cache = if sgn < 0 then tables_fwd else tables_inv in
  Mutex.lock cache_mutex;
  match Hashtbl.find cache n with
  | t ->
      Mutex.unlock cache_mutex;
      t
  | exception Not_found ->
      Mutex.unlock cache_mutex;
      cache_adopt cache n (build_tables n sgn)

(* One radix-2 line at complex offset [off] of a larger buffer, with the
   tables passed in (the batched callers look them up once per batch). *)
let radix2_at v (t : Simd.fft_tables) ~off =
  let n = t.n and swaps = t.swaps and tw = t.twiddles in
  for s = 0 to (Array.length swaps / 2) - 1 do
    let a = off + Array.unsafe_get swaps (2 * s)
    and b = off + Array.unsafe_get swaps ((2 * s) + 1) in
    let tr = get_re v a and ti = get_im v a in
    set_parts v a (get_re v b) (get_im v b);
    set_parts v b tr ti
  done;
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let step = n / !len in
    let i = ref 0 in
    while !i < n do
      for j = 0 to half - 1 do
        let wi = j * step in
        let wr = Array.unsafe_get tw (2 * wi)
        and wim = Array.unsafe_get tw ((2 * wi) + 1) in
        let a = off + !i + j in
        let b = a + half in
        let br = get_re v b and bi = get_im v b in
        let tr = (wr *. br) -. (wim *. bi) in
        let ti = (wr *. bi) +. (wim *. br) in
        let ar = get_re v a and ai = get_im v a in
        set_parts v a (ar +. tr) (ai +. ti);
        set_parts v b (ar -. tr) (ai -. ti)
      done;
      i := !i + !len
    done;
    len := !len * 2
  done

(* [count] contiguous power-of-two lines starting at complex offset
   [off]. When SIMD dispatch is on the whole batch goes through one C
   call ({!Simd.fft_batch} performs the same butterflies in the same
   order, so the result is bit-identical); otherwise each line runs the
   OCaml butterflies in place. *)
let radix2_lines sgn v ~off ~count ~n =
  if n > 1 && count > 0 then begin
    let t = tables n sgn in
    if Simd.enabled () then Simd.fft_batch v t off count
    else
      for l = 0 to count - 1 do
        radix2_at v t ~off:(off + (l * n))
      done
  end

let radix2_inplace sgn v =
  radix2_lines sgn v ~off:0 ~count:1 ~n:(Cvec.length v)

(* Bluestein chirp-z: X_k = c_k * circular-convolution(u, v)_k with
   u_j = x_j c_j,
   c_j = e^{s pi i j^2 / n}, v_j = conj(c_j) wrapped symmetrically into a
   length-m circular buffer, m = next_pow2 (2n - 1).

   Everything but u depends only on (n, sign): the chirp table c and
   the spectrum of v are built once and published in the twiddle-cache
   scheme above (build outside the lock, adopt under it). A line then
   costs its three length-m transforms and no trig or allocation: u
   lives in a domain-local work buffer, grown on demand and reused by
   every later line of that domain (see [take_buffer] below). The cached values are computed by
   the same expressions, in the same order, as a per-line build, so the
   result does not depend on whether the tables were warm. *)
type chirp = {
  m : int;
  table : float array;  (* c_j as (cos, sin) pairs, j < n *)
  kernel : Cvec.t;  (* forward transform of the wrapped conj(c) *)
}

let chirp_fwd : (int, chirp) Hashtbl.t = Hashtbl.create 8
let chirp_inv : (int, chirp) Hashtbl.t = Hashtbl.create 8

let build_chirp n sgn =
  let m = next_pow2 ((2 * n) - 1) in
  let s = float_of_int sgn in
  (* j^2 mod 2n keeps the angle argument small and accurate. *)
  let table = Array.make (2 * n) 0.0 in
  let kernel = Cvec.create m in
  for j = 0 to n - 1 do
    let q = j * j mod (2 * n) in
    let theta = s *. Float.pi *. float_of_int q /. float_of_int n in
    let cr = cos theta and ci = sin theta in
    table.(2 * j) <- cr;
    table.((2 * j) + 1) <- ci;
    set_parts kernel j cr (-.ci);
    if j > 0 then set_parts kernel (m - j) cr (-.ci)
  done;
  radix2_inplace (-1) kernel;
  { m; table; kernel }

let chirp n sgn =
  let cache = if sgn < 0 then chirp_fwd else chirp_inv in
  Mutex.lock cache_mutex;
  match Hashtbl.find cache n with
  | c ->
      Mutex.unlock cache_mutex;
      c
  | exception Not_found ->
      Mutex.unlock cache_mutex;
      cache_adopt cache n (build_chirp n sgn)

(* A reusable domain-local buffer. It is taken with an atomic exchange,
   so two systhreads of one domain never share it: a taker that finds it
   empty or too short allocates, and whichever buffer is given back last
   stays for the next taker. *)
let no_buffer = Cvec.create 0
type buffer_key = Cvec.t Atomic.t Domain.DLS.key

let buffer_key () : buffer_key =
  Domain.DLS.new_key (fun () -> Atomic.make no_buffer)

let take_buffer key len =
  let b = Atomic.exchange (Domain.DLS.get key) no_buffer in
  if Cvec.length b >= len then b else Cvec.create len

let give_buffer key b = Atomic.set (Domain.DLS.get key) b
let work_key = buffer_key ()

(* One length-[n] line at complex offset [off] of [v]. *)
let bluestein_at c v ~off ~n =
  let m = c.m and table = c.table and kernel = c.kernel in
  let u = take_buffer work_key m in
  for j = 0 to n - 1 do
    let cr = Array.unsafe_get table (2 * j)
    and ci = Array.unsafe_get table ((2 * j) + 1) in
    let xr = get_re v (off + j) and xi = get_im v (off + j) in
    set_parts u j ((xr *. cr) -. (xi *. ci)) ((xr *. ci) +. (xi *. cr))
  done;
  for j = n to m - 1 do
    set_parts u j 0.0 0.0
  done;
  radix2_lines (-1) u ~off:0 ~count:1 ~n:m;
  for j = 0 to m - 1 do
    let ar = get_re u j and ai = get_im u j in
    let br = get_re kernel j and bi = get_im kernel j in
    set_parts u j ((ar *. br) -. (ai *. bi)) ((ar *. bi) +. (ai *. br))
  done;
  radix2_lines 1 u ~off:0 ~count:1 ~n:m;
  let scale = 1.0 /. float_of_int m in
  for k = 0 to n - 1 do
    let cr = Array.unsafe_get table (2 * k)
    and ci = Array.unsafe_get table ((2 * k) + 1) in
    let ur = get_re u k *. scale and ui = get_im u k *. scale in
    set_parts v (off + k) ((ur *. cr) -. (ui *. ci)) ((ur *. ci) +. (ui *. cr))
  done;
  give_buffer work_key u

(* [count] contiguous lines of any length [n] >= 1 at complex offset
   [off]: radix-2 for powers of two, Bluestein otherwise. *)
let lines sgn v ~off ~count ~n =
  if n <= 1 || count = 0 then ()
  else if is_pow2 n then radix2_lines sgn v ~off ~count ~n
  else begin
    let c = chirp n sgn in
    for l = 0 to count - 1 do
      bluestein_at c v ~off:(off + (l * n)) ~n
    done
  end

let c_transforms = Telemetry.Counter.make "fft.1d_transforms"

let transform dir v =
  Telemetry.Counter.incr c_transforms;
  lines (int_of_float (Dft.sign dir)) v ~off:0 ~count:1 ~n:(Cvec.length v)

let transform_batch dir v ~off ~count ~len =
  if len < 1 then invalid_arg "Fft1d.transform_batch: len < 1";
  if count < 0 || off < 0 || off + (count * len) > Cvec.length v then
    invalid_arg "Fft1d.transform_batch: line range out of bounds";
  Telemetry.Counter.add c_transforms count;
  lines (int_of_float (Dft.sign dir)) v ~off ~count ~n:len

let transformed dir v =
  let c = Cvec.copy v in
  transform dir c;
  c

let inverse_normalized v =
  let c = transformed Dft.Inverse v in
  Cvec.scale_inplace (1.0 /. float_of_int (Cvec.length v)) c;
  c

let flop_estimate n =
  let nf = float_of_int n in
  5.0 *. nf *. (log nf /. log 2.0)
