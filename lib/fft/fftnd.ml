module Cvec = Numerics.Cvec
module Pool = Runtime.Pool

let check_size name n v =
  if Cvec.length v <> n then invalid_arg (name ^ ": size mismatch")

let c_lines = Telemetry.Counter.make "fft.lines"

(* A pass transforms, along one axis, a set of lines given as runs of
   adjacent lines: [segs] holds (base, count) pairs, run line [k]
   starting at complex index [base + k * step]; point [j] of a line sits
   [j * stride] after its start. A row pass ([stride = 1]) has
   [step = len]: its runs are contiguous and transform in place. Every
   other pass has [step = 1] — adjacent lines are adjacent grid columns —
   and is staged through a domain-local scratch a block of [block_lines]
   lines at a time: {!Simd.copy_lines} gathers the block into
   contiguous lines, {!Fft1d.transform_batch} runs the same 1D kernel as
   on any other line, and the block is copied back. A block spans whole
   64-byte cache lines of the grid (at least 4 adjacent points) and
   about 32 KiB of scratch. Lines of a pass touch disjoint points, so
   blocks may run on any domain in any order with a bit-identical
   result. *)

let block_lines len = max 4 (2048 / len)
let scratch_key = Fft1d.buffer_key ()

let run_block dir v ~len ~stride ~base ~count =
  if stride = 1 then Fft1d.transform_batch dir v ~off:base ~count ~len
  else begin
    let s = Fft1d.take_buffer scratch_key (count * len) in
    Simd.copy_lines v base 1 stride s 0 len 1 count len;
    Fft1d.transform_batch dir s ~off:0 ~count ~len;
    Simd.copy_lines s 0 len 1 v base 1 stride count len;
    Fft1d.give_buffer scratch_key s
  end

let pass ?pool dir v ~len ~stride segs =
  let sp = Telemetry.span_begin ~cat:"fft" "fft.pass" in
  let step = if stride = 1 then len else 1 in
  let bl = block_lines len in
  let nseg = Array.length segs / 2 in
  let lines = ref 0 and blocks = ref 0 in
  for i = 0 to nseg - 1 do
    let c = segs.((2 * i) + 1) in
    lines := !lines + c;
    blocks := !blocks + ((c + bl - 1) / bl)
  done;
  Telemetry.Counter.add c_lines !lines;
  (* Blocks of at most [size] lines, in segment order. *)
  let iter_blocks size f =
    for i = 0 to nseg - 1 do
      let base = segs.(2 * i) and c = segs.((2 * i) + 1) in
      let k = ref 0 in
      while !k < c do
        f (base + (!k * step)) (min size (c - !k));
        k := !k + size
      done
    done
  in
  (match pool with
  | Some p when Pool.size p > 1 && !blocks > 1 ->
      let bbase = Array.make !blocks 0 and bcount = Array.make !blocks 0 in
      let b = ref 0 in
      iter_blocks bl (fun base count ->
          bbase.(!b) <- base;
          bcount.(!b) <- count;
          incr b);
      Pool.parallel_for_ranges p ~start:0 ~stop:!blocks (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            run_block dir v ~len ~stride ~base:bbase.(i) ~count:bcount.(i)
          done)
  | _ ->
      (* Serially, a contiguous run is one batched call. *)
      iter_blocks
        (if stride = 1 then max 1 !lines else bl)
        (fun base count -> run_block dir v ~len ~stride ~base ~count));
  Telemetry.span_end sp

(* Which lines a pass transforms. [Full] transforms every line.
   [Crop n]: the result is read only at points whose every coordinate
   lies in the centred set K = [0, n - n/2) ∪ [g - n/2, g) of its axis,
   so along an axis already transformed only the lines at K are needed.
   [Pad n]: the input is +0.0 at every point with a coordinate outside
   K, so along an axis not yet transformed the lines outside K are all
   +0.0 and are skipped — they stay +0.0, exactly what transforming them
   would give for a power-of-two length (every butterfly of an all-+0.0
   line outputs +0.0). *)
type prune = Full | Crop of int | Pad of int

(* Runs of an axis of length [g] as flat (start, count) pairs: all of
   it, or K. *)
let axis_runs prune ~pass_axis ~axis g =
  let centred n =
    let h = n / 2 in
    if n >= g then [| 0; g |] else [| 0; n - h; g - h; h |]
  in
  match prune with
  | Crop n when axis < pass_axis -> centred n
  | Pad n when axis > pass_axis -> centred n
  | Full | Crop _ | Pad _ -> [| 0; g |]

(* A pass's runs of lines: for every coordinate [o] of the [outer] runs,
   in order, and every [inner] run [(s, c)], the run
   [(o * ostride + s * istride, c)]. *)
let segments ~outer ~ostride ~inner ~istride =
  let no = ref 0 in
  for i = 0 to (Array.length outer / 2) - 1 do
    no := !no + outer.((2 * i) + 1)
  done;
  let ni = Array.length inner / 2 in
  let segs = Array.make (2 * !no * ni) 0 in
  let k = ref 0 in
  for i = 0 to (Array.length outer / 2) - 1 do
    for o = outer.(2 * i) to outer.(2 * i) + outer.((2 * i) + 1) - 1 do
      for r = 0 to ni - 1 do
        segs.(!k) <- (o * ostride) + (inner.(2 * r) * istride);
        segs.(!k + 1) <- inner.((2 * r) + 1);
        k := !k + 2
      done
    done
  done;
  segs

(* Passes along x, then y, then z; a 2D array is the [nz = 1] case,
   whose z pass is skipped. *)
let transform_pruned ?pool ~prune dir ~nx ~ny ~nz v =
  let two_d = nz = 1 in
  check_size
    (if two_d then "Fftnd.transform_2d" else "Fftnd.transform_3d")
    (nx * ny * nz) v;
  let sp = Telemetry.span_begin ~cat:"fft" (if two_d then "fft.2d" else "fft.3d") in
  let plane = nx * ny in
  pass ?pool dir v ~len:nx ~stride:1
    (segments
       ~outer:(axis_runs prune ~pass_axis:0 ~axis:2 nz)
       ~ostride:plane
       ~inner:(axis_runs prune ~pass_axis:0 ~axis:1 ny)
       ~istride:nx);
  pass ?pool dir v ~len:ny ~stride:nx
    (segments
       ~outer:(axis_runs prune ~pass_axis:1 ~axis:2 nz)
       ~ostride:plane
       ~inner:(axis_runs prune ~pass_axis:1 ~axis:0 nx)
       ~istride:1);
  if not two_d then
    pass ?pool dir v ~len:nz ~stride:plane
      (segments
         ~outer:(axis_runs prune ~pass_axis:2 ~axis:1 ny)
         ~ostride:nx
         ~inner:(axis_runs prune ~pass_axis:2 ~axis:0 nx)
         ~istride:1);
  Telemetry.span_end sp

let transform_2d ?pool ?scratch:_ dir ~nx ~ny v =
  transform_pruned ?pool ~prune:Full dir ~nx ~ny ~nz:1 v

let transform_3d ?pool ?scratch:_ dir ~nx ~ny ~nz v =
  transform_pruned ?pool ~prune:Full dir ~nx ~ny ~nz v

let transform_kept name ?pool ~prune dir ~dims ~g ~n v =
  if n < 1 || n > g then invalid_arg (name ^ ": need 1 <= n <= g");
  let nz = if dims = 2 then 1 else g in
  transform_pruned ?pool ~prune dir ~nx:g ~ny:g ~nz v

let transform_cropped ?pool dir ~dims ~g ~n v =
  transform_kept "Fftnd.transform_cropped" ?pool ~prune:(Crop n) dir ~dims ~g
    ~n v

let transform_padded ?pool dir ~dims ~g ~n v =
  transform_kept "Fftnd.transform_padded" ?pool ~prune:(Pad n) dir ~dims ~g ~n
    v

let transformed_2d ?pool dir ~nx ~ny v =
  let c = Cvec.copy v in
  transform_2d ?pool dir ~nx ~ny c;
  c

let fftshift_2d ~nx ~ny v =
  check_size "Fftnd.fftshift_2d" (nx * ny) v;
  let out = Cvec.create (nx * ny) in
  for y = 0 to ny - 1 do
    for x = 0 to nx - 1 do
      let x' = (x + (nx / 2)) mod nx and y' = (y + (ny / 2)) mod ny in
      Cvec.set out ((y' * nx) + x') (Cvec.get v ((y * nx) + x))
    done
  done;
  out

let flop_estimate_2d ~nx ~ny =
  let n = float_of_int (nx * ny) in
  5.0 *. n *. (log n /. log 2.0)
