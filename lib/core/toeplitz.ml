module Cvec = Numerics.Cvec
module A1 = Bigarray.Array1

let c_built = Telemetry.Counter.make "op.normal_spectra_built"

(* A built kernel: the weights it was built for (the caller's array, so
   the CG loop's repeated calls hit on physical identity) and the real
   spectrum of the circulant kernel, pre-scaled by 1/(2n)^dims. *)
type built = { key : float array option; spectrum : float array }

type t = {
  plan : Plan.plan;
  coords : Sample.t;
  dims : int;
  state : built option Atomic.t;
  pad : Cvec.t Atomic.t;
      (* the reusable (2n)^dims buffer, taken with an atomic exchange and
         put back; empty while an application holds it. *)
}

let empty = Cvec.create 0
let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

let create (plan : Plan.plan) ~coords =
  if coords.Sample.g <> plan.Plan.g then
    invalid_arg "Toeplitz.create: coords are not on the plan's grid";
  { plan;
    coords;
    dims = Sample.dims coords;
    state = Atomic.make None;
    pad = Atomic.make empty }

let same_weights a b =
  match (a, b) with
  | None, None -> true
  | Some (x : float array), Some (y : float array) ->
      x == y
      || Array.length x = Array.length y
         &&
         let n = Array.length x in
         let i = ref 0 in
         while !i < n && Array.unsafe_get x !i = Array.unsafe_get y !i do
           incr i
         done;
         !i = n
  | _ -> false

(* [f iz iy start] for every row of an [n^dims] row-major image ([iz = 0]
   in 2D), [start] being the row's first element. *)
let iter_rows ~dims ~n f =
  for iz = 0 to (if dims = 2 then 0 else n - 1) do
    for iy = 0 to n - 1 do
      f iz iy (((iz * n) + iy) * n)
    done
  done

(* Kernel: the normal map is [(T x)(p) = sum_p' q(p - p') x(p')] with
   [q(d) = sum_j w_j e^{+i omega_j . d}], needed for [|d| < n] per axis.
   Writing [d = p + c] with [p] on the operator's image lattice
   [[-h, n - h)^dims] ([h = n/2]) and [c] in [{h - n, h}^dims], block [c]
   is the operator's own adjoint of the values [w_j e^{+i omega_j . c}]:
   one compiled-plan replay per block, no second plan. Block [c] covers
   [d in [0, n)] on an axis where [c = h] and [[-n, 0)] where [c = h - n],
   i.e. circulant indices [[0, n)] and [[n, 2n)] of the (2n)^dims grid.
   Real weights make [q(-d) = conj q(d)], so only the blocks with
   [c = h] on the x axis are computed ([2^(dims-1)] adjoints); the
   circulant's other x half is their conjugate mirror, and its x index
   [n] ([d_x = -n], never read by the crop) stays zero. One pass over the
   samples computes each sample's per-axis phases once and every block's
   value from them; for even [n] the [h - n] phase is the conjugate of
   the [h] one. *)
let build t weights =
  let sp = Telemetry.span_begin ~cat:"op" "op.normal_build" in
  let p = t.plan and dims = t.dims in
  let n = p.Plan.n and g = p.Plan.g in
  let n2 = 2 * n and h = n / 2 in
  let m = Sample.length t.coords in
  (match weights with
  | Some w when Array.length w <> m ->
      invalid_arg "Operator.normal: weights length mismatch"
  | _ -> ());
  let axes = t.coords.Sample.coords in
  let nblocks = 1 lsl (dims - 1) in
  (* Bit [d - 1] of [block] set: axis [d >= 1] takes the offset [h - n]. *)
  let low block d = d > 0 && block land (1 lsl (d - 1)) <> 0 in
  let vals = Array.init nblocks (fun _ -> Cvec.create_uninit m) in
  let k_hi = 2.0 *. Float.pi *. float_of_int h /. float_of_int g in
  let k_lo = 2.0 *. Float.pi *. float_of_int (h - n) /. float_of_int g in
  (* One sample's per-axis phases e^{+i omega c}, c = h and c = h - n. *)
  let hr = Array.create_float dims and hi = Array.create_float dims in
  let lr = Array.create_float dims and li = Array.create_float dims in
  for j = 0 to m - 1 do
    for d = 0 to dims - 1 do
      let u = Array.unsafe_get axes.(d) j in
      hr.(d) <- cos (k_hi *. u);
      hi.(d) <- sin (k_hi *. u);
      if n mod 2 = 0 then begin
        lr.(d) <- hr.(d);
        li.(d) <- -.hi.(d)
      end
      else if d > 0 then begin
        lr.(d) <- cos (k_lo *. u);
        li.(d) <- sin (k_lo *. u)
      end
    done;
    for block = 0 to nblocks - 1 do
      let re = ref (match weights with Some w -> w.(j) | None -> 1.0) in
      let im = ref 0.0 in
      for d = 0 to dims - 1 do
        let c = if low block d then lr.(d) else hr.(d) in
        let s = if low block d then li.(d) else hi.(d) in
        let r = (!re *. c) -. (!im *. s) in
        im := (!re *. s) +. (!im *. c);
        re := r
      done;
      Cvec.unsafe_set_parts vals.(block) j !re !im
    done
  done;
  let kgrid = Cvec.create (pow n2 dims) in
  Array.iteri
    (fun block v ->
      let image = Plan.adjoint_compiled p (Sample.with_values t.coords v) in
      let off d = if low block d then n else 0 in
      iter_rows ~dims ~n (fun iz iy src ->
          let dst =
            (((if dims = 2 then 0 else iz + off 2) * n2) + iy + off 1) * n2
          in
          Cvec.blit_complex ~src:image ~src_pos:src ~dst:kgrid ~dst_pos:dst
            ~len:n))
    vals;
  (* x indices (n, 2n): the conjugate of the point at minus the index. *)
  let neg i = if i = 0 then 0 else n2 - i in
  for iz = 0 to (if dims = 2 then 0 else n2 - 1) do
    for iy = 0 to n2 - 1 do
      let row = ((iz * n2) + iy) * n2 in
      let mirror = ((neg iz * n2) + neg iy) * n2 in
      for ix = n + 1 to n2 - 1 do
        let src = mirror + n2 - ix in
        Cvec.unsafe_set_parts kgrid (row + ix) (Cvec.unsafe_get_re kgrid src)
          (-.Cvec.unsafe_get_im kgrid src)
      done
    done
  done;
  (if dims = 2 then
     Fft.Fftnd.transform_2d ?pool:p.Plan.pool Fft.Dft.Forward ~nx:n2 ~ny:n2
       kgrid
   else
     Fft.Fftnd.transform_3d ?pool:p.Plan.pool Fft.Dft.Forward ~nx:n2 ~ny:n2
       ~nz:n2 kgrid);
  (* The kernel is Hermitian, so its spectrum is real up to rounding:
     keeping the real part makes the embedded operator exactly Hermitian.
     The inverse FFT's 1/(2n)^dims is folded in here. *)
  let scale = 1.0 /. float_of_int (pow n2 dims) in
  let spectrum =
    Array.init (pow n2 dims) (fun i -> scale *. Cvec.unsafe_get_re kgrid i)
  in
  (* The kernel grid becomes the first application's pad buffer. *)
  ignore (Atomic.compare_and_set t.pad empty kgrid);
  Telemetry.Counter.incr c_built;
  Telemetry.span_end sp;
  { key = weights; spectrum }

(* Published through [state]; the first build to publish wins. A build
   that loses to one for the same weights returns the winner's spectrum
   (the same bits: the build is deterministic); one that loses to other
   weights uses its own. A hit on equal contents in another array re-keys
   the state on that array, so the calls after it hit on identity. *)
let spectrum_for t weights =
  let cur = Atomic.get t.state in
  match cur with
  | Some b when b.key == weights -> b.spectrum
  | Some b when same_weights b.key weights ->
      ignore (Atomic.compare_and_set t.state cur (Some { b with key = weights }));
      b.spectrum
  | _ -> (
      let fresh = build t weights in
      if Atomic.compare_and_set t.state cur (Some fresh) then fresh.spectrum
      else
        match Atomic.get t.state with
        | Some b when same_weights b.key weights -> b.spectrum
        | _ -> fresh.spectrum)

(* Image row [iy] (and slice [iz]) of the centred image sits at circulant
   row [wrap (iy - h)]; within it, [ix in [0, h)] at [2n - h + ix] and
   [ix in [h, n)] at [ix - h]: exactly the kept set of
   {!Fft.Fftnd.transform_padded}/[transform_cropped] at [g = 2n]. *)
let grid_row ~dims ~n ~n2 iz iy =
  let h = n / 2 in
  let wrap i = Coord.wrap ~g:n2 (i - h) in
  ((if dims = 2 then 0 else wrap iz * n2) + wrap iy) * n2

let multiply (buf : Cvec.t) (spectrum : float array) =
  for i = 0 to Array.length spectrum - 1 do
    let f = Array.unsafe_get spectrum i in
    A1.unsafe_set buf (2 * i) (f *. A1.unsafe_get buf (2 * i));
    A1.unsafe_set buf ((2 * i) + 1) (f *. A1.unsafe_get buf ((2 * i) + 1))
  done

let apply ?weights t x =
  let p = t.plan and dims = t.dims in
  let n = p.Plan.n in
  let n2 = 2 * n and h = n / 2 in
  if dims <> 2 && dims <> 3 then
    invalid_arg "Operator.normal: unsupported dimensionality";
  let len = pow n dims in
  if Cvec.length x <> len then
    invalid_arg "Operator.normal: image size mismatch";
  let spectrum = spectrum_for t weights in
  let buf =
    let b = Atomic.exchange t.pad empty in
    if Cvec.length b = Array.length spectrum then b
    else Cvec.create_uninit (Array.length spectrum)
  in
  Cvec.fill_zero buf;
  iter_rows ~dims ~n (fun iz iy src ->
      let row = grid_row ~dims ~n ~n2 iz iy in
      Cvec.blit_complex ~src:x ~src_pos:src ~dst:buf ~dst_pos:(row + n2 - h)
        ~len:h;
      Cvec.blit_complex ~src:x ~src_pos:(src + h) ~dst:buf ~dst_pos:row
        ~len:(n - h));
  let pool = p.Plan.pool in
  Fft.Fftnd.transform_padded ?pool Fft.Dft.Forward ~dims ~g:n2 ~n buf;
  multiply buf spectrum;
  Fft.Fftnd.transform_cropped ?pool Fft.Dft.Inverse ~dims ~g:n2 ~n buf;
  let out = Cvec.create_uninit len in
  iter_rows ~dims ~n (fun iz iy dst ->
      let row = grid_row ~dims ~n ~n2 iz iy in
      Cvec.blit_complex ~src:buf ~src_pos:(row + n2 - h) ~dst:out ~dst_pos:dst
        ~len:h;
      Cvec.blit_complex ~src:buf ~src_pos:row ~dst:out ~dst_pos:(dst + h)
        ~len:(n - h));
  Atomic.set t.pad buf;
  out

let sample_count t = Sample.length t.coords
let spectrum t = Option.map (fun b -> b.spectrum) (Atomic.get t.state)

let bytes t =
  match Atomic.get t.state with
  | None -> 0
  | Some b -> 24 * Array.length b.spectrum
