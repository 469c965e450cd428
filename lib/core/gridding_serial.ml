module Cvec = Numerics.Cvec
module C = Numerics.Complexd
module F32 = Numerics.Float32
module Wt = Numerics.Weight_table

type precision = [ `Double | `Single ]

(* Hot loops below are written against raw re/im floats and deterministic
   work counters: the per-sample loop bodies allocate nothing (no
   [Complexd.t], no closures, no [option]); stats — whose totals per call
   are a closed-form function of [m] and [w] for the input-driven schedule —
   are added once after the loop.

   The helpers are deliberately local: dune's dev profile compiles with
   [-opaque] (no cross-module inlining), so per-element calls into Cvec /
   Coord / Weight_table would box a float each. Bigarray and float
   externals always compile inline, and same-module [@inline] functions are
   inlined in every profile. The arithmetic is identical to the canonical
   [Coord.window_start] / [Coord.wrap] / [Weight_table.lookup], which the
   differential tests pin down. *)

module A1 = Bigarray.Array1

let[@inline] get_re (v : Cvec.t) k = A1.unsafe_get v (2 * k)
let[@inline] get_im (v : Cvec.t) k = A1.unsafe_get v ((2 * k) + 1)

let[@inline] set_parts (v : Cvec.t) k re im =
  let j = 2 * k in
  A1.unsafe_set v j re;
  A1.unsafe_set v (j + 1) im

let[@inline] acc_parts (v : Cvec.t) k re im =
  let j = 2 * k in
  A1.unsafe_set v j (A1.unsafe_get v j +. re);
  A1.unsafe_set v (j + 1) (A1.unsafe_get v (j + 1) +. im)

let[@inline] window_start w u =
  int_of_float (Float.floor (u +. (float_of_int w /. 2.0))) - w + 1

let[@inline] wrap g k =
  let r = k mod g in
  if r < 0 then r + g else r

let[@inline] lut tbl tlen lf d =
  let a = int_of_float (Float.round (Float.abs d *. lf)) in
  if a >= tlen then 0.0 else Array.unsafe_get tbl a

let add_grid_stats stats ~samples ~checks ~evals ~accums =
  Gridding_stats.record stats ~samples ~checks ~evals ~accums ()

let grid_1d ?stats ?(precision = `Double) ~table ~g ~coords values =
  let w = Wt.width table in
  let m = Array.length coords in
  if Cvec.length values <> m then
    invalid_arg "Gridding_serial.grid_1d: coords/values length mismatch";
  let out = Cvec.create g in
  (match precision with
  | `Double ->
      let tbl = Wt.data table and lf = float_of_int (Wt.oversampling table) in
      let tlen = Array.length tbl in
      for j = 0 to m - 1 do
        let vr = get_re values j and vi = get_im values j in
        let u = Array.unsafe_get coords j in
        let start = window_start w u in
        for i = 0 to w - 1 do
          let ku = start + i in
          let k = wrap g ku in
          let weight = lut tbl tlen lf (float_of_int ku -. u) in
          acc_parts out k (weight *. vr) (weight *. vi)
        done
      done
  | `Single ->
      for j = 0 to m - 1 do
        let v = Cvec.get values j in
        Coord.iter_window ~w ~g coords.(j) (fun ~k ~dist ->
            let weight = Wt.lookup table dist in
            let c = F32.cmul (F32.cround v) (C.of_float (F32.round weight)) in
            Cvec.set out k (F32.cadd (Cvec.get out k) c))
      done);
  add_grid_stats stats ~samples:m ~checks:0 ~evals:(m * w) ~accums:(m * w);
  out

let grid_2d ?stats ?(precision = `Double) ~table ~g ~gx ~gy values =
  let w = Wt.width table in
  let m = Array.length gx in
  if Array.length gy <> m || Cvec.length values <> m then
    invalid_arg "Gridding_serial.grid_2d: coords/values length mismatch";
  let out = Cvec.create (g * g) in
  (match precision with
  | `Double ->
      let tbl = Wt.data table and lf = float_of_int (Wt.oversampling table) in
      let tlen = Array.length tbl in
      for j = 0 to m - 1 do
        let vr = get_re values j and vi = get_im values j in
        let uy = Array.unsafe_get gy j and ux = Array.unsafe_get gx j in
        let sy = window_start w uy and sx = window_start w ux in
        for iy = 0 to w - 1 do
          let kyu = sy + iy in
          let ky = wrap g kyu in
          let wy = lut tbl tlen lf (float_of_int kyu -. uy) in
          let row = ky * g in
          for ix = 0 to w - 1 do
            let kxu = sx + ix in
            let kx = wrap g kxu in
            let wx = lut tbl tlen lf (float_of_int kxu -. ux) in
            let weight = wx *. wy in
            acc_parts out (row + kx) (weight *. vr) (weight *. vi)
          done
        done
      done
  | `Single ->
      for j = 0 to m - 1 do
        let v = Cvec.get values j in
        Coord.iter_window ~w ~g gy.(j) (fun ~k:ky ~dist:dy ->
            let wy = Wt.lookup table dy in
            Coord.iter_window ~w ~g gx.(j) (fun ~k:kx ~dist:dx ->
                let wx = Wt.lookup table dx in
                let idx = (ky * g) + kx in
                let weight = F32.mul (F32.round wx) (F32.round wy) in
                let c = F32.cmul (F32.cround v) (C.of_float weight) in
                Cvec.set out idx (F32.cadd (Cvec.get out idx) c)))
      done);
  add_grid_stats stats ~samples:m ~checks:0
    ~evals:((m * w) + (m * w * w))
    ~accums:(m * w * w);
  out

(* The forward (gather) accumulation order, shared by every
   interpolation loop here, {!Gridding3d.interp_3d}, the OCaml replay of
   {!Sample_plan.gather} and the C kernels behind {!Simd.gather}. A
   sample's window is laid out as in {!Sample_plan}: [w] x cells and
   weights at [base] of [off] and [wts], then [w] y rows (times [g]),
   then in 3D [w] z planes (times [g^2]). Each window row (z outer, then
   y) with taps [p_i = wx_i * grid.(plane + row + kx_i)] (real times
   complex) sums row-factored: [(p_0 + p_2 + p_4 + ...) + (p_1 + p_3 +
   p_5 + ...)], each bracket left to right from [-0.0] (the additive
   identity, so an empty bracket leaves the other one unchanged), then
   [+ p_(w-1)] when [w] is odd. The row sum is scaled by the row weight
   [wz *. wy] ([1.0 *. wy = wy] in 2D) and added to the accumulator,
   which starts at [0.0]. The result lands in [r.(0)] (re) and [r.(1)]
   (im), so the call boxes nothing even where it is not inlined. *)
let gather_sample grid off wts ~dims ~w ~base (r : float array) =
  let yb = base + w in
  let three_d = dims = 3 in
  let acc_re = ref 0.0 and acc_im = ref 0.0 in
  for iz = yb + w to yb + w + (if three_d then w else 1) - 1 do
    let plane = if three_d then Array.unsafe_get off iz else 0 in
    let wz = if three_d then Array.unsafe_get wts iz else 1.0 in
    for iy = yb to yb + w - 1 do
      let row = plane + Array.unsafe_get off iy in
      let er = ref (-0.0) and ei = ref (-0.0) in
      let odr = ref (-0.0) and odi = ref (-0.0) in
      for p = 0 to (w / 2) - 1 do
        let i0 = base + (2 * p) in
        let k0 = row + Array.unsafe_get off i0
        and w0 = Array.unsafe_get wts i0 in
        let k1 = row + Array.unsafe_get off (i0 + 1)
        and w1 = Array.unsafe_get wts (i0 + 1) in
        er := !er +. (w0 *. get_re grid k0);
        ei := !ei +. (w0 *. get_im grid k0);
        odr := !odr +. (w1 *. get_re grid k1);
        odi := !odi +. (w1 *. get_im grid k1)
      done;
      let rr = ref (!er +. !odr) and ri = ref (!ei +. !odi) in
      if w land 1 = 1 then begin
        let i = base + w - 1 in
        let k = row + Array.unsafe_get off i and wl = Array.unsafe_get wts i in
        rr := !rr +. (wl *. get_re grid k);
        ri := !ri +. (wl *. get_im grid k)
      end;
      let wr = wz *. Array.unsafe_get wts iy in
      acc_re := !acc_re +. (wr *. !rr);
      acc_im := !acc_im +. (wr *. !ri)
    done
  done;
  Array.unsafe_set r 0 !acc_re;
  Array.unsafe_set r 1 !acc_im

let interp_2d ?stats ~table ~g ~gx ~gy grid =
  let w = Wt.width table in
  let m = Array.length gx in
  if Array.length gy <> m then
    invalid_arg "Gridding_serial.interp_2d: coords length mismatch";
  if Cvec.length grid <> g * g then
    invalid_arg "Gridding_serial.interp_2d: grid size mismatch";
  let tbl = Wt.data table and lf = float_of_int (Wt.oversampling table) in
  let tlen = Array.length tbl in
  let out = Cvec.create m in
  (* One sample's window in the {!gather_sample} layout. *)
  let off = Array.make (2 * w) 0 and wts = Array.create_float (2 * w) in
  let r = Array.create_float 2 in
  for j = 0 to m - 1 do
    let ux = Array.unsafe_get gx j and uy = Array.unsafe_get gy j in
    let sx = window_start w ux and sy = window_start w uy in
    for i = 0 to w - 1 do
      let kxu = sx + i and kyu = sy + i in
      Array.unsafe_set off i (wrap g kxu);
      Array.unsafe_set wts i (lut tbl tlen lf (float_of_int kxu -. ux));
      Array.unsafe_set off (w + i) (wrap g kyu * g);
      Array.unsafe_set wts (w + i) (lut tbl tlen lf (float_of_int kyu -. uy))
    done;
    gather_sample grid off wts ~dims:2 ~w ~base:0 r;
    set_parts out j (Array.unsafe_get r 0) (Array.unsafe_get r 1)
  done;
  add_grid_stats stats ~samples:m ~checks:0 ~evals:(2 * m * w * w) ~accums:0;
  out
