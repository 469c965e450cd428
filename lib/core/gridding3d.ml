module Cvec = Numerics.Cvec
module Wt = Numerics.Weight_table

let add_stats = Gridding_serial.add_grid_stats

let check name ~m ~gy ~gz values =
  if Array.length gy <> m || Array.length gz <> m || Cvec.length values <> m
  then invalid_arg (name ^ ": coords/values length mismatch")

(* Hot loops operate on raw re/im floats with manually enumerated windows;
   stats totals for the input-driven 3D schedule are closed-form in [m] and
   [w] and merged once per call (the slice schedule's data-dependent z-hit
   counts are accumulated in local ints). Accessors and LUT arithmetic are
   same-module [@inline] helpers; see {!Gridding_serial} for the [-opaque]
   rationale. *)

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

let grid_3d ?stats ~table ~g ~gx ~gy ~gz values =
  let sp = Gridding_stats.grid_span "grid.3d-serial" in
  let w = Wt.width table in
  let m = Array.length gx in
  check "Gridding3d.grid_3d" ~m ~gy ~gz values;
  let tbl = Wt.data table and lf = float_of_int (Wt.oversampling table) in
  let tlen = Array.length tbl in
  let out = Cvec.create (g * g * g) in
  for j = 0 to m - 1 do
    let vr = get_re values j and vi = get_im values j in
    let uz = Array.unsafe_get gz j
    and uy = Array.unsafe_get gy j
    and ux = Array.unsafe_get gx j in
    let sz = window_start w uz
    and sy = window_start w uy
    and sx = window_start w ux in
    for iz = 0 to w - 1 do
      let kzu = sz + iz in
      let kz = wrap g kzu in
      let wz = lut tbl tlen lf (float_of_int kzu -. uz) in
      for iy = 0 to w - 1 do
        let kyu = sy + iy in
        let ky = wrap g kyu in
        let wyz = wz *. lut tbl tlen lf (float_of_int kyu -. uy) in
        let plane = ((kz * g) + ky) * g in
        for ix = 0 to w - 1 do
          let kxu = sx + ix in
          let kx = wrap g kxu in
          let weight = wyz *. lut tbl tlen lf (float_of_int kxu -. ux) in
          acc_parts out (plane + kx) (weight *. vr) (weight *. vi)
        done
      done
    done
  done;
  add_stats stats ~samples:m ~checks:0
    ~evals:(3 * m * w * w * w)
    ~accums:(m * w * w * w);
  Gridding_stats.end_span sp;
  out

(* One pass over the whole (unsorted) stream for slice [z], like the JIGSAW
   3D-Slice schedule: the z select stage admits only samples whose window
   covers slice z. Writes touch slice [z] of [out] exclusively, so distinct
   slices can be processed by distinct domains with no interaction. *)
let spread_slice ?stats ~table ~w ~g ~gx ~gy ~gz ~m values out z =
  let tbl = Wt.data table and lf = float_of_int (Wt.oversampling table) in
  let tlen = Array.length tbl in
  let hits = ref 0 in
  for j = 0 to m - 1 do
    (* Does the sample's z window cover (possibly via wrap) slice z? *)
    let uz = Array.unsafe_get gz j in
    let start = window_start w uz in
    let jj =
      let r = (z - start) mod g in
      if r < 0 then r + g else r
    in
    if jj < w then begin
      let dz = float_of_int (start + jj) -. uz in
      let wz = lut tbl tlen lf dz in
      let vr = wz *. get_re values j and vi = wz *. get_im values j in
      let uy = Array.unsafe_get gy j and ux = Array.unsafe_get gx j in
      let sy = window_start w uy and sx = window_start w ux in
      for iy = 0 to w - 1 do
        let kyu = sy + iy in
        let ky = wrap g kyu in
        let wy = lut tbl tlen lf (float_of_int kyu -. uy) in
        let row = ((z * g) + ky) * g in
        for ix = 0 to w - 1 do
          let kxu = sx + ix in
          let kx = wrap g kxu in
          let weight = wy *. lut tbl tlen lf (float_of_int kxu -. ux) in
          incr hits;
          acc_parts out (row + kx) (weight *. vr) (weight *. vi)
        done
      done
    end
  done;
  add_stats stats ~samples:m ~checks:m ~evals:(3 * !hits) ~accums:!hits

let grid_3d_sliced ?stats ~table ~g ~gx ~gy ~gz values =
  let sp = Gridding_stats.grid_span "grid.3d-sliced" in
  let w = Wt.width table in
  let m = Array.length gx in
  check "Gridding3d.grid_3d_sliced" ~m ~gy ~gz values;
  let out = Cvec.create (g * g * g) in
  for z = 0 to g - 1 do
    spread_slice ?stats ~table ~w ~g ~gx ~gy ~gz ~m values out z
  done;
  Gridding_stats.end_span sp;
  out

let grid_3d_parallel ?stats ?pool ?domains ~table ~g ~gx ~gy ~gz values =
  let sp = Gridding_stats.grid_span "grid.3d-parallel" in
  let w = Wt.width table in
  let m = Array.length gx in
  check "Gridding3d.grid_3d_parallel" ~m ~gy ~gz values;
  let out = Cvec.create (g * g * g) in
  let stats_mutex = Mutex.create () in
  let process_slices ~lo ~hi =
    let local =
      match stats with None -> None | Some _ -> Some (Gridding_stats.create ())
    in
    for z = lo to hi - 1 do
      spread_slice ?stats:local ~table ~w ~g ~gx ~gy ~gz ~m values out z
    done;
    match (stats, local) with
    | Some acc, Some l ->
        Mutex.lock stats_mutex;
        Gridding_stats.add acc l;
        Mutex.unlock stats_mutex
    | _ -> ()
  in
  Gridding_slice.with_pool ~name:"Gridding3d.grid_3d_parallel" ?pool ?domains
    (fun p ->
      (* Each z-slice scans all m samples; coarsen so small problems do
         not pay g per-slice dispatches. *)
      let chunk = Runtime.Pool.adaptive_chunk p ~items:g ~work_per_item:m in
      Runtime.Pool.parallel_for_ranges ~chunk p ~start:0 ~stop:g
        process_slices);
  Gridding_stats.end_span sp;
  out

let interp_3d ?stats ~table ~g ~gx ~gy ~gz grid =
  let sp = Gridding_stats.grid_span "grid.interp-3d" in
  let w = Wt.width table in
  let m = Array.length gx in
  if Array.length gy <> m || Array.length gz <> m then
    invalid_arg "Gridding3d.interp_3d: coords length mismatch";
  if Cvec.length grid <> g * g * g then
    invalid_arg "Gridding3d.interp_3d: grid size mismatch";
  let tbl = Wt.data table and lf = float_of_int (Wt.oversampling table) in
  let tlen = Array.length tbl in
  let out = Cvec.create m in
  (* One sample's window in the {!Gridding_serial.gather_sample} layout. *)
  let off = Array.make (3 * w) 0 and wts = Array.create_float (3 * w) in
  let r = Array.create_float 2 in
  for j = 0 to m - 1 do
    let ux = Array.unsafe_get gx j
    and uy = Array.unsafe_get gy j
    and uz = Array.unsafe_get gz j in
    let sx = window_start w ux
    and sy = window_start w uy
    and sz = window_start w uz in
    for i = 0 to w - 1 do
      let kxu = sx + i and kyu = sy + i and kzu = sz + i in
      Array.unsafe_set off i (wrap g kxu);
      Array.unsafe_set wts i (lut tbl tlen lf (float_of_int kxu -. ux));
      Array.unsafe_set off (w + i) (wrap g kyu * g);
      Array.unsafe_set wts (w + i) (lut tbl tlen lf (float_of_int kyu -. uy));
      Array.unsafe_set off ((2 * w) + i) (wrap g kzu * g * g);
      Array.unsafe_set wts ((2 * w) + i)
        (lut tbl tlen lf (float_of_int kzu -. uz))
    done;
    Gridding_serial.gather_sample grid off wts ~dims:3 ~w ~base:0 r;
    set_parts out j (Array.unsafe_get r 0) (Array.unsafe_get r 1)
  done;
  add_stats stats ~samples:m ~checks:0 ~evals:(3 * m * w * w * w) ~accums:0;
  Gridding_stats.end_span sp;
  out
