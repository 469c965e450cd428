module Cvec = Numerics.Cvec
module C = Numerics.Complexd
module A1 = Bigarray.Array1

type result = {
  solution : Cvec.t;
  iterations : int;
  residual_norms : float list;
  converged : bool;
}

let c_iterations = Telemetry.Counter.make "cg.iterations"

type buffers = { bx : Cvec.t; br : Cvec.t; bp : Cvec.t }

let make_buffers n = { bx = Cvec.create n; br = Cvec.create n; bp = Cvec.create n }

let solve ?(max_iterations = 50) ?(tolerance = 1e-6) ?buffers ~apply b =
  let sp_solve = Telemetry.span_begin ~cat:"cg" "cg.solve" in
  let n = Cvec.length b in
  (* With caller-donated [buffers] the solver's own state vectors come
     from the pooled arena: zero/overwrite them instead of allocating, and
     hand back a fresh copy of the solution so the arena can be reused. *)
  let borrowed =
    match buffers with
    | Some bufs ->
        if
          Cvec.length bufs.bx <> n || Cvec.length bufs.br <> n
          || Cvec.length bufs.bp <> n
        then invalid_arg "Cg.solve: buffers length mismatch";
        true
    | None -> false
  in
  let x, r, p =
    match buffers with
    | Some { bx; br; bp } ->
        Cvec.fill_zero bx;
        Cvec.blit b br;
        Cvec.blit b bp;
        (bx, br, bp)
    | None -> (Cvec.create n, Cvec.copy b, Cvec.copy b)
  in
  let rr = ref (Cvec.norm2 r) in
  let target = tolerance *. sqrt (Cvec.norm2 b) in
  let history = ref [ sqrt !rr ] in
  let k = ref 0 in
  let converged = ref (sqrt !rr <= target) in
  while (not !converged) && !k < max_iterations do
    let sp_iter = Telemetry.span_begin ~cat:"cg" "cg.iter" in
    Telemetry.Counter.incr c_iterations;
    let ap = apply p in
    let p_ap = (Cvec.dot p ap).C.re in
    if p_ap <= 0.0 then
      (* Numerically singular direction: stop (PSD operator with null
         space, e.g. heavy undersampling). *)
      k := max_iterations
    else begin
      let alpha = !rr /. p_ap in
      Cvec.axpy_inplace alpha ~x:p x;
      Cvec.axpy_inplace (-.alpha) ~x:ap r;
      let rr' = Cvec.norm2 r in
      history := sqrt rr' :: !history;
      if sqrt rr' <= target then converged := true
      else begin
        let beta = rr' /. !rr in
        Cvec.xpay_inplace beta ~x:r p
      end;
      rr := rr';
      incr k
    end;
    Telemetry.span_end sp_iter
  done;
  Telemetry.span_end sp_solve;
  { solution = (if borrowed then Cvec.copy x else x);
    iterations = !k;
    residual_norms = List.rev !history;
    converged = !converged }

(* Operator-interface helpers: backend- and dimension-agnostic. *)

let weighted ?weights name samples =
  match weights with
  | None -> samples
  | Some w ->
      let m = Nufft.Sample.length samples in
      if Array.length w <> m then
        invalid_arg (name ^ ": weights length mismatch");
      (* The products of [C.scale] (w*re, w*im), written without a
         complex record per sample. *)
      let v = samples.Nufft.Sample.values in
      let out = Cvec.create m in
      for j = 0 to m - 1 do
        let s = Array.unsafe_get w j in
        A1.unsafe_set out (2 * j) (s *. A1.unsafe_get v (2 * j));
        A1.unsafe_set out ((2 * j) + 1) (s *. A1.unsafe_get v ((2 * j) + 1))
      done;
      Nufft.Sample.with_values samples out

let normal_equations_rhs_op ?weights op samples =
  Nufft.Operator.apply_adjoint op
    (weighted ?weights "Cg.normal_equations_rhs_op" samples)

let normal_map ?weights op x =
  let s = Nufft.Operator.apply_forward op x in
  Nufft.Operator.apply_adjoint op (weighted ?weights "Cg.normal_map" s)
