module Cvec = Numerics.Cvec
module C = Numerics.Complexd

type result = {
  solution : Cvec.t;
  iterations : int;
  residual_norms : float list;
  converged : bool;
}

let c_iterations = Telemetry.Counter.make "cg.iterations"
let c_gridded = Telemetry.Counter.make "cg.gridded_solves"

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

let normal_equations_rhs_op ?weights op samples =
  Nufft.Operator.apply_adjoint op (Nufft.Sample.weighted ?weights samples)

let normal_map ?weights op x = Nufft.Operator.normal ?weights op x

(* The gridding composition and its right-hand side [b = A^H W y] share
   the factor [A], so [b] has no component on the composition's null
   space. The Toeplitz map does not share it: [b] carries the transform's
   error onto directions where the map is (near) singular, and CG's
   iterate carries that with gain [q(0)] (the sum of its inverse Ritz
   values), which grows with every iteration. Against CG run end to end
   on the exact NuDFT, the Toeplitz map stayed within the accuracy
   contract for solves of up to 8 iterations on sets with at least four
   samples per unknown, and left it by 16 iterations, or by 8 on sparser
   sets (random sets at one sample per unknown, radial at 1.3); every
   other solve runs on the composition. *)
let toeplitz_max_iterations = 8
let toeplitz_min_samples_per_unknown = 4

let toeplitz_serves op ~iterations =
  match Nufft.Operator.normal_of op with
  | Some t ->
      iterations <= toeplitz_max_iterations
      && Nufft.Toeplitz.sample_count t
         >= toeplitz_min_samples_per_unknown * Nufft.Operator.image_length op
  | None -> true

let solve_normal ?(max_iterations = 50) ?tolerance ?buffers ?weights op b =
  let apply =
    if toeplitz_serves op ~iterations:max_iterations then normal_map ?weights op
    else begin
      Telemetry.Counter.incr c_gridded;
      Nufft.Operator.normal_gridded ?weights op
    end
  in
  solve ~max_iterations ?tolerance ?buffers ~apply b
