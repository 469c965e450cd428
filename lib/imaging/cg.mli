(** Conjugate-gradient solver for Hermitian positive semi-definite systems.

    Solves [T x = b] for complex vectors given only the operator
    application — the inner loop of iterative ("model-based") MRI
    reconstruction, whose rise is exactly why the paper cares about NuFFT
    throughput: "millions of NuFFTs are taken iteratively to reconstruct a
    single volume" (§I). {!solve_normal} solves the normal equations of
    any registered operator; plan-backed operators apply them through
    their Toeplitz embedding, with no gridding inside the solve, for
    short solves on densely sampled sets. *)

type result = {
  solution : Numerics.Cvec.t;
  iterations : int;
  residual_norms : float list;  (** ||r_k|| per iteration, first to last *)
  converged : bool;
}

type buffers = {
  bx : Numerics.Cvec.t;
  br : Numerics.Cvec.t;
  bp : Numerics.Cvec.t;
}
(** The solver's three state vectors (iterate, residual, direction), all
    of the system length — donate a set with {!solve}'s [?buffers] so
    repeated solves reuse one pooled allocation. *)

val make_buffers : int -> buffers
(** Fresh buffer set for an [n]-long system. *)

val solve :
  ?max_iterations:int ->
  ?tolerance:float ->
  ?buffers:buffers ->
  apply:(Numerics.Cvec.t -> Numerics.Cvec.t) ->
  Numerics.Cvec.t ->
  result
(** [solve ~apply b] runs CG from a zero initial guess until
    [||r|| <= tolerance * ||b||] (default 1e-6) or [max_iterations]
    (default 50). [apply] must be Hermitian PSD; the solver does not
    check.

    With [buffers] (lengths must match [b]), the state vectors live in the
    caller's arena instead of fresh allocations; the returned [solution]
    is then a copy, so the arena can be immediately reused. Results are
    bitwise identical either way. *)

val normal_equations_rhs_op :
  ?weights:float array ->
  Nufft.Operator.op ->
  Nufft.Sample.t ->
  Numerics.Cvec.t
(** [A^H W y]: the right-hand side of the normal equations for a sample
    set [y] — one adjoint NuFFT of the weighted samples
    ({!Nufft.Sample.weighted}) through any registered backend (for a
    plan, [Nufft.Operator.of_plan]). Dimension-generic. *)

val solve_normal :
  ?max_iterations:int ->
  ?tolerance:float ->
  ?buffers:buffers ->
  ?weights:float array ->
  Nufft.Operator.op ->
  Numerics.Cvec.t ->
  result
(** [solve_normal ~weights op b] is {!solve} on the normal equations
    [A^H W A x = b] ([b] from {!normal_equations_rhs_op}), the solve the
    reconstruction service runs. For at most 8 iterations on a set with
    at least four samples per unknown ([m >= 4 n^dims]) it applies
    {!normal_map} (the Toeplitz map for plan-backed operators), bitwise
    [solve ~apply:(normal_map ~weights op) b]. Otherwise it runs on
    {!Nufft.Operator.normal_gridded}, whose null space is that of the
    right-hand side, and counts [cg.gridded_solves]: the right-hand
    side's error on the Toeplitz map's (near) null directions, which
    that map does not cancel, grows with each iteration, and was
    measured past the accuracy contract by 16 iterations, or by 8 on
    sparser sets. *)

val normal_map :
  ?weights:float array ->
  Nufft.Operator.op ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t
(** [A^H W A x] — the normal-equations operator, which is
    {!Nufft.Operator.normal}: for a plan-backed operator, two pruned
    [(2n)^dims] FFTs around the operator's cached Toeplitz spectrum
    (built on the first call for these weights, through the operator's
    own compiled plan), no gridding; for a hardware model, one forward
    and one adjoint of its own numerics. {!solve_normal} chooses
    between it and the gridding composition;
    [solve ~apply:(normal_map op)] always runs it. The
    gridding composition is {!Nufft.Operator.normal_gridded}. *)
