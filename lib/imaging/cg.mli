(** Conjugate-gradient solver for Hermitian positive semi-definite systems.

    Solves [T x = b] for complex vectors given only the operator
    application — the inner loop of iterative ("model-based") MRI
    reconstruction, whose rise is exactly why the paper cares about NuFFT
    throughput: "millions of NuFFTs are taken iteratively to reconstruct a
    single volume" (§I). Use with {!Toeplitz.apply} for a gridding-free
    normal operator, or with an explicit forward/adjoint NuFFT pair. *)

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
    set [y] — one (density-weighted) adjoint NuFFT through any registered
    backend (for a plan, [Nufft.Operator.of_plan]). Dimension-generic. *)

val normal_map :
  ?weights:float array ->
  Nufft.Operator.op ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t
(** [A^H W A x] — the normal-equations operator built from one forward
    and one adjoint application of [op]; pass
    [~apply:(Cg.normal_map op)] to {!solve} for iterative reconstruction
    through any backend and dimensionality (the gridding-based
    alternative to {!Toeplitz.apply}). *)
