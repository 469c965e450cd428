(** Apodization (amplitude weighting) factors for the NuFFT (paper §II-B).

    Spreading samples with window [psi] multiplies the image domain by
    [psi_hat] (the window's continuous Fourier transform); the adjoint NuFFT
    therefore divides the cropped image by these factors
    ("de-apodization"), and the forward NuFFT pre-divides the image before
    its FFT ("pre-apodization"). Factors are separable across dimensions, so
    a single per-dimension vector suffices. *)

val factors :
  kernel:Numerics.Window.t -> width:int -> n:int -> g:int -> float array
(** [factors ~kernel ~width ~n ~g] is the length-[n] vector
    [psi_hat ((i - n/2) / g)] for [i in 0..n-1]: the image-domain gain at
    each centred position for an oversampled grid of [g] points. All values
    are checked to be bounded away from zero (the oversampling margin
    guarantees this for sane kernels); raises [Failure] otherwise. *)

type shared = private {
  kernel : Numerics.Window.t;
  width : int;
  n : int;
  g : int;
  values : float array;  (** [factors ~kernel ~width ~n ~g] *)
}

val shared :
  kernel:Numerics.Window.t -> width:int -> n:int -> g:int -> shared
(** {!factors} through a process-wide store keyed on
    [(kernel, width, n, g)]: equal geometries get one physically equal
    record. The store holds its records weakly ({!Numerics.Weak_store}),
    so the caller must keep the record — not just its [values] — for as
    long as it wants the vector shared. Safe to call from any domain;
    raises like {!factors}. *)

val scale_row_into :
  dst:Numerics.Cvec.t ->
  dst_off:int ->
  src:Numerics.Cvec.t ->
  src_off:int ->
  f:float array ->
  f_off:int ->
  len:int ->
  fy:float ->
  fz:float ->
  unit
(** [scale_row_into ~dst ~dst_off ~src ~src_off ~f ~f_off ~len ~fy ~fz]
    sets [dst.(dst_off+i) <- src.(src_off+i) / ((f.(f_off+i) *. fy) *. fz)]
    for [i] in [[0, len)) — the row primitive every deapodization and
    pre-apodization stage is built from. 2D callers pass [fz = 1.0]
    (exact multiply, so the historical two-factor rounding is preserved
    bit for bit). Dispatches to the {!Simd} kernel when SIMD is active;
    results agree with the OCaml loop within 4 ULP (bitwise in practice).
    [dst] and [src] may alias when the ranges coincide. Raises
    [Invalid_argument] on out-of-range spans. *)

val deapodize_2d :
  factors:float array -> n:int -> Numerics.Cvec.t -> Numerics.Cvec.t
(** Divide an [n x n] image by the separable factor product
    [factors.(ix) * factors.(iy)] (out of place). *)

val apodize_2d :
  factors:float array -> n:int -> Numerics.Cvec.t -> Numerics.Cvec.t
(** The same division — pre-apodization of the forward NuFFT is also a
    division by [psi_hat] (the two operations coincide; the name reflects
    the pipeline stage). *)
