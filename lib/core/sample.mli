(** Non-uniform sample sets, dimension-generic.

    Two coordinate domains are used in this library:

    - {e angular frequencies} omega in [[-pi, pi)] per dimension — the
      natural domain for MRI k-space trajectories and the NuDFT definition;
    - {e grid units} u in [[0, G)] per dimension, where [G = sigma * N] is
      the oversampled grid size — the domain the gridding engines and the
      JIGSAW hardware consume ([u = omega * G / 2pi] wrapped onto the torus,
      paper Fig 2).

    A sample set couples one grid-unit coordinate array per dimension
    (packed as [coords.(axis).(sample)]) with a complex value vector. The
    number of axes is the dimensionality: the same representation carries
    the 2D and 3D problems of the paper (and 1D test cases), so every
    consumer that dispatches on {!dims} — plans, operators, reconstruction
    — is dimension-agnostic. *)

type t = {
  coords : float array array;
      (** [coords.(d).(j)] — grid-unit coordinate of sample [j] along axis
          [d], each in [0, g); axis order x, y, z *)
  values : Numerics.Cvec.t;  (** one complex value per sample *)
  g : int;  (** the oversampled grid size the coordinates refer to *)
}

type t2 = t
(** Historical alias from the 2D-only days; [t] is dimension-generic. *)

val dims : t -> int
(** Number of coordinate axes (1, 2 or 3). *)

val length : t -> int
(** Number of samples. *)

val coord : t -> int -> float array
(** [coord s d] — the axis-[d] coordinate array. Raises on a missing
    axis. *)

val gx : t -> float array
val gy : t -> float array

val gz : t -> float array
(** Named axis accessors; [gy]/[gz] raise [Invalid_argument] when the
    sample set has fewer dimensions. *)

val omega_to_grid : g:int -> float -> float
(** Map one angular frequency in [[-pi, pi)] (any real is accepted and
    wrapped) to grid units in [[0, g)]. *)

val make : g:int -> coords:float array array -> values:Numerics.Cvec.t -> t
(** Build directly from grid-unit coordinate arrays, one per axis
    (validated to lie in [0, g)). *)

val of_omega :
  g:int -> omega:float array array -> values:Numerics.Cvec.t -> t
(** Build from k-space angular frequencies, one array per axis. Raises
    [Invalid_argument] on length mismatch, and on a NaN or infinite
    omega (the message names the sample index and axis). *)

val of_omega_2d :
  g:int ->
  omega_x:float array ->
  omega_y:float array ->
  values:Numerics.Cvec.t ->
  t
(** 2D convenience wrapper over {!of_omega}; same validation. *)

val of_omega_3d :
  g:int ->
  omega_x:float array ->
  omega_y:float array ->
  omega_z:float array ->
  values:Numerics.Cvec.t ->
  t
(** 3D convenience wrapper over {!of_omega}; same validation. *)

val make_2d :
  g:int -> gx:float array -> gy:float array -> values:Numerics.Cvec.t -> t
(** Build directly from grid-unit coordinates (validated to lie in
    [0, g)). *)

val make_3d :
  g:int ->
  gx:float array ->
  gy:float array ->
  gz:float array ->
  values:Numerics.Cvec.t ->
  t

val random : ?seed:int -> ?dims:int -> g:int -> int -> t
(** [random ~dims ~g m] is [m] samples with uniformly random coordinates
    in [0, g)^dims and values in the complex unit square — the
    "effectively random order" worst case the paper emphasises. *)

val random_2d : ?seed:int -> g:int -> int -> t
val random_3d : ?seed:int -> g:int -> int -> t

val with_values : t -> Numerics.Cvec.t -> t
(** Same coordinates, new value vector (length-checked). *)

val all_finite : float array -> bool
(** [true] when no element is NaN or infinite: the wire and service
    check of coordinate axes and density weights. *)

val weight_into :
  float array -> Numerics.Cvec.t -> Numerics.Cvec.t -> unit
(** [weight_into w values out] writes [w.(j) * values.(j)] to [out.(j)],
    as the two products [w*re] and [w*im] (the arithmetic of
    {!Numerics.Complexd.scale}, without a complex record per sample).
    All three lengths must agree; raises [Invalid_argument] otherwise. *)

val weighted : ?weights:float array -> t -> t
(** [weighted ~weights s] — the same coordinates carrying the
    density-weighted values ({!weight_into} into a fresh vector); [s]
    itself without [weights]. The one weighting step of the normal
    equations' right-hand side [A^H W y] and of the gridding composition
    [A^H W A x]. *)

val validate : t -> unit
(** Check all coordinates lie in [0, g); raises [Invalid_argument]. *)
