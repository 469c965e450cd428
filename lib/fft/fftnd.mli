(** Multi-dimensional FFT by the row-column method.

    Arrays are row-major: a 2D array of [ny] rows and [nx] columns stores
    element [(x, y)] at linear index [y*nx + x]; a 3D array of [nz] slices
    stores [(x, y, z)] at [(z*ny + y)*nx + x]. Any per-dimension length is
    supported (see {!Fft1d}). Transforms are unnormalised. *)

val transform_2d :
  ?pool:Runtime.Pool.t ->
  ?scratch:Numerics.Cvec.t ->
  Dft.direction -> nx:int -> ny:int -> Numerics.Cvec.t -> unit
(** In-place 2D FFT: 1D transforms along every row, then every column.
    Rows transform in place; columns are staged a block of adjacent
    columns at a time through a domain-local scratch
    ({!Simd.copy_lines}) and run through the same 1D kernel. With
    [pool], the blocks of each pass are spread over the pool's domains
    (they write disjoint index sets, so the pass is race-free); the
    result is bit-identical to the serial transform. [scratch] is
    accepted for source compatibility and ignored: the staging buffer is
    domain-local, so no call allocates once it has grown. *)

val transform_3d :
  ?pool:Runtime.Pool.t ->
  ?scratch:Numerics.Cvec.t ->
  Dft.direction -> nx:int -> ny:int -> nz:int -> Numerics.Cvec.t -> unit
(** In-place 3D FFT along x, then y, then z, as {!transform_2d}. *)

(** {2 Pruned transforms of an oversampled grid}

    The NuFFT crops its inverse-transformed [g^dims] grid to [n] points
    per axis and pads its image with zeros before the forward
    transform. Both keep, per axis, the centred set
    [K = [0, n - n/2) ∪ [g - n/2, g)]. *)

val transform_cropped :
  ?pool:Runtime.Pool.t ->
  Dft.direction -> dims:int -> g:int -> n:int -> Numerics.Cvec.t -> unit
(** [transform_cropped dir ~dims ~g ~n v] — {!transform_2d}
    ([dims = 2]) or {!transform_3d} of the [g^dims] grid [v] for a
    caller that reads the result only at points whose every coordinate
    lies in [K]: after an axis is transformed, later passes skip the
    lines at coordinates outside [K] on it. Every point with all
    coordinates in [K] equals the full transform's bit for bit; other
    points hold partial results. At [n = g/2] this skips 25% of the
    line transforms in 2D and 5/12 in 3D. *)

val transform_padded :
  ?pool:Runtime.Pool.t ->
  Dft.direction -> dims:int -> g:int -> n:int -> Numerics.Cvec.t -> unit
(** [transform_padded dir ~dims ~g ~n v] — the full transform of a grid
    that is +0.0 at every point with a coordinate outside [K]: before an
    axis is transformed, earlier passes skip the all-+0.0 lines at
    coordinates outside [K] on it, and those lines stay +0.0. For a
    power-of-two [g] the result equals {!transform_2d}/{!transform_3d}'s
    bit for bit (an all-+0.0 radix-2 line transforms to +0.0); for
    other [g] it does too except, possibly, for the sign of exact
    zeros. Same savings as {!transform_cropped}. *)

val transformed_2d :
  ?pool:Runtime.Pool.t ->
  Dft.direction -> nx:int -> ny:int -> Numerics.Cvec.t -> Numerics.Cvec.t

val fftshift_2d : nx:int -> ny:int -> Numerics.Cvec.t -> Numerics.Cvec.t
(** Swap quadrants so that index 0 moves to the centre [(nx/2, ny/2)] —
    the usual display/centred-spectrum reordering. Self-inverse for even
    dimensions. *)

val flop_estimate_2d : nx:int -> ny:int -> float
(** Row-column flop count, [5 nx ny log2 (nx ny)]. *)
