(** Dense complex vectors stored as interleaved [Bigarray.Array1] float64
    buffers.

    Layout: element [k] occupies indices [2k] (real) and [2k+1] (imaginary)
    of a C-layout float64 bigarray. The data lives outside the OCaml heap in
    one flat malloc'd block — contiguous, cache-friendly, never moved or
    scanned by the GC, and accessible through bounds-check-free primitives
    that compile to direct loads/stores. This is the storage layout the
    paper's gridding kernels stream over; all gridding engines, the FFT and
    the simulators exchange data in this format.

    The [unsafe_*] accessors are the hot-path interface: no bounds check, no
    boxed [Complexd.t], no allocation. The boxed {!get}/{!set} interface
    remains for construction, tests and cold paths. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Interleaved storage; dimension is always [2 * length]. *)

val create : int -> t
(** [create n] is a zeroed vector of [n] complex elements. *)

val create_uninit : int -> t
(** [create_uninit n] is a vector of [n] complex elements with arbitrary
    contents: it skips {!create}'s zero fill. Use it only for an output
    the caller overwrites completely before anything reads it. *)

val length : t -> int
(** Number of complex elements. *)

(** {2 Hot-path primitives (no bounds check, no allocation)} *)

val unsafe_get_re : t -> int -> float
val unsafe_get_im : t -> int -> float

val unsafe_set_parts : t -> int -> float -> float -> unit
(** [unsafe_set_parts v k re im] stores [re + i*im] at element [k]. *)

val unsafe_accumulate_parts : t -> int -> float -> float -> unit
(** [unsafe_accumulate_parts v k re im] adds [re + i*im] to element [k] —
    the fundamental gridding update, as two raw float read-modify-writes. *)

(** {2 Checked scalar access} *)

val get : t -> int -> Complexd.t
val set : t -> int -> Complexd.t -> unit

val get_re : t -> int -> float
val get_im : t -> int -> float
val set_parts : t -> int -> float -> float -> unit

val accumulate_parts : t -> int -> float -> float -> unit
(** Bounds-checked variant of {!unsafe_accumulate_parts}. *)

val accumulate : t -> int -> Complexd.t -> unit
(** [accumulate v k c] adds [c] to element [k] in place. *)

(** {2 Bulk operations} *)

val fill_zero : t -> unit
val copy : t -> t
val blit : t -> t -> unit

val blit_complex :
  src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Copy [len] consecutive complex elements; a raw [memcpy] underneath
    (used by the FFT's contiguous line gather/scatter). *)

val of_complex_array : Complexd.t array -> t
val to_complex_array : t -> Complexd.t array

val init : int -> (int -> Complexd.t) -> t
val map : (Complexd.t -> Complexd.t) -> t -> t
val iteri : (int -> Complexd.t -> unit) -> t -> unit
val fold : ('a -> Complexd.t -> 'a) -> 'a -> t -> 'a

val scale_inplace : float -> t -> unit
val add_inplace : t -> t -> unit
(** [add_inplace dst src] adds [src] into [dst] element-wise. *)

val axpy_inplace : float -> x:t -> t -> unit
(** [axpy_inplace alpha ~x y] is [y <- y + alpha * x] over the raw floats —
    the CG update, allocation-free. *)

val xpay_inplace : float -> x:t -> t -> unit
(** [xpay_inplace alpha ~x y] is [y <- x + alpha * y] (the CG direction
    update). *)

val dot : t -> t -> Complexd.t
(** Hermitian inner product [sum conj(a_k) * b_k]. *)

val norm2 : t -> float
(** Sum of squared magnitudes. *)

val max_abs_diff : t -> t -> float
(** Largest component-wise absolute difference (over both parts). *)

val nrmsd : reference:t -> t -> float
(** Normalised root-mean-square difference, as used for the paper's image
    quality evaluation (Fig 9):
    [sqrt (sum |x_k - r_k|^2 / sum |r_k|^2)]. Raises [Invalid_argument] on
    length mismatch or a zero reference. *)

val pp : Format.formatter -> t -> unit
(** Prints at most the first 8 elements, for debugging. *)
