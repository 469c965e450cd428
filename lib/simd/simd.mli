(** Runtime-dispatched SIMD kernels for the hot flat loops.

    One C translation unit carries three implementations of each kernel —
    portable scalar C, AVX2 (x86-64, compiled with a per-function target
    attribute so no special compile flags are needed), and NEON
    (aarch64) — and the widest one the host supports is selected once at
    startup ([__builtin_cpu_supports("avx2")] on x86-64; NEON is baseline
    on aarch64). The [JIGSAW_SIMD] environment variable overrides the
    choice: [off] (OCaml loops only), [scalar], [avx2], [neon], or [auto]
    (the default). An implementation the host cannot run clamps to
    scalar C rather than faulting.

    Numerics: every kernel preserves the scalar operation order — the
    interleaved (re, im) pair rides in the two lanes of a 128-bit
    register, real weights/twiddles are broadcast, and no FMA contraction
    is permitted — so SIMD results are bit-identical to the scalar loops
    in practice; the documented (and tested) contract is agreement within
    4 ULP per element.

    Thread-safety: {!active}/{!enabled} are atomic reads and safe from
    any domain. {!set_active}/{!with_impl} switch a process-global and
    must not race with in-flight kernels on other domains — they are
    meant for tests and startup configuration. *)

type impl = Off | Scalar | Avx2 | Neon

val available : impl
(** Widest implementation the host CPU supports (never [Off]). *)

val active : unit -> impl
(** Currently dispatched implementation (startup: [JIGSAW_SIMD] override,
    else {!available}). *)

val enabled : unit -> bool
(** [active () <> Off] — callers must check this before invoking any
    kernel below and fall back to their OCaml loop when false. *)

val impl_name : impl -> string
(** ["off" | "scalar" | "avx2" | "neon"]. *)

val set_active : impl -> impl
(** Switch dispatch; returns the implementation actually installed after
    clamping to {!available} (requesting a vector ISA the host lacks
    installs [Scalar]). *)

val with_impl : impl -> (unit -> 'a) -> 'a
(** [with_impl i f] runs [f] with dispatch switched to [i] (clamped),
    restoring the previous implementation afterwards — the differential
    tests use it to compare implementations inside one process. *)

(** {1 Kernels}

    No bounds checks — callers validate. Only call when {!enabled}. *)

external spread :
  Numerics.Cvec.t -> int array -> float array -> int -> Numerics.Cvec.t -> unit
  = "jigsaw_simd_spread"
[@@noalloc]
(** [spread values off wts dims out] replays a factored compiled plan
    (the {!Nufft.Sample_plan} layout): sample [j] of [values] owns the
    [dims * w] entries at [j * dims * w] of [off] and [wts]
    ([w = Array.length off / (m * dims)]), axis [a]'s [w] wrapped cell
    offsets and table weights at [a * w] — x cells, then y rows
    pre-multiplied by [g], then z planes pre-multiplied by [g * g]. For
    every window entry, in (sample, z, y, x) order,
    [out.(plane + row + kx) += ((wz *. wy) *. wx) * values.(j)] (complex
    += real * complex; [wy *. wx] in 2D). [out] is not zeroed. *)

external spread_band :
  Numerics.Cvec.t ->
  int array ->
  float array ->
  int ->
  int array ->
  int ->
  int ->
  Numerics.Cvec.t ->
  unit = "jigsaw_simd_spread_band_bc" "jigsaw_simd_spread_band"
[@@noalloc]
(** [spread_band values off wts dims samples lo hi out] — {!spread}
    restricted to one region shard: it replays only the samples listed
    in [samples] (ascending), and of each window only the rows whose
    base cell [plane + row] lies in [[lo, hi)) (flattened cell indices;
    a band of whole rows, so multiples of [g]). The same source body as
    {!spread}, so every cell in the band receives the serial
    contributions, products and order. *)

external gather :
  Numerics.Cvec.t -> int array -> float array -> int -> Numerics.Cvec.t -> int -> int -> unit
  = "jigsaw_simd_gather_bc" "jigsaw_simd_gather"
[@@noalloc]
(** [gather grid off wts dims out lo hi]: for each sample [j] in
    [[lo, hi)), [out.(j) <- sum weight * grid.(cell)] over [j]'s window
    entries in the {!spread} layout ([m = Cvec.length out]), summed
    row-factored in the order of {!Nufft.Gridding_serial.gather_sample}:
    per (z, y) row the even-x and odd-x taps [wx * grid.(cell)] in two
    brackets, the last tap of an odd [w] after them, then
    [acc += (wz *. wy) * row] from zero. *)

type fft_tables = {
  n : int;  (** line length, a power of two *)
  swaps : int array;
      (** the bit-reversal permutation as transpositions: pairs
          [(i, j)], [i < j], flattened *)
  twiddles : float array;
      (** [W^k] for [k < n/2] as interleaved (cos, sin) pairs; the
          angle's sign encodes the direction *)
  stages : float array;
      (** for every stage [len = 4, 8, ..., n], at offset
          [2 * (len - 4)], the stage's twiddles [W^(j * n / len)],
          [j < len / 2], per butterfly pair [(j, j + 1)] as
          [(re_j, re_j, re_j+1, re_j+1, im_j, im_j, im_j+1, im_j+1)];
          empty when [n < 4] *)
}
(** The per-length, per-direction tables of a radix-2 line, built and
    cached by {!Fft.Fft1d}. *)

external fft_batch : Numerics.Cvec.t -> fft_tables -> int -> int -> unit
  = "jigsaw_simd_fft_batch"
[@@noalloc]
(** [fft_batch v tables off count] — radix-2 DIT FFTs of [count]
    contiguous complex lines of length [tables.n] starting at complex
    offset [off] of [v], bit-identical to {!Fft.Fft1d}'s OCaml
    butterflies: the permutation, then stages [len = 2, 4, ..., n] with
    [t = W b = (wr*br - wi*bi, wr*bi + wi*br)], [a, b <- a + t, a - t].
    The AVX2 body runs stage 2 two blocks per register and fuses the
    later stages in pairs (radix-2{^2}) with the values kept in
    registers; every element still sees the same butterflies in the same
    order. *)

external deapod_row :
  Numerics.Cvec.t ->
  (int[@untagged]) ->
  Numerics.Cvec.t ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  unit = "jigsaw_simd_deapod_row_bc" "jigsaw_simd_deapod_row"
[@@noalloc]
(** [deapod_row dst doff src soff f foff len fy fz]:
    [dst.(doff+i) <- src.(soff+i) / ((f.(foff+i) *. fy) *. fz)] for
    [i] in [[0, len)) — the pointwise complex-by-real deapodization
    scale. [fz = 1.0] in 2D preserves the 3D left-associated product
    rounding bit for bit. *)

external copy_lines :
  Numerics.Cvec.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  Numerics.Cvec.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "jigsaw_simd_copy_lines_bc" "jigsaw_simd_copy_lines"
[@@noalloc]
(** [copy_lines src soff sline spoint dst doff dline dpoint count len]:
    for [b] in [[0, count)) and [j] in [[0, len)),
    [dst.(doff + b*dline + j*dpoint) <- src.(soff + b*sline + j*spoint)]
    — the staging copy of {!Fft.Fftnd}'s strided passes. It does no
    arithmetic, so unlike the kernels above it is exempt from dispatch:
    callers use it under every implementation, {!Off} included. The
    ranges must not overlap. *)
