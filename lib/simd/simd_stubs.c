/* SIMD kernels for the hot flat loops: compiled-plan replay spread and
 * gather over the factored per-axis window layout (indexed
 * scatter/gather multiply-accumulate), radix-2 FFT
 * lines over interleaved complex data, deapodization rows
 * (pointwise complex-by-real scale), and the line staging copy of the
 * strided FFT passes.
 *
 * Numerics contract: every vector body performs, per output element,
 * exactly the operation sequence of the scalar loop it replaces — the
 * interleaved (re, im) pair rides in the two lanes of a 128-bit register
 * (or one 128-bit half of a 256-bit register), the real weight/twiddle is
 * broadcast to both lanes, and no fused multiply-add is ever emitted
 * (intrinsics are not contracted; the scalar C fallback is compiled with
 * -ffp-contract=off). Per-lane IEEE mul/add/div round exactly like their
 * scalar counterparts, so SIMD and scalar results are bit-identical; the
 * OCaml test suite asserts that bitwise for replay gather and spread
 * and for the FFT lines, and the documented <= 4 ULP contract for the
 * rest.
 *
 * Ordering constraints honoured here:
 *  - spread within one window row may update two grid cells per
 *    read-modify-write only when the row's cells are contiguous (hence
 *    distinct); a row that crosses the wrap seam updates one cell at a
 *    time in entry order, so even a repeated target cell accumulates in
 *    the scalar order;
 *  - shard replay runs the serial spread body over the shard's sample
 *    list, ascending, and skips the window rows outside the shard's
 *    band, so every cell of the band still receives its contributions
 *    in serial order (the region-ownership bit-identity guarantee);
 *  - gather is row-factored in every implementation (the OCaml loops
 *    too, see Gridding_serial.gather_sample): per window row the even-x
 *    and odd-x taps sum in two brackets, left to right, the last tap of
 *    an odd width is added after them, and the row sum is scaled by the
 *    row weight into the sample's accumulator;
 *  - the FFT keeps each butterfly's operations and order; the AVX2 line
 *    kernel only regroups which butterflies share a register (two per
 *    256-bit op, two blocks per register at stage 2) and which stages
 *    share a memory pass (fused radix-2^2 pairs whose four elements are
 *    closed under both stages' butterflies). Butterflies of one stage
 *    touch disjoint elements, so every element sees the same sequence
 *    of operations.
 *
 * None of these functions allocate, raise, or call back into the
 * runtime, so the OCaml externals are [@@noalloc] and plain arrays can
 * be accessed in place (no GC can move them mid-call).
 */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#if defined(__x86_64__) || defined(_M_X64)
#define JIGSAW_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define JIGSAW_SIMD_NEON 1
#include <arm_neon.h>
#endif

/* Implementation selector mirrored from the OCaml side:
 * 1 = scalar C, 2 = AVX2, 3 = NEON. (0/"off" never reaches C: the OCaml
 * wrappers fall back to the OCaml loops.) */
#define IMPL_SCALAR 1
#define IMPL_AVX2 2
#define IMPL_NEON 3

static int jigsaw_simd_impl = IMPL_SCALAR;

CAMLprim value jigsaw_simd_probe(value unit)
{
  (void)unit;
#if defined(JIGSAW_SIMD_X86) && defined(__GNUC__)
  return Val_long(__builtin_cpu_supports("avx2") ? IMPL_AVX2 : IMPL_SCALAR);
#elif defined(JIGSAW_SIMD_NEON)
  return Val_long(IMPL_NEON);
#else
  return Val_long(IMPL_SCALAR);
#endif
}

CAMLprim value jigsaw_simd_set(value impl)
{
  jigsaw_simd_impl = (int)Long_val(impl);
  return Val_unit;
}

/* Float arrays are flat double payloads; int arrays are tagged words. */
#define FLOATS(v) ((const double *)(v))
#define IDX(v, i) Long_val(Field((v), (i)))

/* ------------------------------------------------------------------ */
/* Factored window layout (see Sample_plan): sample j owns the block
 * [j*dims*w, (j+1)*dims*w) of both [off] (wrapped cell offsets, int
 * array) and [wts] (table weights, float array); inside it axis a holds
 * w entries at a*w: x offsets are cells kx, y offsets rows ky*g, z
 * offsets planes kz*g*g. Window entry (iz, iy, ix) targets the cell
 * plane + row + kx with weight (wz*wy)*wx in 3-D and wy*wx in 2-D —
 * the 2-D case walks one plane with wz = 1.0, an exact multiply — in
 * (sample, z, y, x) order, the compile order of the expanded stream it
 * replaces. Every kernel below forms the row weight wr = wz*wy once
 * per row and the entry weight wr*wx per entry; IEEE products commute,
 * so these equal the OCaml loop's bit for bit. */

/* Widest window the vector bodies stage on the stack; wider windows
 * (far beyond any plan this library builds) take the scalar body. */
#define MAX_W 64

static inline long nplanes(long dims, long w) { return dims == 3 ? w : 1; }

/* Width specialisation. Every replay body below is an always_inline
 * function of (dims, w), and each implementation's entry point
 * instantiates it once per pair the library builds: dims 2 and 3, and
 * w in [2, 16], the Window.width_for_tolerance range (which holds
 * default_width = 6 at sigma = 2). There w is a compile-time constant,
 * so the per-sample weight fan-out and x offsets stay in registers and
 * the w-trip loops unroll. Any other width runs the same body with w
 * read at run time. An instance changes no operation and no order, so
 * it is bit-identical to the generic body. */
#define INLINE static inline __attribute__((always_inline))
#define WIDTH_CASE(BODY, D, W) \
  case W: BODY(D, W); break;
#define WIDTH_SWITCH(BODY, D, w)                                     \
  switch (w) {                                                       \
    WIDTH_CASE(BODY, D, 2) WIDTH_CASE(BODY, D, 3)                    \
    WIDTH_CASE(BODY, D, 4) WIDTH_CASE(BODY, D, 5)                    \
    WIDTH_CASE(BODY, D, 6) WIDTH_CASE(BODY, D, 7)                    \
    WIDTH_CASE(BODY, D, 8) WIDTH_CASE(BODY, D, 9)                    \
    WIDTH_CASE(BODY, D, 10) WIDTH_CASE(BODY, D, 11)                  \
    WIDTH_CASE(BODY, D, 12) WIDTH_CASE(BODY, D, 13)                  \
    WIDTH_CASE(BODY, D, 14) WIDTH_CASE(BODY, D, 15)                  \
    WIDTH_CASE(BODY, D, 16)                                          \
  default: BODY(D, w); break;                                        \
  }
#define SPECIALISE(BODY, dims, w)                                    \
  do {                                                               \
    if ((dims) == 3) {                                               \
      WIDTH_SWITCH(BODY, 3, w)                                       \
    } else {                                                         \
      WIDTH_SWITCH(BODY, 2, w)                                       \
    }                                                                \
  } while (0)

/* Replay spread: out[cell] += weight * values[j] for every entry.
 *
 * Each implementation has one spread body, instantiated twice through
 * its [band] argument, a constant at every call site:
 *  - serial (band = 0): samples 0..n-1 and every window row, the
 *    unclipped loop;
 *  - shard (band = 1): the n samples listed in [smp], ascending, and of
 *    each window only the rows whose base cell plane + row lies in the
 *    shard's cell range [lo, hi) — the region-sharded replay of
 *    Sample_plan.spread_parallel. Every cell of the band receives its
 *    contributions in sample order and, within a sample, in window
 *    order, as the serial instance's products: the same bits. */

INLINE void spread_scalar_body(const double *vals, value off,
                               const double *wts, double *out, long dims,
                               long w, int band, const value *smp, long n,
                               long lo, long hi)
{
  long span = dims * w, nz = nplanes(dims, w);
  for (long i = 0; i < n; i++) {
    long j = band ? Long_val(smp[i]) : i;
    double vr = vals[2 * j], vi = vals[2 * j + 1];
    long bx = j * span, by = bx + w, bz = by + w;
    for (long iz = 0; iz < nz; iz++) {
      long plane = dims == 3 ? IDX(off, bz + iz) : 0;
      double wz = dims == 3 ? wts[bz + iz] : 1.0;
      for (long iy = 0; iy < w; iy++) {
        long row = plane + IDX(off, by + iy);
        if (band && (row < lo || row >= hi)) continue;
        double wr = wz * wts[by + iy];
        for (long ix = 0; ix < w; ix++) {
          long k = row + IDX(off, bx + ix);
          double wt = wr * wts[bx + ix];
          out[2 * k] += wt * vr;
          out[2 * k + 1] += wt * vi;
        }
      }
    }
  }
}

/* Both instances of the body named by SPREAD_BODY, each specialised per
 * (dims, w): the shard instance when a sample list is given ([smp] is
 * NULL for serial replay). */
#define SERIAL_BODY(D, W) \
  SPREAD_BODY(vals, off, wts, out, D, W, 0, smp, n, lo, hi)
#define SHARD_BODY(D, W) \
  SPREAD_BODY(vals, off, wts, out, D, W, 1, smp, n, lo, hi)
#define SPREAD_INSTANCES()                                             \
  do {                                                                 \
    if (smp)                                                           \
      SPECIALISE(SHARD_BODY, dims, w);                                 \
    else                                                               \
      SPECIALISE(SERIAL_BODY, dims, w);                                \
  } while (0)

static void spread_scalar(const double *vals, value off, const double *wts,
                          double *out, long dims, long w, const value *smp,
                          long n, long lo, long hi)
{
#define SPREAD_BODY spread_scalar_body
  SPREAD_INSTANCES();
#undef SPREAD_BODY
}

#ifdef JIGSAW_SIMD_X86
/* Per sample the x weights are fanned out once into (wx0,wx0,wx1,wx1)
 * pairs, so an entry pair's two complex products cost two 256-bit
 * multiplies: (wx * wr) * (vr,vi,vr,vi), the scalar per-lane order. A
 * row whose x cells are contiguous (every row except at the wrap seam)
 * is then two cells per 256-bit read-modify-write; a seam row updates
 * cell by cell in entry order. */
#define AVX2 __attribute__((target("avx2")))

INLINE AVX2 void spread_avx2_body(const double *vals, value off,
                                  const double *wts, double *out, long dims,
                                  long w, int band, const value *smp, long n,
                                  long lo, long hi)
{
  long span = dims * w, nz = nplanes(dims, w), pairs = w / 2;
  __m256d wxx[w / 2 + 1];
  long kx[w];
  for (long i = 0; i < n; i++) {
    long j = band ? Long_val(smp[i]) : i;
    __m128d v = _mm_loadu_pd(vals + 2 * j);
    __m256d vv = _mm256_broadcast_pd((const __m128d *)(vals + 2 * j));
    long bx = j * span, by = bx + w, bz = by + w;
    const double *wx = wts + bx;
#pragma GCC unroll 8
    for (long p = 0; p < pairs; p++)
      wxx[p] = _mm256_permute4x64_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(wx + 2 * p)), 0x50);
#pragma GCC unroll 16
    for (long ix = 0; ix < w; ix++) kx[ix] = IDX(off, bx + ix);
    int contiguous = kx[w - 1] - kx[0] == w - 1;
    for (long iz = 0; iz < nz; iz++) {
      long plane = dims == 3 ? IDX(off, bz + iz) : 0;
      double wz = dims == 3 ? wts[bz + iz] : 1.0;
#pragma GCC unroll 16
      for (long iy = 0; iy < w; iy++) {
        long row = plane + IDX(off, by + iy);
        if (band && (row < lo || row >= hi)) continue;
        double wr = wz * wts[by + iy];
        if (contiguous) {
          __m256d wr4 = _mm256_set1_pd(wr);
          double *o = out + 2 * (row + kx[0]);
#pragma GCC unroll 8
          for (long p = 0; p < pairs; p++) {
            __m256d t = _mm256_mul_pd(_mm256_mul_pd(wxx[p], wr4), vv);
            _mm256_storeu_pd(o + 4 * p,
                             _mm256_add_pd(_mm256_loadu_pd(o + 4 * p), t));
          }
          if (w & 1) {
            __m128d t = _mm_mul_pd(
                _mm_mul_pd(_mm_set1_pd(wx[w - 1]), _mm_set1_pd(wr)), v);
            double *c = o + 2 * (w - 1);
            _mm_storeu_pd(c, _mm_add_pd(_mm_loadu_pd(c), t));
          }
        } else {
          __m128d wr2 = _mm_set1_pd(wr);
          for (long ix = 0; ix < w; ix++) {
            __m128d t = _mm_mul_pd(_mm_mul_pd(_mm_set1_pd(wx[ix]), wr2), v);
            double *c = out + 2 * (row + kx[ix]);
            _mm_storeu_pd(c, _mm_add_pd(_mm_loadu_pd(c), t));
          }
        }
      }
    }
  }
}

static AVX2 void spread_avx2(const double *vals, value off, const double *wts,
                             double *out, long dims, long w, const value *smp,
                             long n, long lo, long hi)
{
  if (w > MAX_W) {
    spread_scalar(vals, off, wts, out, dims, w, smp, n, lo, hi);
    return;
  }
#define SPREAD_BODY spread_avx2_body
  SPREAD_INSTANCES();
#undef SPREAD_BODY
}
#endif

#ifdef JIGSAW_SIMD_NEON
INLINE void spread_neon_body(const double *vals, value off, const double *wts,
                             double *out, long dims, long w, int band,
                             const value *smp, long n, long lo, long hi)
{
  long span = dims * w, nz = nplanes(dims, w);
  for (long i = 0; i < n; i++) {
    long j = band ? Long_val(smp[i]) : i;
    float64x2_t v = vld1q_f64(vals + 2 * j);
    long bx = j * span, by = bx + w, bz = by + w;
    for (long iz = 0; iz < nz; iz++) {
      long plane = dims == 3 ? IDX(off, bz + iz) : 0;
      double wz = dims == 3 ? wts[bz + iz] : 1.0;
      for (long iy = 0; iy < w; iy++) {
        long row = plane + IDX(off, by + iy);
        if (band && (row < lo || row >= hi)) continue;
        double wr = wz * wts[by + iy];
        for (long ix = 0; ix < w; ix++) {
          double *c = out + 2 * (row + IDX(off, bx + ix));
          float64x2_t t = vmulq_f64(vdupq_n_f64(wr * wts[bx + ix]), v);
          vst1q_f64(c, vaddq_f64(vld1q_f64(c), t));
        }
      }
    }
  }
}

static void spread_neon(const double *vals, value off, const double *wts,
                        double *out, long dims, long w, const value *smp,
                        long n, long lo, long hi)
{
#define SPREAD_BODY spread_neon_body
  SPREAD_INSTANCES();
#undef SPREAD_BODY
}
#endif

/* Dispatch one replay over the plan of [values]' m samples: n samples,
 * from [smp] when it is not NULL, clipped to cells [lo, hi) then. */
static void spread_dispatch(value values, value off, value wts, value dims,
                            const value *smp, long n, long lo, long hi,
                            value out)
{
  long m = (long)Caml_ba_array_val(values)->dim[0] / 2;
  long d = Long_val(dims);
  if (m == 0 || n == 0) return;
  long w = (long)Wosize_val(off) / (m * d);
  if (w == 0) return;
  const double *vals = (const double *)Caml_ba_data_val(values);
  double *o = (double *)Caml_ba_data_val(out);
  switch (jigsaw_simd_impl) {
#ifdef JIGSAW_SIMD_X86
  case IMPL_AVX2:
    spread_avx2(vals, off, FLOATS(wts), o, d, w, smp, n, lo, hi);
    break;
#endif
#ifdef JIGSAW_SIMD_NEON
  case IMPL_NEON:
    spread_neon(vals, off, FLOATS(wts), o, d, w, smp, n, lo, hi);
    break;
#endif
  default: spread_scalar(vals, off, FLOATS(wts), o, d, w, smp, n, lo, hi);
  }
}

CAMLprim value jigsaw_simd_spread(value values, value off, value wts,
                                  value dims, value out)
{
  long m = (long)Caml_ba_array_val(values)->dim[0] / 2;
  spread_dispatch(values, off, wts, dims, NULL, m, 0, 0, out);
  return Val_unit;
}

CAMLprim value jigsaw_simd_spread_band(value values, value off, value wts,
                                       value dims, value smp, value lo,
                                       value hi, value out)
{
  long n = (long)Wosize_val(smp);
  if (n > 0)
    spread_dispatch(values, off, wts, dims, Op_val(smp), n, Long_val(lo),
                    Long_val(hi), out);
  return Val_unit;
}

CAMLprim value jigsaw_simd_spread_band_bc(value *argv, int argn)
{
  (void)argn;
  return jigsaw_simd_spread_band(argv[0], argv[1], argv[2], argv[3], argv[4],
                                 argv[5], argv[6], argv[7]);
}

/* ------------------------------------------------------------------ */
/* Replay gather over the sample range [lo, hi), row-factored: every
 * implementation, the OCaml loops included, forms out[j] in this order.
 * For each window row (z outer, then y) with taps p_i = wx_i * grid[cell
 * of tap i] (complex times real):
 *   r = (p_0 + p_2 + p_4 + ...) + (p_1 + p_3 + p_5 + ...)
 * each bracket summed left to right, then r += p_{w-1} when w is odd,
 * then acc += (wz * wy) * r (wy * r in 2-D), acc starting from (0, 0).
 * The two brackets are the two 128-bit halves of one 256-bit register
 * in the AVX2 body, so a row costs w/2 multiply-adds on an independent
 * chain and the samples' accumulators see one add per row. A bracket
 * with no tap (w = 1) is -0.0, the additive identity, so r = p_0. */

INLINE void gather_scalar_body(const double *grid, value off,
                               const double *wts, double *out, long dims,
                               long w, long lo, long hi)
{
  long span = dims * w, nz = nplanes(dims, w), pairs = w / 2;
  for (long j = lo; j < hi; j++) {
    long bx = j * span, by = bx + w, bz = by + w;
    const double *wx = wts + bx;
    double ar = 0.0, ai = 0.0;
    for (long iz = 0; iz < nz; iz++) {
      long plane = dims == 3 ? IDX(off, bz + iz) : 0;
      double wz = dims == 3 ? wts[bz + iz] : 1.0;
      for (long iy = 0; iy < w; iy++) {
        long row = plane + IDX(off, by + iy);
        double er = -0.0, ei = -0.0, odr = -0.0, odi = -0.0;
        for (long p = 0; p < pairs; p++) {
          const double *c0 = grid + 2 * (row + IDX(off, bx + 2 * p));
          const double *c1 = grid + 2 * (row + IDX(off, bx + 2 * p + 1));
          er += wx[2 * p] * c0[0];
          ei += wx[2 * p] * c0[1];
          odr += wx[2 * p + 1] * c1[0];
          odi += wx[2 * p + 1] * c1[1];
        }
        double rr = er + odr, ri = ei + odi;
        if (w & 1) {
          const double *c = grid + 2 * (row + IDX(off, bx + w - 1));
          rr += wx[w - 1] * c[0];
          ri += wx[w - 1] * c[1];
        }
        double wr = wz * wts[by + iy];
        ar += wr * rr;
        ai += wr * ri;
      }
    }
    out[2 * j] = ar;
    out[2 * j + 1] = ai;
  }
}

static void gather_scalar(const double *grid, value off, const double *wts,
                          double *out, long dims, long w, long lo, long hi)
{
#define BODY(D, W) gather_scalar_body(grid, off, wts, out, D, W, lo, hi)
  SPECIALISE(BODY, dims, w);
#undef BODY
}

#ifdef JIGSAW_SIMD_X86
/* Tap pair p of a row sits in one 256-bit register, tap 2p in the low
 * half and tap 2p+1 in the high half: one load for a contiguous row,
 * two 128-bit loads at the wrap seam. Either way the multiplies and
 * adds are the scalar body's, lane for lane. */
INLINE AVX2 __m256d gather_pair_seam(const double *grid, long row,
                                     const long *kx, long p)
{
  return _mm256_insertf128_pd(
      _mm256_castpd128_pd256(_mm_loadu_pd(grid + 2 * (row + kx[2 * p]))),
      _mm_loadu_pd(grid + 2 * (row + kx[2 * p + 1])), 1);
}

INLINE AVX2 void gather_avx2_body(const double *grid, value off,
                                  const double *wts, double *out, long dims,
                                  long w, long lo, long hi)
{
  long span = dims * w, nz = nplanes(dims, w), pairs = w / 2;
  __m256d wxx[w / 2 + 1];
  long kx[w];
  for (long j = lo; j < hi; j++) {
    long bx = j * span, by = bx + w, bz = by + w;
    const double *wx = wts + bx;
#pragma GCC unroll 8
    for (long p = 0; p < pairs; p++)
      wxx[p] = _mm256_permute4x64_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(wx + 2 * p)), 0x50);
#pragma GCC unroll 16
    for (long ix = 0; ix < w; ix++) kx[ix] = IDX(off, bx + ix);
    int contiguous = kx[w - 1] - kx[0] == w - 1;
    __m128d wl = _mm_set1_pd(wx[w - 1]);
    __m128d acc = _mm_setzero_pd();
    for (long iz = 0; iz < nz; iz++) {
      long plane = dims == 3 ? IDX(off, bz + iz) : 0;
      double wz = dims == 3 ? wts[bz + iz] : 1.0;
#pragma GCC unroll 16
      for (long iy = 0; iy < w; iy++) {
        long row = plane + IDX(off, by + iy);
        const double *gp = grid + 2 * (row + kx[0]);
        __m128d r;
        if (pairs == 0) {
          r = _mm_mul_pd(wl, _mm_loadu_pd(gp));
        } else {
          __m256d s;
          if (contiguous) {
            s = _mm256_mul_pd(wxx[0], _mm256_loadu_pd(gp));
#pragma GCC unroll 8
            for (long p = 1; p < pairs; p++)
              s = _mm256_add_pd(
                  s, _mm256_mul_pd(wxx[p], _mm256_loadu_pd(gp + 4 * p)));
          } else {
            s = _mm256_mul_pd(wxx[0], gather_pair_seam(grid, row, kx, 0));
            for (long p = 1; p < pairs; p++)
              s = _mm256_add_pd(
                  s, _mm256_mul_pd(wxx[p], gather_pair_seam(grid, row, kx, p)));
          }
          r = _mm_add_pd(_mm256_castpd256_pd128(s),
                         _mm256_extractf128_pd(s, 1));
          if (w & 1)
            r = _mm_add_pd(
                r, _mm_mul_pd(wl, _mm_loadu_pd(grid + 2 * (row + kx[w - 1]))));
        }
        acc = _mm_add_pd(acc,
                         _mm_mul_pd(_mm_set1_pd(wz * wts[by + iy]), r));
      }
    }
    _mm_storeu_pd(out + 2 * j, acc);
  }
}

static AVX2 void gather_avx2(const double *grid, value off, const double *wts,
                             double *out, long dims, long w, long lo, long hi)
{
  if (w > MAX_W) {
    gather_scalar(grid, off, wts, out, dims, w, lo, hi);
    return;
  }
#define BODY(D, W) gather_avx2_body(grid, off, wts, out, D, W, lo, hi)
  SPECIALISE(BODY, dims, w);
#undef BODY
}
#endif

#ifdef JIGSAW_SIMD_NEON
INLINE void gather_neon_body(const double *grid, value off, const double *wts,
                             double *out, long dims, long w, long lo, long hi)
{
  long span = dims * w, nz = nplanes(dims, w), pairs = w / 2;
  for (long j = lo; j < hi; j++) {
    long bx = j * span, by = bx + w, bz = by + w;
    const double *wx = wts + bx;
    float64x2_t acc = vdupq_n_f64(0.0);
    for (long iz = 0; iz < nz; iz++) {
      long plane = dims == 3 ? IDX(off, bz + iz) : 0;
      double wz = dims == 3 ? wts[bz + iz] : 1.0;
      for (long iy = 0; iy < w; iy++) {
        long row = plane + IDX(off, by + iy);
        float64x2_t ev = vdupq_n_f64(-0.0), od = vdupq_n_f64(-0.0);
        for (long p = 0; p < pairs; p++) {
          const double *c0 = grid + 2 * (row + IDX(off, bx + 2 * p));
          const double *c1 = grid + 2 * (row + IDX(off, bx + 2 * p + 1));
          ev = vaddq_f64(ev, vmulq_f64(vdupq_n_f64(wx[2 * p]), vld1q_f64(c0)));
          od = vaddq_f64(od,
                         vmulq_f64(vdupq_n_f64(wx[2 * p + 1]), vld1q_f64(c1)));
        }
        float64x2_t r = vaddq_f64(ev, od);
        if (w & 1) {
          const double *c = grid + 2 * (row + IDX(off, bx + w - 1));
          r = vaddq_f64(r, vmulq_f64(vdupq_n_f64(wx[w - 1]), vld1q_f64(c)));
        }
        acc = vaddq_f64(
            acc, vmulq_f64(vdupq_n_f64(wz * wts[by + iy]), r));
      }
    }
    vst1q_f64(out + 2 * j, acc);
  }
}

static void gather_neon(const double *grid, value off, const double *wts,
                        double *out, long dims, long w, long lo, long hi)
{
#define BODY(D, W) gather_neon_body(grid, off, wts, out, D, W, lo, hi)
  SPECIALISE(BODY, dims, w);
#undef BODY
}
#endif

CAMLprim value jigsaw_simd_gather(value grid, value off, value wts,
                                  value dims, value out, value lo, value hi)
{
  long m = (long)Caml_ba_array_val(out)->dim[0] / 2;
  long d = Long_val(dims);
  if (m == 0) return Val_unit;
  long w = (long)Wosize_val(off) / (m * d);
  if (w == 0) return Val_unit;
  const double *g = (const double *)Caml_ba_data_val(grid);
  double *o = (double *)Caml_ba_data_val(out);
  long l = Long_val(lo), h = Long_val(hi);
  switch (jigsaw_simd_impl) {
#ifdef JIGSAW_SIMD_X86
  case IMPL_AVX2: gather_avx2(g, off, FLOATS(wts), o, d, w, l, h); break;
#endif
#ifdef JIGSAW_SIMD_NEON
  case IMPL_NEON: gather_neon(g, off, FLOATS(wts), o, d, w, l, h); break;
#endif
  default: gather_scalar(g, off, FLOATS(wts), o, d, w, l, h); break;
  }
  return Val_unit;
}

CAMLprim value jigsaw_simd_gather_bc(value *argv, int argn)
{
  (void)argn;
  return jigsaw_simd_gather(argv[0], argv[1], argv[2], argv[3], argv[4],
                            argv[5], argv[6]);
}

/* ------------------------------------------------------------------ */
/* Radix-2 DIT FFT lines over interleaved complex data, with the tables
 * of Simd.fft_tables (built and cached per length and direction by
 * Fft1d): [swaps] lists the bit-reversal transpositions (i, j), i < j;
 * [twiddles] holds W^k = (cos, sin)(sign 2 pi k / n) for k < n/2; and
 * [stages] holds, for every stage len = 4, 8, ..., n at offset
 * 2 * (len - 4), the stage's twiddles W^(j n/len), j < len/2, duplicated
 * per lane: butterfly pair (j, j+1) reads (wr_j, wr_j, wr_j+1, wr_j+1,
 * wi_j, wi_j, wi_j+1, wi_j+1) at 4 j. The result is that of
 * Fft1d.radix2_at: permute, then for len = 2, 4, ..., n every block's
 * butterflies a, b <- a + t, a - t with t = W b computed as
 * (wr*br - wi*bi, wr*bi + wi*br). */

static void fft_line_scalar(double *v, value swaps, const double *tw, long n)
{
  long ns = (long)Wosize_val(swaps);
  for (long s = 0; s < ns; s += 2) {
    long i = IDX(swaps, s), j = IDX(swaps, s + 1);
    double tr = v[2 * i], ti = v[2 * i + 1];
    v[2 * i] = v[2 * j];
    v[2 * i + 1] = v[2 * j + 1];
    v[2 * j] = tr;
    v[2 * j + 1] = ti;
  }
  for (long len = 2; len <= n; len <<= 1) {
    long half = len >> 1;
    long step = n / len;
    for (long i0 = 0; i0 < n; i0 += len) {
      for (long j = 0; j < half; j++) {
        long wi = 2 * (j * step);
        double wr = tw[wi], wim = tw[wi + 1];
        double *a = v + 2 * (i0 + j);
        double *b = a + 2 * half;
        double br = b[0], bi = b[1];
        double tr = wr * br - wim * bi;
        double ti = wr * bi + wim * br;
        double ar = a[0], ai = a[1];
        a[0] = ar + tr;
        a[1] = ai + ti;
        b[0] = ar - tr;
        b[1] = ai - ti;
      }
    }
  }
}

#ifdef JIGSAW_SIMD_X86
/* Two butterflies per 256-bit register, one complex value per 128-bit
 * half. The complex multiply keeps the scalar per-lane order via addsub:
 * t = addsub(wre * (br, bi), wim * (bi, br))
 *   = (wr*br - wi*bi, wr*bi + wi*br).
 *
 * Stage len = 2 puts two blocks in one register: elements (e0, e1, e2,
 * e3) regroup as a = (e0, e2), b = (e1, e3). Every later stage pairs
 * butterflies j and j+1 of one block, and stages run two at a time
 * (radix-2^2): for a block of 2*len starting at b0 and j < len/2 the
 * four elements b0 + j + {0, h, len, len + h} (h = len/2) are closed
 * under stage len's butterflies (j of both len-blocks, twiddle j) and
 * stage 2*len's (j and j + h), so they stay in registers across both
 * stages. Each element sees the same butterflies in the same order as
 * in the stage-by-stage loop, and butterflies of one stage touch
 * disjoint elements, so the result is bit-identical. With an odd
 * number of stages after len = 2, the last one runs alone. */
INLINE AVX2 __m256d fft_cmul(__m256d wre, __m256d wim, __m256d b)
{
  return _mm256_addsub_pd(_mm256_mul_pd(wre, b),
                          _mm256_mul_pd(wim, _mm256_shuffle_pd(b, b, 0x5)));
}

static AVX2 void fft_line_avx2(double *v, value swaps, const double *tw,
                               const double *st, long n)
{
  if (n < 4) {
    fft_line_scalar(v, swaps, tw, n);
    return;
  }
  long ns = (long)Wosize_val(swaps);
  for (long s = 0; s < ns; s += 2) {
    double *a = v + 2 * IDX(swaps, s), *b = v + 2 * IDX(swaps, s + 1);
    __m128d x = _mm_loadu_pd(a), y = _mm_loadu_pd(b);
    _mm_storeu_pd(a, y);
    _mm_storeu_pd(b, x);
  }
  __m256d w2re = _mm256_set1_pd(tw[0]), w2im = _mm256_set1_pd(tw[1]);
  for (long i = 0; i < n; i += 4) {
    __m256d x = _mm256_loadu_pd(v + 2 * i), y = _mm256_loadu_pd(v + 2 * i + 4);
    __m256d a = _mm256_permute2f128_pd(x, y, 0x20);
    __m256d t = fft_cmul(w2re, w2im, _mm256_permute2f128_pd(x, y, 0x31));
    __m256d a2 = _mm256_add_pd(a, t), b2 = _mm256_sub_pd(a, t);
    _mm256_storeu_pd(v + 2 * i, _mm256_permute2f128_pd(a2, b2, 0x20));
    _mm256_storeu_pd(v + 2 * i + 4, _mm256_permute2f128_pd(a2, b2, 0x31));
  }
  long len = 4;
  for (; 2 * len <= n; len <<= 2) {
    long h = len >> 1;
    const double *t1 = st + 2 * (len - 4), *t2 = st + 2 * (2 * len - 4);
    for (long b0 = 0; b0 < n; b0 += 2 * len) {
      for (long j = 0; j < h; j += 2) {
        double *p0 = v + 2 * (b0 + j), *p1 = p0 + 2 * h;
        double *p2 = p0 + 2 * len, *p3 = p2 + 2 * h;
        __m256d wre = _mm256_loadu_pd(t1 + 4 * j);
        __m256d wim = _mm256_loadu_pd(t1 + 4 * j + 4);
        __m256d x0 = _mm256_loadu_pd(p0), x2 = _mm256_loadu_pd(p2);
        __m256d t = fft_cmul(wre, wim, _mm256_loadu_pd(p1));
        __m256d y0 = _mm256_add_pd(x0, t), y1 = _mm256_sub_pd(x0, t);
        t = fft_cmul(wre, wim, _mm256_loadu_pd(p3));
        __m256d y2 = _mm256_add_pd(x2, t), y3 = _mm256_sub_pd(x2, t);
        t = fft_cmul(_mm256_loadu_pd(t2 + 4 * j), _mm256_loadu_pd(t2 + 4 * j + 4),
                     y2);
        _mm256_storeu_pd(p0, _mm256_add_pd(y0, t));
        _mm256_storeu_pd(p2, _mm256_sub_pd(y0, t));
        t = fft_cmul(_mm256_loadu_pd(t2 + 4 * (j + h)),
                     _mm256_loadu_pd(t2 + 4 * (j + h) + 4), y3);
        _mm256_storeu_pd(p1, _mm256_add_pd(y1, t));
        _mm256_storeu_pd(p3, _mm256_sub_pd(y1, t));
      }
    }
  }
  if (len <= n) {
    long h = len >> 1;
    const double *t1 = st + 2 * (len - 4);
    for (long b0 = 0; b0 < n; b0 += len) {
      for (long j = 0; j < h; j += 2) {
        double *p0 = v + 2 * (b0 + j), *p1 = p0 + 2 * h;
        __m256d t = fft_cmul(_mm256_loadu_pd(t1 + 4 * j),
                             _mm256_loadu_pd(t1 + 4 * j + 4),
                             _mm256_loadu_pd(p1));
        __m256d x0 = _mm256_loadu_pd(p0);
        _mm256_storeu_pd(p0, _mm256_add_pd(x0, t));
        _mm256_storeu_pd(p1, _mm256_sub_pd(x0, t));
      }
    }
  }
}
#endif

#ifdef JIGSAW_SIMD_NEON
static void fft_line_neon(double *v, value swaps, const double *tw, long n)
{
  /* addsub is emulated by multiplying the odd product with (-1, 1):
   * x * -1.0 is exact, so lane 0 computes p0 + (-q0) = p0 - q0 with
   * scalar rounding. */
  const float64x2_t sgn = vcombine_f64(vdup_n_f64(-1.0), vdup_n_f64(1.0));
  long ns = (long)Wosize_val(swaps);
  for (long s = 0; s < ns; s += 2) {
    double *a = v + 2 * IDX(swaps, s), *b = v + 2 * IDX(swaps, s + 1);
    float64x2_t x = vld1q_f64(a), y = vld1q_f64(b);
    vst1q_f64(a, y);
    vst1q_f64(b, x);
  }
  for (long len = 2; len <= n; len <<= 1) {
    long half = len >> 1;
    long step = n / len;
    for (long i0 = 0; i0 < n; i0 += len) {
      for (long j = 0; j < half; j++) {
        long wi = 2 * (j * step);
        float64x2_t wre = vdupq_n_f64(tw[wi]);
        float64x2_t wim = vdupq_n_f64(tw[wi + 1]);
        double *ap = v + 2 * (i0 + j);
        double *bp = ap + 2 * half;
        float64x2_t b = vld1q_f64(bp);
        float64x2_t bsw = vextq_f64(b, b, 1);
        float64x2_t t =
            vaddq_f64(vmulq_f64(wre, b), vmulq_f64(vmulq_f64(wim, bsw), sgn));
        float64x2_t a = vld1q_f64(ap);
        vst1q_f64(ap, vaddq_f64(a, t));
        vst1q_f64(bp, vsubq_f64(a, t));
      }
    }
  }
}
#endif

CAMLprim value jigsaw_simd_fft_batch(value v, value tables, value off,
                                     value count)
{
  /* Simd.fft_tables = { n; swaps; twiddles; stages } */
  long n = Long_val(Field(tables, 0));
  long c = Long_val(count);
  value swaps = Field(tables, 1);
  const double *tw = FLOATS(Field(tables, 2));
  double *data = (double *)Caml_ba_data_val(v) + 2 * Long_val(off);
  for (long l = 0; l < c; l++) {
    double *line = data + 2 * l * n;
    switch (jigsaw_simd_impl) {
#ifdef JIGSAW_SIMD_X86
    case IMPL_AVX2:
      fft_line_avx2(line, swaps, tw, FLOATS(Field(tables, 3)), n);
      break;
#endif
#ifdef JIGSAW_SIMD_NEON
    case IMPL_NEON: fft_line_neon(line, swaps, tw, n); break;
#endif
    default: fft_line_scalar(line, swaps, tw, n); break;
    }
  }
  return Val_unit;
}

/* ------------------------------------------------------------------ */
/* Line staging for the strided FFT passes: copy [count] lines of [len]
 * complex points, point j of line b moving from src[soff + b*sline +
 * j*spoint] to dst[doff + b*dline + j*dpoint]. Pure data movement — no
 * arithmetic, so the result does not depend on the dispatched
 * implementation and the copy runs under every JIGSAW_SIMD state. The
 * loop is point-outer, line-inner: a block of adjacent grid columns is
 * read (or written back) as contiguous runs of [count] points. */

CAMLprim value jigsaw_simd_copy_lines(value src, intnat soff, intnat sline,
                                      intnat spoint, value dst, intnat doff,
                                      intnat dline, intnat dpoint,
                                      intnat count, intnat len)
{
  const double *s = (const double *)Caml_ba_data_val(src) + 2 * soff;
  double *d = (double *)Caml_ba_data_val(dst) + 2 * doff;
  for (long j = 0; j < len; j++) {
    const double *sj = s + 2 * j * spoint;
    double *dj = d + 2 * j * dpoint;
    for (long b = 0; b < count; b++) {
      dj[2 * b * dline] = sj[2 * b * sline];
      dj[2 * b * dline + 1] = sj[2 * b * sline + 1];
    }
  }
  return Val_unit;
}

CAMLprim value jigsaw_simd_copy_lines_bc(value *argv, int argn)
{
  (void)argn;
  return jigsaw_simd_copy_lines(
      argv[0], Long_val(argv[1]), Long_val(argv[2]), Long_val(argv[3]),
      argv[4], Long_val(argv[5]), Long_val(argv[6]), Long_val(argv[7]),
      Long_val(argv[8]), Long_val(argv[9]));
}

/* ------------------------------------------------------------------ */
/* Deapodization row: dst[doff+i] = src[soff+i] / ((f[foff+i]*fy)*fz)
 * for i in [0, len). fz = 1.0 in 2D preserves the left-associated
 * rounding of the 3D (f*dy)*dz product bit for bit. */

static void deapod_scalar(double *dst, long doff, const double *src,
                          long soff, const double *f, long foff, long len,
                          double fy, double fz)
{
  for (long i = 0; i < len; i++) {
    double s = 1.0 / ((f[foff + i] * fy) * fz);
    dst[2 * (doff + i)] = s * src[2 * (soff + i)];
    dst[2 * (doff + i) + 1] = s * src[2 * (soff + i) + 1];
  }
}

#ifdef JIGSAW_SIMD_X86
__attribute__((target("avx2"))) static void
deapod_avx2(double *dst, long doff, const double *src, long soff,
            const double *f, long foff, long len, double fy, double fz)
{
  __m128d one = _mm_set1_pd(1.0);
  __m128d vfy = _mm_set1_pd(fy), vfz = _mm_set1_pd(fz);
  long i = 0;
  for (; i + 2 <= len; i += 2) {
    __m128d ff = _mm_loadu_pd(f + foff + i);
    __m128d s =
        _mm_div_pd(one, _mm_mul_pd(_mm_mul_pd(ff, vfy), vfz));
    /* (s0, s0, s1, s1) against two interleaved complex pixels. */
    __m256d ss = _mm256_permute4x64_pd(_mm256_castpd128_pd256(s), 0x50);
    __m256d x = _mm256_loadu_pd(src + 2 * (soff + i));
    _mm256_storeu_pd(dst + 2 * (doff + i), _mm256_mul_pd(ss, x));
  }
  for (; i < len; i++) {
    double s = 1.0 / ((f[foff + i] * fy) * fz);
    __m128d ss = _mm_set1_pd(s);
    __m128d x = _mm_loadu_pd(src + 2 * (soff + i));
    _mm_storeu_pd(dst + 2 * (doff + i), _mm_mul_pd(ss, x));
  }
}
#endif

#ifdef JIGSAW_SIMD_NEON
static void deapod_neon(double *dst, long doff, const double *src, long soff,
                        const double *f, long foff, long len, double fy,
                        double fz)
{
  for (long i = 0; i < len; i++) {
    float64x2_t s = vdupq_n_f64(1.0 / ((f[foff + i] * fy) * fz));
    vst1q_f64(dst + 2 * (doff + i),
              vmulq_f64(s, vld1q_f64(src + 2 * (soff + i))));
  }
}
#endif

CAMLprim value jigsaw_simd_deapod_row(value dst, intnat doff, value src,
                                      intnat soff, value f, intnat foff,
                                      intnat len, double fy, double fz)
{
  double *d = (double *)Caml_ba_data_val(dst);
  const double *s = (const double *)Caml_ba_data_val(src);
  switch (jigsaw_simd_impl) {
#ifdef JIGSAW_SIMD_X86
  case IMPL_AVX2:
    deapod_avx2(d, doff, s, soff, FLOATS(f), foff, len, fy, fz);
    break;
#endif
#ifdef JIGSAW_SIMD_NEON
  case IMPL_NEON:
    deapod_neon(d, doff, s, soff, FLOATS(f), foff, len, fy, fz);
    break;
#endif
  default:
    deapod_scalar(d, doff, s, soff, FLOATS(f), foff, len, fy, fz);
    break;
  }
  return Val_unit;
}

CAMLprim value jigsaw_simd_deapod_row_bc(value *argv, int argn)
{
  (void)argn;
  return jigsaw_simd_deapod_row(argv[0], Long_val(argv[1]), argv[2],
                                Long_val(argv[3]), argv[4], Long_val(argv[5]),
                                Long_val(argv[6]), Double_val(argv[7]),
                                Double_val(argv[8]));
}
