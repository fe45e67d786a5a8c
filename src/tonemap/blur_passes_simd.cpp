// SIMD row passes of the float blur, vectorized across output pixels with
// GCC/Clang vector extensions (the pattern of pow_kernel.cpp: one
// always_inline generic-vector body compiled three times — a portable
// 4-lane build, an 8-lane AVX2 clone and a 16-lane AVX-512 clone — and the
// widest one the CPU has picked once at runtime).
//
// Why this stays bit-identical to the scalar passes: vector lane l carries
// output pixel x+l, and the tap loop accumulates
//   acc[l] += wts[i] * src[x + l - radius + i]
// for i = 0..taps-1 — exactly the scalar form's ascending-tap sequence for
// that pixel. Vectorizing across *pixels* needs no reassociation of any
// pixel's sum (unlike vectorizing across *taps*, which would split one
// pixel's accumulation into partial sums), and IEEE-754 arithmetic is
// deterministic per lane, so the result is the scalar result bit for bit
// at any lane count. The build sets -ffp-contract=off so neither form
// is FMA-contracted behind the other's back on FMA-capable targets. Two
// restructurings keep that sequence too: the horizontal pass reads an
// edge-replicated row, where the sample at every clamped position is the
// one the clamp would pick, and the vertical pass's row blocks share
// source-vector loads between rows, never a row's partial sums.
//
// Vectors never cross a function boundary (locals only) to keep the code
// free of per-target vector ABI concerns (-Wpsabi).
#include <algorithm>
#include <cstring>

#include "tonemap/blur_passes.hpp"

namespace tmhls::tonemap {

namespace {

typedef float v4f __attribute__((vector_size(4 * sizeof(float))));
typedef float v8f __attribute__((vector_size(8 * sizeof(float))));
typedef float v16f __attribute__((vector_size(16 * sizeof(float))));

#define TMHLS_BLUR_INLINE __attribute__((always_inline)) inline

// Fully unrolls the short constant-trip loops over a block's vectors so
// GCC keeps every accumulator in a register (Clang unrolls them anyway).
#if defined(__GNUC__) && !defined(__clang__)
#define TMHLS_BLUR_UNROLL _Pragma("GCC unroll 4")
#else
#define TMHLS_BLUR_UNROLL
#endif

/// Vectorized horizontal-pass row over a padded row: blocks of kCols
/// vectors of columns from x_begin on. Returns the first unprocessed
/// column.
template <typename V, int kCols>
TMHLS_BLUR_INLINE int hpass_row_vec(const float* padded, float* out,
                                    const float* wts, int taps, int x_begin,
                                    int width) {
  constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(float));
  int x = x_begin;
  for (; x + kCols * kLanes <= width; x += kCols * kLanes) {
    const float* base = padded + x;
    V acc[kCols] = {};
    for (int i = 0; i < taps; ++i) {
      // w - V{} is w in every lane, exactly (x - 0 == x for every x, -0
      // included), and compiles to one vbroadcastss; V{} + w would add a
      // scalar add in front of it.
      const V wv = wts[i] - V{};
      TMHLS_BLUR_UNROLL
      for (int c = 0; c < kCols; ++c) {
        V v;
        std::memcpy(&v, base + i + c * kLanes, sizeof(V));
        acc[c] += wv * v;
      }
    }
    TMHLS_BLUR_UNROLL
    for (int c = 0; c < kCols; ++c) {
      std::memcpy(out + x + c * kLanes, &acc[c], sizeof(V));
    }
  }
  return x;
}

/// Vectorized vertical pass of kRows consecutive output rows over
/// taps + kRows - 1 source-row pointers (the clamp hoisted by the caller):
/// output row r reads rows[r, r + taps). Blocks of kCols vectors of
/// columns from x_begin on; returns the first unprocessed column.
///
/// Each source vector is loaded once and added, with weight wts[j - r],
/// into every output row r whose window holds source row j. As j ascends,
/// so does each row's tap index: every row adds its taps in the
/// single-row order, and only the loads are shared.
template <typename V, int kRows, int kCols>
TMHLS_BLUR_INLINE int vpass_rows_vec(const float* const* rows,
                                     float* const* out, const float* wts,
                                     int taps, int x_begin, int width) {
  constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(float));
  int x = x_begin;
  for (; x + kCols * kLanes <= width; x += kCols * kLanes) {
    V acc[kRows][kCols] = {};
    for (int j = 0; j < taps + kRows - 1; ++j) {
      V v[kCols];
      TMHLS_BLUR_UNROLL
      for (int c = 0; c < kCols; ++c) {
        std::memcpy(&v[c], rows[j] + x + c * kLanes, sizeof(V));
      }
      TMHLS_BLUR_UNROLL
      for (int r = 0; r < kRows; ++r) {
        const int i = j - r;
        if (i < 0 || i >= taps) continue;
        const V wv = wts[i] - V{};
        TMHLS_BLUR_UNROLL
        for (int c = 0; c < kCols; ++c) acc[r][c] += wv * v[c];
      }
    }
    TMHLS_BLUR_UNROLL
    for (int r = 0; r < kRows; ++r) {
      TMHLS_BLUR_UNROLL
      for (int c = 0; c < kCols; ++c) {
        std::memcpy(out[r] + x + c * kLanes, &acc[r][c], sizeof(V));
      }
    }
  }
  return x;
}

/// One horizontal row over a padded row: blocks of four vectors of
/// columns, single vectors, then a scalar tail. Four independent
/// accumulator vectors per tap iteration keep the FP units saturated where
/// one would serialize the tap loop on the vector-add latency; each pixel
/// still owns one lane of one accumulator, so its operation sequence is
/// unchanged.
template <typename V>
TMHLS_BLUR_INLINE void hpass_row_body(const float* padded, float* out,
                                      const float* wts, int taps, int width) {
  int x = hpass_row_vec<V, 4>(padded, out, wts, taps, 0, width);
  x = hpass_row_vec<V, 1>(padded, out, wts, taps, x, width);
  const int radius = taps / 2;
  detail::hpass_float_interior(padded + radius, out, wts, taps, radius, x,
                               width);
}

/// kRows vertical-pass output rows: blocks of up to four vectors of
/// columns, single vectors, then a scalar tail per row. A block keeps
/// kRows * kCols accumulators live: at most 8 on the 16-register ISAs, 16
/// with AVX-512's 32 registers.
template <typename V, int kRows>
TMHLS_BLUR_INLINE void vpass_rows_body(const float* const* rows,
                                       float* const* out, const float* wts,
                                       int taps, int width) {
  constexpr int kMaxAccumulators = sizeof(V) == 16 * sizeof(float) ? 16 : 8;
  constexpr int kCols = std::min(4, kMaxAccumulators / kRows);
  int x = vpass_rows_vec<V, kRows, kCols>(rows, out, wts, taps, 0, width);
  x = vpass_rows_vec<V, kRows, 1>(rows, out, wts, taps, x, width);
  for (int r = 0; r < kRows; ++r) {
    detail::vpass_float_columns(rows + r, out[r], wts, taps, x, width);
  }
}

template <typename V>
TMHLS_BLUR_INLINE void vpass_row_body(const float* const* rows, float* out,
                                      const float* wts, int taps, int width) {
  float* const outs[] = {out};
  vpass_rows_body<V, 1>(rows, outs, wts, taps, width);
}

void hpass_row_generic(const float* padded, float* out, const float* wts,
                       int taps, int width) {
  hpass_row_body<v4f>(padded, out, wts, taps, width);
}
void vpass_row_generic(const float* const* rows, float* out,
                       const float* wts, int taps, int width) {
  vpass_row_body<v4f>(rows, out, wts, taps, width);
}
void vpass_block_generic(const float* const* rows, float* const* out,
                         const float* wts, int taps, int width) {
  vpass_rows_body<v4f, kVpassBlockRows>(rows, out, wts, taps, width);
}

// The AVX2 and AVX-512 clones run the identical per-lane mul-then-add
// sequence with 256- and 512-bit instructions (neither target enables FMA,
// and the build sets -ffp-contract=off besides): the dispatch changes the
// encoding and the lane count, never the arithmetic.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TMHLS_BLUR_X86_DISPATCH 1

__attribute__((target("avx2"))) void hpass_row_avx2(const float* padded,
                                                    float* out,
                                                    const float* wts,
                                                    int taps, int width) {
  hpass_row_body<v8f>(padded, out, wts, taps, width);
}
__attribute__((target("avx2"))) void vpass_row_avx2(const float* const* rows,
                                                    float* out,
                                                    const float* wts,
                                                    int taps, int width) {
  vpass_row_body<v8f>(rows, out, wts, taps, width);
}
__attribute__((target("avx2"))) void
vpass_block_avx2(const float* const* rows, float* const* out,
                 const float* wts, int taps, int width) {
  vpass_rows_body<v8f, kVpassBlockRows>(rows, out, wts, taps, width);
}

__attribute__((target("avx512f"))) void
hpass_row_avx512(const float* padded, float* out, const float* wts, int taps,
                 int width) {
  hpass_row_body<v16f>(padded, out, wts, taps, width);
}
__attribute__((target("avx512f"))) void
vpass_row_avx512(const float* const* rows, float* out, const float* wts,
                 int taps, int width) {
  vpass_row_body<v16f>(rows, out, wts, taps, width);
}
__attribute__((target("avx512f"))) void
vpass_block_avx512(const float* const* rows, float* const* out,
                   const float* wts, int taps, int width) {
  vpass_rows_body<v16f, kVpassBlockRows>(rows, out, wts, taps, width);
}
#endif

/// The widest build the CPU has.
const detail::BlurRowKernels& active() {
  static const detail::BlurRowKernels& k =
      detail::blur_row_kernels_avx512() != nullptr
          ? *detail::blur_row_kernels_avx512()
      : detail::blur_row_kernels_avx2() != nullptr
          ? *detail::blur_row_kernels_avx2()
          : detail::blur_row_kernels_generic();
  return k;
}

} // namespace

namespace detail {

const BlurRowKernels& blur_row_kernels_generic() {
  static const BlurRowKernels k{4, hpass_row_generic, vpass_row_generic,
                                vpass_block_generic};
  return k;
}

const BlurRowKernels* blur_row_kernels_avx2() {
#ifdef TMHLS_BLUR_X86_DISPATCH
  static const BlurRowKernels k{8, hpass_row_avx2, vpass_row_avx2,
                                vpass_block_avx2};
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has ? &k : nullptr;
#else
  return nullptr;
#endif
}

const BlurRowKernels* blur_row_kernels_avx512() {
#ifdef TMHLS_BLUR_X86_DISPATCH
  static const BlurRowKernels k{16, hpass_row_avx512, vpass_row_avx512,
                                vpass_block_avx512};
  static const bool has = __builtin_cpu_supports("avx512f") != 0;
  return has ? &k : nullptr;
#else
  return nullptr;
#endif
}

} // namespace detail

int blur_row_simd_lanes() { return active().lanes; }

void hpass_float_row_simd(const float* padded, float* out, const float* wts,
                          int taps, int width) {
  active().hpass(padded, out, wts, taps, width);
}

void vpass_float_row_simd(const float* const* rows, float* out,
                          const float* wts, int taps, int width) {
  active().vpass(rows, out, wts, taps, width);
}

void vpass_float_row_block_simd(const float* const* rows, float* const* out,
                                const float* wts, int taps, int width) {
  active().vpass_block(rows, out, wts, taps, width);
}

} // namespace tmhls::tonemap
