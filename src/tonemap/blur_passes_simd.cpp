// SIMD row passes of the float blur, vectorized across output pixels with
// GCC/Clang vector extensions (the pattern of pow_kernel.cpp: one
// always_inline generic-vector body, a portable 4-lane build, an 8-lane
// AVX2 clone of it picked once at runtime).
//
// Why this stays bit-identical to the scalar passes: vector lane l carries
// output pixel x+l, and the tap loop accumulates
//   acc[l] += wts[i] * src[x + l - radius + i]
// for i = 0..taps-1 — exactly the scalar form's ascending-tap sequence for
// that pixel. Vectorizing across *pixels* needs no reassociation of any
// pixel's sum (unlike vectorizing across *taps*, which would split one
// pixel's accumulation into partial sums), and IEEE-754 arithmetic is
// deterministic per lane, so the result is the scalar result bit for bit
// at either lane count. The build sets -ffp-contract=off so neither form
// is FMA-contracted behind the other's back on FMA-capable targets.
//
// Vectors never cross a function boundary (locals only) to keep the code
// free of per-target vector ABI concerns (-Wpsabi).
#include <cstring>

#include "tonemap/blur_passes.hpp"

namespace tmhls::tonemap {

namespace {

typedef float v4f __attribute__((vector_size(4 * sizeof(float))));
typedef float v8f __attribute__((vector_size(8 * sizeof(float))));

#define TMHLS_BLUR_INLINE __attribute__((always_inline)) inline

/// Vectorized interior of one horizontal-pass row: full vector blocks of
/// columns in [x_begin, x_end). Returns the first unprocessed column (the
/// caller finishes the scalar tail).
template <typename V>
TMHLS_BLUR_INLINE int hpass_interior_vec(const float* row, float* out,
                                         const float* wts, int taps,
                                         int radius, int x_begin, int x_end) {
  constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(float));
  int x = x_begin;
  // Four independent accumulator vectors (4 * kLanes pixels) per tap
  // iteration: a single accumulator serializes the tap loop on the
  // vector-add latency; four chains keep the FP units saturated. Each
  // pixel still owns exactly one lane of one accumulator, so its
  // operation sequence — and the result — is unchanged.
  for (; x + 4 * kLanes <= x_end; x += 4 * kLanes) {
    const float* base = row + (x - radius);
    V a0 = {};
    V a1 = {};
    V a2 = {};
    V a3 = {};
    for (int i = 0; i < taps; ++i) {
      V wv;
      for (int l = 0; l < kLanes; ++l) wv[l] = wts[i];
      V v0;
      V v1;
      V v2;
      V v3;
      std::memcpy(&v0, base + i, sizeof(V));
      std::memcpy(&v1, base + i + kLanes, sizeof(V));
      std::memcpy(&v2, base + i + 2 * kLanes, sizeof(V));
      std::memcpy(&v3, base + i + 3 * kLanes, sizeof(V));
      a0 += wv * v0;
      a1 += wv * v1;
      a2 += wv * v2;
      a3 += wv * v3;
    }
    std::memcpy(out + x, &a0, sizeof(V));
    std::memcpy(out + x + kLanes, &a1, sizeof(V));
    std::memcpy(out + x + 2 * kLanes, &a2, sizeof(V));
    std::memcpy(out + x + 3 * kLanes, &a3, sizeof(V));
  }
  for (; x + kLanes <= x_end; x += kLanes) {
    const float* base = row + (x - radius);
    V acc = {};
    for (int i = 0; i < taps; ++i) {
      V v;
      std::memcpy(&v, base + i, sizeof(V));
      V wv;
      for (int l = 0; l < kLanes; ++l) wv[l] = wts[i];
      acc += wv * v;
    }
    std::memcpy(out + x, &acc, sizeof(V));
  }
  return x;
}

/// Vectorized vertical-pass row over per-tap source-row pointers (the
/// clamp hoisted by the caller). Returns the first unprocessed column.
template <typename V>
TMHLS_BLUR_INLINE int vpass_row_vec(const float* const* rows, float* out,
                                    const float* wts, int taps, int width) {
  constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(float));
  int x = 0;
  // Same four-accumulator treatment as the horizontal interior.
  for (; x + 4 * kLanes <= width; x += 4 * kLanes) {
    V a0 = {};
    V a1 = {};
    V a2 = {};
    V a3 = {};
    for (int i = 0; i < taps; ++i) {
      const float* r = rows[i] + x;
      V wv;
      for (int l = 0; l < kLanes; ++l) wv[l] = wts[i];
      V v0;
      V v1;
      V v2;
      V v3;
      std::memcpy(&v0, r, sizeof(V));
      std::memcpy(&v1, r + kLanes, sizeof(V));
      std::memcpy(&v2, r + 2 * kLanes, sizeof(V));
      std::memcpy(&v3, r + 3 * kLanes, sizeof(V));
      a0 += wv * v0;
      a1 += wv * v1;
      a2 += wv * v2;
      a3 += wv * v3;
    }
    std::memcpy(out + x, &a0, sizeof(V));
    std::memcpy(out + x + kLanes, &a1, sizeof(V));
    std::memcpy(out + x + 2 * kLanes, &a2, sizeof(V));
    std::memcpy(out + x + 3 * kLanes, &a3, sizeof(V));
  }
  for (; x + kLanes <= width; x += kLanes) {
    V acc = {};
    for (int i = 0; i < taps; ++i) {
      V v;
      std::memcpy(&v, rows[i] + x, sizeof(V));
      V wv;
      for (int l = 0; l < kLanes; ++l) wv[l] = wts[i];
      acc += wv * v;
    }
    std::memcpy(out + x, &acc, sizeof(V));
  }
  return x;
}

/// One horizontal row: scalar borders, vectorized interior, scalar tail of
/// the interior (fewer than one vector of columns left).
template <typename V>
TMHLS_BLUR_INLINE void hpass_row_body(const float* row, float* out,
                                      const float* wts, int taps, int radius,
                                      int width) {
  const detail::ColumnRange in = detail::interior_columns(width, radius);
  detail::hpass_float_border(row, out, wts, taps, radius, width, 0, in.begin);
  const int x =
      hpass_interior_vec<V>(row, out, wts, taps, radius, in.begin, in.end);
  detail::hpass_float_interior(row, out, wts, taps, radius, x, in.end);
  detail::hpass_float_border(row, out, wts, taps, radius, width, in.end,
                             width);
}

template <typename V>
TMHLS_BLUR_INLINE void vpass_row_body(const float* const* rows, float* out,
                                      const float* wts, int taps, int width) {
  const int x = vpass_row_vec<V>(rows, out, wts, taps, width);
  detail::vpass_float_columns(rows, out, wts, taps, x, width);
}

void hpass_row_generic(const float* row, float* out, const float* wts,
                       int taps, int radius, int width) {
  hpass_row_body<v4f>(row, out, wts, taps, radius, width);
}
void vpass_row_generic(const float* const* rows, float* out,
                       const float* wts, int taps, int width) {
  vpass_row_body<v4f>(rows, out, wts, taps, width);
}

// The AVX2 clone runs the identical per-lane mul-then-add sequence with
// 256-bit instructions (target("avx2") does not enable FMA, and the build
// sets -ffp-contract=off besides): the dispatch changes the encoding and
// the lane count, never the arithmetic.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TMHLS_BLUR_X86_DISPATCH 1

__attribute__((target("avx2"))) void hpass_row_avx2(const float* row,
                                                    float* out,
                                                    const float* wts,
                                                    int taps, int radius,
                                                    int width) {
  hpass_row_body<v8f>(row, out, wts, taps, radius, width);
}
__attribute__((target("avx2"))) void vpass_row_avx2(const float* const* rows,
                                                    float* out,
                                                    const float* wts,
                                                    int taps, int width) {
  vpass_row_body<v8f>(rows, out, wts, taps, width);
}
#endif

const detail::BlurRowKernels& active() {
  static const detail::BlurRowKernels& k =
      detail::blur_row_kernels_avx2() != nullptr
          ? *detail::blur_row_kernels_avx2()
          : detail::blur_row_kernels_generic();
  return k;
}

} // namespace

namespace detail {

const BlurRowKernels& blur_row_kernels_generic() {
  static const BlurRowKernels k{4, hpass_row_generic, vpass_row_generic};
  return k;
}

const BlurRowKernels* blur_row_kernels_avx2() {
#ifdef TMHLS_BLUR_X86_DISPATCH
  static const BlurRowKernels k{8, hpass_row_avx2, vpass_row_avx2};
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has ? &k : nullptr;
#else
  return nullptr;
#endif
}

} // namespace detail

int blur_row_simd_lanes() { return active().lanes; }

void hpass_float_row_simd(const float* row, float* out, const float* wts,
                          int taps, int radius, int width) {
  active().hpass(row, out, wts, taps, radius, width);
}

void vpass_float_row_simd(const float* const* rows, float* out,
                          const float* wts, int taps, int width) {
  active().vpass(rows, out, wts, taps, width);
}

} // namespace tmhls::tonemap
