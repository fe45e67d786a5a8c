// pow / log2 / exp2 over rows, vectorized with GCC/Clang vector extensions
// (the blur_passes_simd.cpp pattern: one always_inline generic-vector
// body; an 8-lane AVX2 and a 16-lane AVX-512 clone of it, the widest one
// the CPU has picked once at runtime; and a row tail run through a
// zero-padded vector so the tail executes the very same instruction
// sequence). The portable build instantiates the body on 4-lane vectors:
// those map onto SSE2/NEON registers, whereas GCC lowers 8-lane
// comparisons to scalar code on targets without 256-bit vectors. Every
// operation is lane-wise, so the lane count changes no bit.
//
// log2(x): split x into 2^e * m with m folded into [sqrt(1/2), sqrt(2)),
// then with r = m - 1 and u = r / (r + 2),
//     ln(m) = 2 * (u + u^3/3 + u^5/5 + ... + u^11/11),
// scaled by 1/ln 2 (|u| <= 0.1716, so the first omitted term is below
// 2^-33 of the sum). Denormal inputs are rescaled by 2^23 first.
//
// exp2(t): n = round(t) with the 1.5 * 2^23 trick, f = t - n in
// [-1/2, 1/2], 2^f from the degree-7 Taylor polynomial (truncation below
// 2^-27 relative), then 2^n applied in two exponent-field steps so that a
// result below 2^-126 is rounded once, correctly, into a denormal.
//
// pow(x, y) = exp2(y * log2(x)) with explicit selects for x <= 0 (-> +0),
// +Inf and NaN.
//
// Masking runs as one pass per vector of pixels: the exponent
// 2^((clamp(m, 0, 1) - 0.5) / 0.5) once per pixel, repeated across the
// pixel's interleaved samples by compile-time __builtin_shufflevector
// patterns (GCC >= 12, clang), pow per sample and, in the fused engine,
// the brightness/contrast clamp, all before one store.
//
// Selects are bitwise and/or on integer lane masks rather than vector ?:
// (which not every compiler accepts on generic vectors). Vectors never
// cross a function boundary by value — the helpers take references — so
// no per-target vector ABI is involved (-Wpsabi stays quiet).
#include "tonemap/pow_kernel.hpp"

#include <cstdint>
#include <cstring>
#include <utility>

namespace tmhls::tonemap {

namespace {

typedef float v4f __attribute__((vector_size(4 * sizeof(float))));
typedef float v8f __attribute__((vector_size(8 * sizeof(float))));
typedef float v16f __attribute__((vector_size(16 * sizeof(float))));

/// The lane-mask type of a float vector (what a comparison yields).
template <typename V>
using MaskOf = decltype(V{} < V{});

#define TMHLS_POW_INLINE __attribute__((always_inline)) inline

/// out = mask ? a : b, lane-wise (mask lanes are all-ones or all-zeros).
template <typename V>
TMHLS_POW_INLINE void select(const MaskOf<V>& mask, const V& a, const V& b,
                             V& out) {
  using VI = MaskOf<V>;
  out = (V)((mask & (VI)a) | (~mask & (VI)b));
}

/// log2 of positive finite lanes; other lanes get a finite value the
/// caller overrides.
template <typename V>
TMHLS_POW_INLINE void log2_lanes(const V& x, V& out) {
  using VI = MaskOf<V>;
  // Denormals get 23 more exponent bits so the mantissa split below sees
  // a normal number.
  const VI tiny = x < 1.17549435e-38f;
  V xs{};
  select<V>(tiny, x * 8388608.0f, x, xs);
  const VI bits = (VI)xs;
  VI e = (bits >> 23) - 127 + (tiny & -23);
  VI mbits = (bits & 0x007fffff) | 0x3f800000;
  // m >= sqrt(2): halve m (exponent field - 1) and count it in e.
  const VI big = mbits >= 0x3fb504f3;
  mbits -= big & 0x00800000;
  e -= big;
  const V r = (V)mbits - 1.0f;
  const V u = r / (r + 2.0f);
  const V u2 = u * u;
  V s = u2 * 0.262308189f + 0.320598898f;
  s = u2 * s + 0.412198583f;
  s = u2 * s + 0.577078016f;
  s = u2 * s + 0.961796694f;
  s = u2 * s + 2.88539008f;
  out = __builtin_convertvector(e, V) + u * s;
}

template <typename V>
TMHLS_POW_INLINE void exp2_lanes(const V& t_in, V& out) {
  using VI = MaskOf<V>;
  // Clamp to [-151, 129], where the result is already 0 / +Inf. The lower
  // bound is an ordered ">=" test, so NaN lanes take -151 too and no NaN
  // reaches the float-to-int conversion; they get their NaN back last.
  V t{};
  select<V>(t_in > 129.0f, V{} + 129.0f, t_in, t);
  select<V>(t >= -151.0f, t, V{} - 151.0f, t);
  const V n = (t + 12582912.0f) - 12582912.0f; // round to nearest even
  const V f = t - n;
  V p = f * 1.52527338e-05f + 1.54035304e-04f;
  p = f * p + 1.33335581e-03f;
  p = f * p + 9.61812911e-03f;
  p = f * p + 5.55041087e-02f;
  p = f * p + 2.40226507e-01f;
  p = f * p + 6.93147181e-01f;
  p = f * p + 1.0f;
  const VI ni = __builtin_convertvector(n, VI);
  const VI n1 = ni >> 1;
  const VI n2 = ni - n1;
  const V r = (p * (V)((n1 + 127) << 23)) * (V)((n2 + 127) << 23);
  select<V>(t_in != t_in, t_in, r, out);
}

/// max(x, 0) ^ y for one vector of samples.
template <typename V>
TMHLS_POW_INLINE void pow_lanes(const V& x, const V& y, V& out) {
  using VI = MaskOf<V>;
  V l{};
  log2_lanes(x, l);
  V r{};
  exp2_lanes<V>(y * l, r);
  // +Inf and NaN (exponent field all ones) are their own result; then
  // every lane that is not > 0 — negatives, -Inf and both zeros — is +0.
  select<V>(((VI)x & 0x7f800000) == 0x7f800000, x, r, r);
  out = (V)(~(x <= 0.0f) & (VI)r);
}

/// The one row driver, over items of kC interleaved samples: `lanes` maps
/// the kC sample vectors of kLanes items, and the vector of their
/// `per_item` values where the entry has them, to kC result vectors in
/// place. Full blocks first, then the remaining items are copied into
/// zero-padded vectors and run through the same body. Each block is loaded
/// before it is stored, so `out` may alias `x`.
template <typename V, int kC, typename Lanes>
TMHLS_POW_INLINE void run_row(const float* x, const float* per_item,
                              float* out, std::size_t items,
                              const Lanes& lanes) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
  V v[kC] = {};
  V m{};
  std::size_t i = 0;
  for (; i + kLanes <= items; i += kLanes) {
    std::memcpy(v, x + i * kC, sizeof v);
    if (per_item != nullptr) std::memcpy(&m, per_item + i, sizeof m);
    lanes(v, m);
    std::memcpy(out + i * kC, v, sizeof v);
  }
  if (i == items) return;
  const std::size_t rest = items - i;
  float pad[kC + 1][kLanes] = {};
  std::memcpy(pad, x + i * kC, rest * kC * sizeof(float));
  if (per_item != nullptr) {
    std::memcpy(pad[kC], per_item + i, rest * sizeof(float));
  }
  std::memcpy(v, pad, sizeof v);
  std::memcpy(&m, pad[kC], sizeof m);
  lanes(v, m);
  std::memcpy(out + i * kC, v, rest * kC * sizeof(float));
}

/// clamp(v, lo, hi) lane-wise, with the scalar tmhls::clamp's selects
/// (NaN and -0 pass through).
template <typename V>
TMHLS_POW_INLINE void clamp_lanes(const V& v, float lo, float hi, V& out) {
  const MaskOf<V> below = v < lo;
  select<V>(v > hi, V{} + hi, v, out);
  select<V>(below, V{} + lo, out, out);
}

/// Lane j of y[k] = lane (k * kLanes + j) / kC of g, for k >= kK: each
/// pixel's value repeated for its kC interleaved samples, by compile-time
/// shuffles.
template <int kC, std::size_t kK = 0, typename V, std::size_t... J>
TMHLS_POW_INLINE void spread(const V& g, V (&y)[kC],
                             std::index_sequence<J...> lanes) {
  y[kK] = __builtin_shufflevector(g, g, (kK * sizeof...(J) + J) / kC...);
  if constexpr (kK + 1 < kC) spread<kC, kK + 1>(g, y, lanes);
}

template <typename V>
struct PowShared {
  V y;
  TMHLS_POW_INLINE void operator()(V (&v)[1], const V&) const {
    pow_lanes(v[0], y, v[0]);
  }
};
template <typename V>
struct Exp2 {
  TMHLS_POW_INLINE void operator()(V (&v)[1], const V&) const {
    exp2_lanes(v[0], v[0]);
  }
};

/// Non-linear masking of kLanes pixels of kC samples: the exponent once
/// per pixel, spread to the pixel's samples, the power per sample and,
/// when kAdjust, the brightness/contrast step before the one store.
template <typename V, int kC, bool kAdjust>
struct Masking {
  float brightness = 0.0f;
  float contrast = 0.0f;
  TMHLS_POW_INLINE void operator()(V (&v)[kC], const V& m) const {
    V g{};
    clamp_lanes(m, 0.0f, 1.0f, g);
    exp2_lanes<V>((g - 0.5f) / 0.5f, g);
    V y[kC] = {};
    spread<kC>(g, y, std::make_index_sequence<sizeof(V) / sizeof(float)>{});
    for (int k = 0; k < kC; ++k) {
      pow_lanes(v[k], y[k], v[k]);
      if constexpr (kAdjust) {
        clamp_lanes<V>((v[k] - 0.5f) * contrast + 0.5f + brightness, 0.0f,
                       1.0f, v[k]);
      }
    }
  }
};

template <typename V>
TMHLS_POW_INLINE void pow_shared_body(const float* x, float* out,
                                      std::size_t n, float y) {
  run_row<V, 1>(x, nullptr, out, n, PowShared<V>{V{} + y});
}
template <typename V>
TMHLS_POW_INLINE void exp2_body(const float* t, float* out, std::size_t n) {
  run_row<V, 1>(t, nullptr, out, n, Exp2<V>{});
}
/// The masking body for `channels` samples per pixel (kC counts up to it)
/// and an optional adjust step, each a compile-time instantiation.
template <typename V, int kC = 1>
TMHLS_POW_INLINE void masking_body(const float* x, const float* mask,
                                   float* out, std::size_t width, int channels,
                                   const BrightnessContrast* adjust) {
  if constexpr (kC < 4) {
    if (channels > kC) {
      return masking_body<V, kC + 1>(x, mask, out, width, channels, adjust);
    }
  }
  if (adjust == nullptr) {
    run_row<V, kC>(x, mask, out, width, Masking<V, kC, false>{});
  } else {
    run_row<V, kC>(x, mask, out, width,
                   Masking<V, kC, true>{adjust->brightness, adjust->contrast});
  }
}

void pow_shared_generic(const float* x, float* out, std::size_t n, float y) {
  pow_shared_body<v4f>(x, out, n, y);
}
void exp2_generic(const float* t, float* out, std::size_t n) {
  exp2_body<v4f>(t, out, n);
}
void masking_generic(const float* x, const float* mask, float* out,
                     std::size_t width, int channels,
                     const BrightnessContrast* adjust) {
  masking_body<v4f>(x, mask, out, width, channels, adjust);
}

// The AVX2 and AVX-512 clones run the identical per-lane operation
// sequence with 256- and 512-bit instructions (neither target enables FMA,
// and the build sets -ffp-contract=off besides): the dispatch changes the
// encoding and the lane count, never the arithmetic.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TMHLS_POW_X86_DISPATCH 1

__attribute__((target("avx2"))) void pow_shared_avx2(const float* x,
                                                     float* out,
                                                     std::size_t n, float y) {
  pow_shared_body<v8f>(x, out, n, y);
}
__attribute__((target("avx2"))) void exp2_avx2(const float* t, float* out,
                                               std::size_t n) {
  exp2_body<v8f>(t, out, n);
}
__attribute__((target("avx2"))) void
masking_avx2(const float* x, const float* mask, float* out, std::size_t width,
             int channels, const BrightnessContrast* adjust) {
  masking_body<v8f>(x, mask, out, width, channels, adjust);
}

__attribute__((target("avx512f"))) void
pow_shared_avx512(const float* x, float* out, std::size_t n, float y) {
  pow_shared_body<v16f>(x, out, n, y);
}
__attribute__((target("avx512f"))) void exp2_avx512(const float* t,
                                                    float* out,
                                                    std::size_t n) {
  exp2_body<v16f>(t, out, n);
}
__attribute__((target("avx512f"))) void
masking_avx512(const float* x, const float* mask, float* out,
               std::size_t width, int channels,
               const BrightnessContrast* adjust) {
  masking_body<v16f>(x, mask, out, width, channels, adjust);
}
#endif

/// The widest build the CPU has.
const detail::PowKernels& active() {
  static const detail::PowKernels& k =
      detail::pow_kernels_avx512() != nullptr ? *detail::pow_kernels_avx512()
      : detail::pow_kernels_avx2() != nullptr ? *detail::pow_kernels_avx2()
                                              : detail::pow_kernels_generic();
  return k;
}

} // namespace

namespace detail {

const PowKernels& pow_kernels_generic() {
  static const PowKernels k{4, pow_shared_generic, exp2_generic,
                            masking_generic};
  return k;
}

const PowKernels* pow_kernels_avx2() {
#ifdef TMHLS_POW_X86_DISPATCH
  static const PowKernels k{8, pow_shared_avx2, exp2_avx2, masking_avx2};
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has ? &k : nullptr;
#else
  return nullptr;
#endif
}

const PowKernels* pow_kernels_avx512() {
#ifdef TMHLS_POW_X86_DISPATCH
  static const PowKernels k{16, pow_shared_avx512, exp2_avx512,
                            masking_avx512};
  static const bool has = __builtin_cpu_supports("avx512f") != 0;
  return has ? &k : nullptr;
#else
  return nullptr;
#endif
}

} // namespace detail

void pow_row(const float* x, float* out, std::size_t n, float y) {
  active().pow_shared(x, out, n, y);
}

void exp2_row(const float* t, float* out, std::size_t n) {
  active().exp2(t, out, n);
}

void masking_pow_row(const float* x, const float* mask, float* out,
                     std::size_t width, int channels,
                     const BrightnessContrast* adjust) {
  active().masking(x, mask, out, width, channels, adjust);
}

int pow_kernel_lanes() { return active().lanes; }

} // namespace tmhls::tonemap
