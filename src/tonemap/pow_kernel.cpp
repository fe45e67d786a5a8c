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
// Several chains in flight. One vector's pow is a dependent chain of
// about 90 operations (log2 series, a divide, the exp2 polynomial): run
// one vector at a time, the core waits on latency with its vector ports
// mostly idle, and the out-of-order window is too short to overlap the
// next iteration's chain. So every step of log2_lanes / exp2_lanes /
// pow_lanes runs on an array of K independent vectors before the next
// step starts; the compiler emits the K chains interleaved and the kernel
// becomes bound by its ports instead. pow_row and exp2_row take K =
// detail::kSampleVectors sample vectors per block; masking takes P =
// detail::kPixelVectors pixel vectors, i.e. P exp2 chains and
// P * channels pow chains. The rest of a row runs as K = 1 blocks of the
// same templates. Each lane still sees the same operations in the same
// order, so no bit moves. K = 8 and P = 2 on every build. A harness
// timing each detail::PowKernels table over 512x384x3 frames (4-vCPU
// Xeon, medians of alternating runs) found them, among K in
// {1, 2, 4, 8, 16} and P in {1, 2, 4}, best or within the spread of the
// best on all three builds. From K = P = 1, display encode / masking +
// adjust:
//   - 4 lanes:  3.42 -> 2.00 ms, 3.63 -> 3.06 ms;
//   - 8 lanes:  1.70 -> 1.17 ms, 2.43 -> 1.59 ms;
//   - 16 lanes: 0.96 -> 0.63 ms, 1.06 -> 0.92 ms.
// perfbench runs only the widest build the CPU has, so the end-to-end
// effect on hosts without AVX-512 is unverified.
// A block is loaded and stored one vector at a time: one memcpy of the
// whole array goes through the stack, and on the AVX2 build (whose
// unaligned 256-bit loads GCC splits in halves) every reload then missed
// store forwarding, which had made that build slower than the 4-lane one.
//
// The fused engine's front (front_row) is one more body of the same row
// driver. Each block of source samples is divided by the scale in
// registers (and clamped to [0, 1] for an external scale), raised to
// 1/gamma by the same interleaved pow chains, and stored to the
// normalized-row slot; compile-time shuffles (gather, the inverse of the
// masking's spread) then pull each pixel vector's r, g and b lanes out of
// the encoded vectors for the luminance. The engine used to run these as
// four passes per source row: the divide, the pow, the luminance and the
// edge pad. The divide was a memory-bound walk over the source row
// between compute-bound ones (single-thread 1024x768 on a 4-vCPU Xeon:
// 1.3 ms of divide, 0.86 ms of it with the row cache-hot). Folded into
// the pow block's load, it waits on memory under the pow chains instead,
// and the luminance reads the encoded samples from registers instead of
// the stored row. The front of that frame went 4.69 -> 3.72 ms (16
// lanes, median of 12 alternating processes). A second vector pass for the luminance over the L1-hot row
// measured the same (1024x3 row: 4.84 against 4.87 us), so the one-pass
// form stays. A front block holds kSampleVectors / channels pixel
// vectors (2 or 3 pixel vectors per block measured the same for 3
// channels). Every lane runs normalize_*_row's, pow_row's and
// img::luminance_row's IEEE operations in their order, so no bit moves.
//
// max_sample_row is a vector kernel of the same table: kSampleVectors
// folds of the m < x ? x : m select (maxps), then a scalar fold of the
// rest. The select never takes NaN and the largest positive sample wins
// in any order, so the result has the scalar fold's bits.
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

/// log2 of positive finite lanes of kK vectors; other lanes get a finite
/// value the caller overrides. Each step runs on all kK vectors before the
/// next one starts.
template <int kK, typename V>
TMHLS_POW_INLINE void log2_lanes(const V (&x)[kK], V (&out)[kK]) {
  using VI = MaskOf<V>;
  VI e[kK];
  V u[kK], u2[kK], s[kK];
  for (int k = 0; k < kK; ++k) {
    // Denormals get 23 more exponent bits so the mantissa split below sees
    // a normal number.
    const VI tiny = x[k] < 1.17549435e-38f;
    V xs{};
    select<V>(tiny, x[k] * 8388608.0f, x[k], xs);
    const VI bits = (VI)xs;
    e[k] = (bits >> 23) - 127 + (tiny & -23);
    VI mbits = (bits & 0x007fffff) | 0x3f800000;
    // m >= sqrt(2): halve m (exponent field - 1) and count it in e.
    const VI big = mbits >= 0x3fb504f3;
    mbits -= big & 0x00800000;
    e[k] -= big;
    const V r = (V)mbits - 1.0f;
    u[k] = r / (r + 2.0f);
    u2[k] = u[k] * u[k];
    s[k] = u2[k] * 0.262308189f + 0.320598898f;
  }
  for (const float c : {0.412198583f, 0.577078016f, 0.961796694f,
                        2.88539008f}) {
    for (int k = 0; k < kK; ++k) s[k] = u2[k] * s[k] + c;
  }
  for (int k = 0; k < kK; ++k) {
    out[k] = __builtin_convertvector(e[k], V) + u[k] * s[k];
  }
}

/// 2^t of kK vectors, step by step like log2_lanes.
template <int kK, typename V>
TMHLS_POW_INLINE void exp2_lanes(const V (&t_in)[kK], V (&out)[kK]) {
  using VI = MaskOf<V>;
  V t[kK], f[kK], n[kK], p[kK];
  for (int k = 0; k < kK; ++k) {
    // Clamp to [-151, 129], where the result is already 0 / +Inf. The
    // lower bound is an ordered ">=" test, so NaN lanes take -151 too and
    // no NaN reaches the float-to-int conversion; they get their NaN back
    // last.
    select<V>(t_in[k] > 129.0f, V{} + 129.0f, t_in[k], t[k]);
    select<V>(t[k] >= -151.0f, t[k], V{} - 151.0f, t[k]);
    n[k] = (t[k] + 12582912.0f) - 12582912.0f; // round to nearest even
    f[k] = t[k] - n[k];
    p[k] = f[k] * 1.52527338e-05f + 1.54035304e-04f;
  }
  for (const float c : {1.33335581e-03f, 9.61812911e-03f, 5.55041087e-02f,
                        2.40226507e-01f, 6.93147181e-01f, 1.0f}) {
    for (int k = 0; k < kK; ++k) p[k] = f[k] * p[k] + c;
  }
  for (int k = 0; k < kK; ++k) {
    const VI ni = __builtin_convertvector(n[k], VI);
    const VI n1 = ni >> 1;
    const VI n2 = ni - n1;
    const V r = (p[k] * (V)((n1 + 127) << 23)) * (V)((n2 + 127) << 23);
    select<V>(t_in[k] != t_in[k], t_in[k], r, out[k]);
  }
}

/// max(x, 0) ^ y for kK vectors of samples.
template <int kK, typename V>
TMHLS_POW_INLINE void pow_lanes(const V (&x)[kK], const V (&y)[kK],
                                V (&out)[kK]) {
  using VI = MaskOf<V>;
  V l[kK];
  log2_lanes(x, l);
  for (int k = 0; k < kK; ++k) l[k] = y[k] * l[k];
  exp2_lanes(l, l);
  for (int k = 0; k < kK; ++k) {
    // +Inf and NaN (exponent field all ones) are their own result; then
    // every lane that is not > 0 — negatives, -Inf and both zeros — is +0.
    select<V>(((VI)x[k] & 0x7f800000) == 0x7f800000, x[k], l[k], l[k]);
    out[k] = (V)(~(x[k] <= 0.0f) & (VI)l[k]);
  }
}

/// v[j] = the kLanes floats at p + j * kLanes: one vector load each (one
/// memcpy of the whole array would go through the stack).
template <typename V, std::size_t kN>
TMHLS_POW_INLINE void load(const float* p, V (&v)[kN]) {
  for (std::size_t j = 0; j < kN; ++j) {
    std::memcpy(&v[j], p + j * (sizeof(V) / sizeof(float)), sizeof(V));
  }
}
template <typename V, std::size_t kN>
TMHLS_POW_INLINE void store(const V (&v)[kN], float* p) {
  for (std::size_t j = 0; j < kN; ++j) {
    std::memcpy(p + j * (sizeof(V) / sizeof(float)), &v[j], sizeof(V));
  }
}

/// The one row driver, over items of kC interleaved samples: `lanes` maps
/// the kB * kC sample vectors of kB vectors of items to result vectors in
/// place, reading the kB vectors of their `per_item` values where the
/// entry has them, or writing one value per item into them, stored to
/// `item_out`, where it makes them. Full blocks of kB vectors first; the
/// rest of the row runs as kB = 1 blocks, the last copied into
/// zero-padded vectors so it goes through the same body. Each block is
/// loaded before it is stored, so `out` may alias `x`.
template <typename V, int kC, int kB, typename Lanes>
TMHLS_POW_INLINE void run_row(const float* x, const float* per_item,
                              float* out, float* item_out, std::size_t items,
                              const Lanes& lanes) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
  std::size_t i = 0;
  for (; i + kB * kLanes <= items; i += kB * kLanes) {
    V v[kB * kC];
    V m[kB] = {};
    load(x + i * kC, v);
    if (per_item != nullptr) load(per_item + i, m);
    lanes(v, m);
    store(v, out + i * kC);
    if (item_out != nullptr) store(m, item_out + i);
  }
  if constexpr (kB > 1) {
    run_row<V, kC, 1>(x + i * kC, per_item != nullptr ? per_item + i : nullptr,
                      out + i * kC, item_out != nullptr ? item_out + i : nullptr,
                      items - i, lanes);
  } else if (i < items) {
    const std::size_t rest = items - i;
    float pad[kC + 1][kLanes] = {};
    std::memcpy(pad, x + i * kC, rest * kC * sizeof(float));
    if (per_item != nullptr) {
      std::memcpy(pad[kC], per_item + i, rest * sizeof(float));
    }
    V v[kC];
    V m[1];
    load(pad[0], v);
    load(pad[kC], m);
    lanes(v, m);
    store(v, pad[0]);
    std::memcpy(out + i * kC, pad, rest * kC * sizeof(float));
    if (item_out != nullptr) {
      store(m, pad[kC]);
      std::memcpy(item_out + i, pad[kC], rest * sizeof(float));
    }
  }
}

/// clamp(v, lo, hi) lane-wise, with the scalar tmhls::clamp's selects
/// (NaN and -0 pass through).
template <typename V>
TMHLS_POW_INLINE void clamp_lanes(const V& v, float lo, float hi, V& out) {
  const MaskOf<V> below = v < lo;
  select<V>(v > hi, V{} + hi, v, out);
  select<V>(below, V{} + lo, out, out);
}

/// Lane j of y[k] = lane (k * kLanes + j) / kC of g, for k in [kK, kC):
/// each pixel's value repeated for its kC interleaved samples, by
/// compile-time shuffles.
template <int kC, std::size_t kK = 0, typename V, std::size_t... J>
TMHLS_POW_INLINE void spread(const V& g, V* y,
                             std::index_sequence<J...> lanes) {
  y[kK] = __builtin_shufflevector(g, g, (kK * sizeof...(J) + J) / kC...);
  if constexpr (kK + 1 < kC) spread<kC, kK + 1>(g, y, lanes);
}

/// Lane j of y = sample j * kC + kCh of the kC (3 or 4) sample vectors
/// at v (lane s % kLanes of v[s / kLanes]): channel kCh of the vector's
/// pixels, the inverse of spread, by compile-time shuffles. Lanes taken
/// from the other pair of vectors are don't-cares in each pair's shuffle.
template <int kC, int kCh, typename V, std::size_t... J>
TMHLS_POW_INLINE void gather(const V* v, V& y, std::index_sequence<J...>) {
  constexpr std::size_t kPair = 2 * sizeof...(J);
  const V lo = __builtin_shufflevector(v[0], v[1], (J * kC + kCh) % kPair...);
  const V hi =
      __builtin_shufflevector(v[2], v[kC - 1], (J * kC + kCh) % kPair...);
  y = __builtin_shufflevector(
      lo, hi, (J * kC + kCh < kPair ? J : J + sizeof...(J))...);
}

template <typename V>
struct PowShared {
  V y;
  template <int kB>
  TMHLS_POW_INLINE void operator()(V (&v)[kB], const V (&)[kB]) const {
    V ys[kB];
    for (V& each : ys) each = y;
    pow_lanes(v, ys, v);
  }
};
struct Exp2 {
  template <typename V, int kB>
  TMHLS_POW_INLINE void operator()(V (&v)[kB], const V (&)[kB]) const {
    exp2_lanes(v, v);
  }
};

/// Non-linear masking of kB vectors of pixels of kC samples: the exponent
/// once per pixel, spread to the pixel's samples, the power per sample
/// and, when kAdjust, the brightness/contrast step before the one store.
template <typename V, int kC, bool kAdjust>
struct Masking {
  float brightness = 0.0f;
  float contrast = 0.0f;
  template <int kB>
  TMHLS_POW_INLINE void operator()(V (&v)[kB * kC], const V (&m)[kB]) const {
    V g[kB];
    for (int b = 0; b < kB; ++b) {
      clamp_lanes(m[b], 0.0f, 1.0f, g[b]);
      g[b] = (g[b] - 0.5f) / 0.5f;
    }
    exp2_lanes(g, g);
    V y[kB * kC];
    for (int b = 0; b < kB; ++b) {
      spread<kC>(g[b], y + b * kC,
                 std::make_index_sequence<sizeof(V) / sizeof(float)>{});
    }
    pow_lanes(v, y, v);
    if constexpr (kAdjust) {
      for (V& r : v) {
        clamp_lanes<V>((r - 0.5f) * contrast + 0.5f + brightness, 0.0f, 1.0f,
                       r);
      }
    }
  }
};

/// The fused engine's front over kB vectors of pixels of kC samples: the
/// quotient by the scale (clamped to [0, 1] for an external scale) and,
/// when encoding, its power 1/gamma, stored in place; the pixels'
/// luminance, 0.2126 r + 0.7152 g + 0.0722 b in img::luminance_row's
/// order (the sample itself for one channel), into `lum`.
template <typename V, int kC>
struct Front {
  FrontStep step;
  template <int kB>
  TMHLS_POW_INLINE void operator()(V (&v)[kB * kC], V (&lum)[kB]) const {
    for (V& s : v) {
      s = s / step.scale;
      if (step.clamp) clamp_lanes<V>(s, 0.0f, 1.0f, s);
    }
    if (step.encode) {
      V ys[kB * kC];
      for (V& y : ys) y = V{} + step.inv_gamma;
      pow_lanes(v, ys, v);
    }
    for (int b = 0; b < kB; ++b) {
      if constexpr (kC == 1) {
        lum[b] = v[b];
      } else {
        constexpr auto lanes = std::make_index_sequence<sizeof(V) /
                                                        sizeof(float)>{};
        V r, g, bl;
        gather<kC, 0>(v + b * kC, r, lanes);
        gather<kC, 1>(v + b * kC, g, lanes);
        gather<kC, 2>(v + b * kC, bl, lanes);
        lum[b] = 0.2126f * r + 0.7152f * g + 0.0722f * bl;
      }
    }
  }
};

/// The row bodies of one build: detail::kSampleVectors sample vectors
/// per pow_row/exp2_row block and detail::kPixelVectors pixel vectors per
/// masking block.
template <typename V>
struct Build {
  static constexpr int kLanes = sizeof(V) / sizeof(float);
  static TMHLS_POW_INLINE void pow_shared(const float* x, float* out,
                                          std::size_t n, float y) {
    run_row<V, 1, detail::kSampleVectors>(x, nullptr, out, nullptr, n,
                                          PowShared<V>{V{} + y});
  }
  static TMHLS_POW_INLINE void exp2(const float* t, float* out,
                                    std::size_t n) {
    run_row<V, 1, detail::kSampleVectors>(t, nullptr, out, nullptr, n,
                                          Exp2{});
  }
  /// Masking for `channels` samples per pixel (kC counts up to it) and an
  /// optional adjust step, each a compile-time instantiation.
  template <int kC = 1>
  static TMHLS_POW_INLINE void masking(const float* x, const float* mask,
                                       float* out, std::size_t width,
                                       int channels,
                                       const BrightnessContrast* adjust) {
    if constexpr (kC < 4) {
      if (channels > kC) {
        return masking<kC + 1>(x, mask, out, width, channels, adjust);
      }
    }
    if (adjust == nullptr) {
      run_row<V, kC, detail::kPixelVectors>(x, mask, out, nullptr, width,
                                            Masking<V, kC, false>{});
    } else {
      run_row<V, kC, detail::kPixelVectors>(
          x, mask, out, nullptr, width,
          Masking<V, kC, true>{adjust->brightness, adjust->contrast});
    }
  }
  /// The front for 1, 3 or 4 `channels`, each a compile-time
  /// instantiation.
  template <int kC = 1>
  static TMHLS_POW_INLINE void front(const float* x, float* out,
                                     float* luminance, std::size_t width,
                                     int channels, const FrontStep& step) {
    if constexpr (kC < 4) {
      if (channels > kC) {
        return front<kC == 1 ? 3 : 4>(x, out, luminance, width, channels,
                                      step);
      }
    }
    run_row<V, kC, detail::kSampleVectors / kC>(x, nullptr, out, luminance,
                                                width, Front<V, kC>{step});
  }
  /// max_sample_row: kSampleVectors vector folds, then one scalar fold
  /// over the rest of the row and the folds' lanes.
  static TMHLS_POW_INLINE float max(const float* x, std::size_t n) {
    constexpr std::size_t kBlock = detail::kSampleVectors * kLanes;
    V m[detail::kSampleVectors] = {};
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
      V v[detail::kSampleVectors];
      load(x + i, v);
      for (int k = 0; k < detail::kSampleVectors; ++k) {
        select<V>(m[k] < v[k], v[k], m[k], m[k]);
      }
    }
    float best = 0.0f;
    for (; i < n; ++i) best = best < x[i] ? x[i] : best;
    for (const V& fold : m) {
      for (int l = 0; l < kLanes; ++l) best = best < fold[l] ? fold[l] : best;
    }
    return best;
  }
};

using Generic = Build<v4f>;

void pow_shared_generic(const float* x, float* out, std::size_t n, float y) {
  Generic::pow_shared(x, out, n, y);
}
void exp2_generic(const float* t, float* out, std::size_t n) {
  Generic::exp2(t, out, n);
}
void masking_generic(const float* x, const float* mask, float* out,
                     std::size_t width, int channels,
                     const BrightnessContrast* adjust) {
  Generic::masking(x, mask, out, width, channels, adjust);
}
void front_generic(const float* x, float* out, float* luminance,
                   std::size_t width, int channels, const FrontStep& step) {
  Generic::front(x, out, luminance, width, channels, step);
}
float max_generic(const float* x, std::size_t n) {
  return Generic::max(x, n);
}

// The AVX2 and AVX-512 clones run the identical per-lane operation
// sequence with 256- and 512-bit instructions (neither target enables FMA,
// and the build sets -ffp-contract=off besides): the dispatch changes the
// encoding and the lane count, never the arithmetic.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TMHLS_POW_X86_DISPATCH 1

using Avx2 = Build<v8f>;
using Avx512 = Build<v16f>;

__attribute__((target("avx2"))) void pow_shared_avx2(const float* x,
                                                     float* out,
                                                     std::size_t n, float y) {
  Avx2::pow_shared(x, out, n, y);
}
__attribute__((target("avx2"))) void exp2_avx2(const float* t, float* out,
                                               std::size_t n) {
  Avx2::exp2(t, out, n);
}
__attribute__((target("avx2"))) void
masking_avx2(const float* x, const float* mask, float* out, std::size_t width,
             int channels, const BrightnessContrast* adjust) {
  Avx2::masking(x, mask, out, width, channels, adjust);
}
__attribute__((target("avx2"))) void
front_avx2(const float* x, float* out, float* luminance, std::size_t width,
           int channels, const FrontStep& step) {
  Avx2::front(x, out, luminance, width, channels, step);
}
__attribute__((target("avx2"))) float max_avx2(const float* x,
                                               std::size_t n) {
  return Avx2::max(x, n);
}

__attribute__((target("avx512f"))) void
pow_shared_avx512(const float* x, float* out, std::size_t n, float y) {
  Avx512::pow_shared(x, out, n, y);
}
__attribute__((target("avx512f"))) void exp2_avx512(const float* t,
                                                    float* out,
                                                    std::size_t n) {
  Avx512::exp2(t, out, n);
}
__attribute__((target("avx512f"))) void
masking_avx512(const float* x, const float* mask, float* out,
               std::size_t width, int channels,
               const BrightnessContrast* adjust) {
  Avx512::masking(x, mask, out, width, channels, adjust);
}
__attribute__((target("avx512f"))) void
front_avx512(const float* x, float* out, float* luminance, std::size_t width,
             int channels, const FrontStep& step) {
  Avx512::front(x, out, luminance, width, channels, step);
}
__attribute__((target("avx512f"))) float max_avx512(const float* x,
                                                    std::size_t n) {
  return Avx512::max(x, n);
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
  static const PowKernels k{Generic::kLanes, pow_shared_generic,
                            exp2_generic,    masking_generic,
                            front_generic,   max_generic};
  return k;
}

const PowKernels* pow_kernels_avx2() {
#ifdef TMHLS_POW_X86_DISPATCH
  static const PowKernels k{Avx2::kLanes, pow_shared_avx2, exp2_avx2,
                            masking_avx2,  front_avx2,      max_avx2};
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has ? &k : nullptr;
#else
  return nullptr;
#endif
}

const PowKernels* pow_kernels_avx512() {
#ifdef TMHLS_POW_X86_DISPATCH
  static const PowKernels k{Avx512::kLanes, pow_shared_avx512,
                            exp2_avx512,    masking_avx512,
                            front_avx512,   max_avx512};
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

void front_row(const float* x, float* out, float* luminance,
               std::size_t width, int channels, const FrontStep& step) {
  active().front(x, out, luminance, width, channels, step);
}

float max_sample_row(const float* x, std::size_t n) {
  return active().max(x, n);
}

int pow_kernel_lanes() { return active().lanes; }

} // namespace tmhls::tonemap
