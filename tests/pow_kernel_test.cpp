// Tests for the point-wise pow / exp2 kernel (tonemap/pow_kernel.hpp):
// accuracy against std::pow, exact special cases, bit-identity of the
// generic-vector build, the AVX2 and AVX-512 builds and the padded row
// tail, the one-pass masking row against its per-sample arithmetic, and
// the one-time quality gate of moving the tone-mapping pipeline off libm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "image/image.hpp"
#include "imageio/synthetic.hpp"
#include "tonemap/pipeline.hpp"
#include "tonemap/pow_kernel.hpp"

namespace tmhls::tonemap {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// The bounds pow_kernel.hpp states.
constexpr double kMaxAbsOnUnit = 2e-7;    // x in [0, 1]
constexpr std::int64_t kUlpDisplay = 8;   // results >= 2^-8
constexpr std::int64_t kUlpSweep = 64;    // whole sweep, results >= 2^-80
// Full tone_map output against the libm pipeline: the kernel's error plus
// its effect on the mask, through the contrast gain.
constexpr double kMaxAbsToneMap = 5e-7;

std::uint32_t bits_of(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Distance in units in the last place between two finite floats of the
/// same sign.
std::int64_t ulp_distance(float a, float b) {
  return std::llabs(static_cast<std::int64_t>(bits_of(a)) -
                    static_cast<std::int64_t>(bits_of(b)));
}

float reference_pow(float x, float y) {
  return static_cast<float>(
      std::pow(static_cast<double>(x), static_cast<double>(y)));
}

float kernel_pow(float x, float y) {
  float out = 0.0f;
  pow_row(&x, &out, 1, y);
  return out;
}

float kernel_exp2(float t) {
  float out = 0.0f;
  exp2_row(&t, &out, 1);
  return out;
}

TEST(PowKernelTest, SweepStaysWithinStatedBounds) {
  // x from 2^-40 to 2^4 in 4096 mantissa steps per octave.
  std::vector<float> xs;
  for (int e = -40; e < 4; ++e) {
    for (int j = 0; j < 4096; ++j) {
      xs.push_back(std::ldexp(1.0f + static_cast<float>(j) / 4096.0f, e));
    }
  }
  xs.push_back(16.0f);
  std::vector<float> out(xs.size());
  for (const float y : {1.0f / 2.2f, 0.5f, std::exp2(-0.5f), 1.0f,
                        std::exp2(0.5f), 2.0f}) {
    pow_row(xs.data(), out.data(), xs.size(), y);
    double max_abs_unit = 0.0;
    std::int64_t max_ulp_display = 0;
    std::int64_t max_ulp = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const float ref = reference_pow(xs[i], y);
      ASSERT_TRUE(std::isfinite(out[i])) << xs[i] << "^" << y;
      const std::int64_t ulps = ulp_distance(out[i], ref);
      max_ulp = std::max(max_ulp, ulps);
      if (ref >= 1.0f / 256.0f) {
        max_ulp_display = std::max(max_ulp_display, ulps);
      }
      if (xs[i] <= 1.0f) {
        max_abs_unit = std::max(
            max_abs_unit, std::fabs(static_cast<double>(out[i]) - ref));
      }
    }
    EXPECT_LE(max_abs_unit, kMaxAbsOnUnit) << "y=" << y;
    EXPECT_LE(max_ulp_display, kUlpDisplay) << "y=" << y;
    EXPECT_LE(max_ulp, kUlpSweep) << "y=" << y;
    std::printf("y=%.6f: max-abs on [0,1] %.3g, max ulp %lld (results >= "
                "2^-8: %lld)\n",
                static_cast<double>(y), max_abs_unit,
                static_cast<long long>(max_ulp),
                static_cast<long long>(max_ulp_display));
  }
}

TEST(PowKernelTest, SpecialValuesAreExact) {
  for (const float y : {1.0f / 2.2f, 0.5f, 1.0f, 2.0f}) {
    EXPECT_EQ(bits_of(kernel_pow(0.0f, y)), bits_of(0.0f)) << y;
    EXPECT_EQ(bits_of(kernel_pow(-0.0f, y)), bits_of(0.0f)) << y;
    EXPECT_EQ(kernel_pow(1.0f, y), 1.0f) << y;
    EXPECT_EQ(kernel_pow(kInf, y), kInf) << y;
    EXPECT_TRUE(std::isnan(kernel_pow(std::nanf(""), y))) << y;
    // Negative inputs are clamped to 0 before the power, as the display
    // encoding and the masking stage define it.
    EXPECT_EQ(bits_of(kernel_pow(-0.5f, y)), bits_of(0.0f)) << y;
    EXPECT_EQ(bits_of(kernel_pow(-kInf, y)), bits_of(0.0f)) << y;
    for (const float tiny : {1e-40f, FLT_TRUE_MIN, FLT_MIN * 0.5f}) {
      const float got = kernel_pow(tiny, y);
      EXPECT_TRUE(std::isfinite(got)) << tiny << "^" << y;
      EXPECT_GE(got, 0.0f) << tiny << "^" << y;
      EXPECT_NEAR(got, reference_pow(tiny, y),
                  std::fabs(reference_pow(tiny, y)) * 1e-4 + 1e-45)
          << tiny << "^" << y;
    }
  }
  EXPECT_EQ(kernel_pow(FLT_MAX, 2.0f), kInf);
  EXPECT_TRUE(std::isfinite(kernel_pow(FLT_MAX, 1.0f / 2.2f)));
}

TEST(PowKernelTest, Exp2EdgesAndDenormals) {
  for (int n = -149; n <= 127; ++n) {
    EXPECT_EQ(kernel_exp2(static_cast<float>(n)),
              std::ldexp(1.0f, n)) << n;
  }
  EXPECT_EQ(kernel_exp2(128.0f), kInf);
  EXPECT_EQ(kernel_exp2(1e30f), kInf);
  EXPECT_EQ(kernel_exp2(kInf), kInf);
  EXPECT_EQ(kernel_exp2(-151.0f), 0.0f);
  EXPECT_EQ(kernel_exp2(-1e30f), 0.0f);
  EXPECT_EQ(kernel_exp2(-kInf), 0.0f);
  EXPECT_TRUE(std::isnan(kernel_exp2(std::nanf(""))));
  // The masking exponent's domain [-1, 1], and the denormal range where
  // the two-step scaling must round once.
  for (int i = -1024; i <= 1024; ++i) {
    const float t = static_cast<float>(i) / 1024.0f;
    EXPECT_LE(ulp_distance(kernel_exp2(t), std::exp2(t)), 1) << t;
  }
  for (int i = 0; i < 1024; ++i) {
    const float t = -149.5f + static_cast<float>(i) * (23.0f / 1024.0f);
    EXPECT_LE(ulp_distance(kernel_exp2(t),
                           static_cast<float>(std::exp2(
                               static_cast<double>(t)))),
              1)
        << t;
  }
}

std::vector<float> kernel_inputs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& s : v) s = static_cast<float>(rng.uniform() * 1.2 - 0.1);
  const float specials[] = {0.0f,  1.0f,     kInf,   std::nanf(""),
                            -2.0f, 1e-40f,   FLT_MAX, FLT_TRUE_MIN};
  for (std::size_t i = 0; i < n; i += 7) v[i] = specials[(i / 7) % 8];
  return v;
}

::testing::AssertionResult same_bits(const std::vector<float>& a,
                                     const std::vector<float>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits_of(a[i]) != bits_of(b[i])) {
      return ::testing::AssertionFailure()
             << "sample " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// The generic build and every clone the CPU can run.
std::vector<const detail::PowKernels*> every_build() {
  std::vector<const detail::PowKernels*> isas = {
      &detail::pow_kernels_generic()};
  for (const detail::PowKernels* clone :
       {detail::pow_kernels_avx2(), detail::pow_kernels_avx512()}) {
    if (clone != nullptr) isas.push_back(clone);
  }
  return isas;
}

/// Every length from 0 through two full blocks of the widest block any
/// build runs plus 17, then 1000: each mix of full blocks, single vectors
/// and a padded tail on every build.
std::vector<std::size_t> sweep_lengths() {
  const int vectors = std::max(detail::kSampleVectors, detail::kPixelVectors);
  std::size_t widest = 0;
  for (const detail::PowKernels* isa : every_build()) {
    widest = std::max(widest, static_cast<std::size_t>(isa->lanes * vectors));
  }
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 2 * widest + 17; ++n) lengths.push_back(n);
  lengths.push_back(1000);
  return lengths;
}

TEST(PowKernelTest, EveryBuildAndTailAreBitIdentical) {
  const std::vector<const detail::PowKernels*> isas = every_build();
  const std::vector<std::size_t> lengths = sweep_lengths();
  for (const std::size_t n : lengths) {
    const std::vector<float> x = kernel_inputs(n, 100 + n);
    std::vector<float> mask(n);
    std::vector<float> t(n);
    Rng rng(200 + n);
    for (std::size_t i = 0; i < n; ++i) {
      mask[i] = static_cast<float>(rng.uniform());
      t[i] = static_cast<float>(rng.uniform() * 320.0 - 170.0);
    }
    if (n > 3) t[3] = std::nanf("");

    // Reference: every sample alone, i.e. entirely through the padded
    // tail of the generic build.
    const detail::PowKernels& generic = detail::pow_kernels_generic();
    std::vector<float> shared_ref(n), masking_ref(n), exp2_ref(n);
    for (std::size_t i = 0; i < n; ++i) {
      generic.pow_shared(&x[i], &shared_ref[i], 1, 1.0f / 2.2f);
      generic.masking(&x[i], &mask[i], &masking_ref[i], 1, 1, nullptr);
      generic.exp2(&t[i], &exp2_ref[i], 1);
    }
    for (const detail::PowKernels* isa : isas) {
      std::vector<float> got(n);
      isa->pow_shared(x.data(), got.data(), n, 1.0f / 2.2f);
      EXPECT_TRUE(same_bits(got, shared_ref)) << "pow_shared n=" << n;
      isa->masking(x.data(), mask.data(), got.data(), n, 1, nullptr);
      EXPECT_TRUE(same_bits(got, masking_ref)) << "masking n=" << n;
      isa->exp2(t.data(), got.data(), n);
      EXPECT_TRUE(same_bits(got, exp2_ref)) << "exp2 n=" << n;
      // In place (x and out alias exactly).
      got = x;
      isa->pow_shared(got.data(), got.data(), n, 1.0f / 2.2f);
      EXPECT_TRUE(same_bits(got, shared_ref)) << "in place n=" << n;
    }
  }
}

/// The masking stage as it was computed sample by sample: a single-lane
/// generic exp2 of the pixel's exponent, then a single-lane pow of each of
/// its samples, then the scalar brightness/contrast clamp.
std::vector<float> per_sample_masking(const std::vector<float>& x,
                                      const std::vector<float>& mask,
                                      int channels,
                                      const BrightnessContrast* adjust) {
  const detail::PowKernels& generic = detail::pow_kernels_generic();
  std::vector<float> out(x.size());
  for (std::size_t p = 0; p < mask.size(); ++p) {
    float gamma = (clamp(mask[p], 0.0f, 1.0f) - 0.5f) / 0.5f;
    generic.exp2(&gamma, &gamma, 1);
    for (int c = 0; c < channels; ++c) {
      const std::size_t i = p * static_cast<std::size_t>(channels) +
                            static_cast<std::size_t>(c);
      generic.pow_shared(&x[i], &out[i], 1, gamma);
      if (adjust != nullptr) {
        out[i] = clamp((out[i] - 0.5f) * adjust->contrast + 0.5f +
                           adjust->brightness,
                       0.0f, 1.0f);
      }
    }
  }
  return out;
}

TEST(PowKernelTest, MaskingEveryBuildMatchesPerSampleReference) {
  const std::vector<const detail::PowKernels*> isas = every_build();
  const std::vector<std::size_t> widths = sweep_lengths();
  const float bad_masks[] = {std::nanf(""), kInf, -kInf, -0.25f,
                             1.5f, FLT_MIN * 0.5f, -0.0f, 1.0f};
  const float bad_inputs[] = {0.0f, -0.0f, -0.5f, kInf, std::nanf(""),
                              -kInf};
  const BrightnessContrast adjust{0.05f, 1.15f};
  for (int channels = 1; channels <= 4; ++channels) {
    for (const std::size_t w : widths) {
      const std::size_t n = w * static_cast<std::size_t>(channels);
      std::vector<float> x = kernel_inputs(n, 300 + n);
      for (std::size_t i = 3; i < n; i += 5) x[i] = bad_inputs[(i / 5) % 6];
      std::vector<float> mask(w);
      Rng rng(400 + w);
      for (float& m : mask) m = static_cast<float>(rng.uniform() * 1.5 - 0.25);
      for (std::size_t p = 1; p < w; p += 3) mask[p] = bad_masks[(p / 3) % 8];
      for (const BrightnessContrast* adj :
           {&adjust, static_cast<const BrightnessContrast*>(nullptr)}) {
        const std::vector<float> ref =
            per_sample_masking(x, mask, channels, adj);
        for (const detail::PowKernels* isa : isas) {
          std::vector<float> got(n);
          isa->masking(x.data(), mask.data(), got.data(), w, channels, adj);
          EXPECT_TRUE(same_bits(got, ref))
              << isa->lanes << " lanes, " << channels << " channel(s), width "
              << w << (adj != nullptr ? ", adjusted" : "");
          // In place (x and out alias exactly).
          got = x;
          isa->masking(got.data(), mask.data(), got.data(), w, channels, adj);
          EXPECT_TRUE(same_bits(got, ref))
              << "in place, " << isa->lanes << " lanes, " << channels
              << " channel(s), width " << w;
        }
      }
    }
  }
}

// --- Quality gate of the one-time golden change ----------------------------

// The point-wise rows as they were while the pipeline called libm: the
// reference the kernel's golden output is gated against.
void libm_display_encode_row(float* row, std::size_t n, float inv_gamma) {
  for (std::size_t i = 0; i < n; ++i) {
    row[i] = std::pow(std::max(row[i], 0.0f), inv_gamma);
  }
}

void libm_masking_row(const float* in, const float* mask, float* out,
                      int width, int channels) {
  for (int x = 0; x < width; ++x) {
    const float m = clamp(mask[x], 0.0f, 1.0f);
    const float gamma = std::exp2((m - 0.5f) / 0.5f);
    for (int c = 0; c < channels; ++c) {
      const float v = std::max(in[x * channels + c], 0.0f);
      out[x * channels + c] = std::pow(v, gamma);
    }
  }
}

/// tone_map's five stages with the libm rows in place of the kernel.
img::ImageF libm_tone_map(const img::ImageF& hdr, const PipelineOptions& opt) {
  PipelineOptions linear = opt;
  linear.display_gamma = 1.0f;
  img::ImageF normalized = stages::normalize(hdr, linear);
  libm_display_encode_row(normalized.samples().data(),
                          normalized.samples().size(),
                          1.0f / opt.display_gamma);
  const img::ImageF intensity = stages::intensity(normalized);
  const img::ImageF mask = stages::mask(
      intensity, opt.kernel(), opt.plan(hdr.width(), hdr.height()));
  img::ImageF masked(hdr.width(), hdr.height(), hdr.channels());
  for (int y = 0; y < hdr.height(); ++y) {
    libm_masking_row(&normalized.at_unchecked(0, y), &mask.at_unchecked(0, y),
                     &masked.at_unchecked(0, y), hdr.width(), hdr.channels());
  }
  return stages::adjust(masked, opt);
}

TEST(PowKernelQualityTest, ToneMapStaysWithinBoundOfLibm) {
  const PipelineOptions opt; // 97 taps, gamma 2.2, separable_float
  ASSERT_EQ(opt.kernel().taps(), 97);
  for (const io::SceneKind kind :
       {io::SceneKind::window_interior, io::SceneKind::light_probe,
        io::SceneKind::gradient_bars, io::SceneKind::night_street}) {
    const img::ImageF hdr = io::generate_hdr_scene(kind, 1024, 768, 7);
    const img::ImageF got = tone_map(hdr, opt).output;
    const img::ImageF ref = libm_tone_map(hdr, opt);
    double max_abs = 0.0;
    for (std::size_t i = 0; i < got.samples().size(); ++i) {
      max_abs = std::max(max_abs,
                         std::fabs(static_cast<double>(got.samples()[i]) -
                                   ref.samples()[i]));
    }
    EXPECT_LE(max_abs, kMaxAbsToneMap) << io::to_string(kind);
    const img::ImageU8 got8 = img::to_u8(got);
    const img::ImageU8 ref8 = img::to_u8(ref);
    int max_lsb = 0;
    std::size_t off_by_one = 0;
    for (std::size_t i = 0; i < got8.samples().size(); ++i) {
      const int d = std::abs(static_cast<int>(got8.samples()[i]) -
                             static_cast<int>(ref8.samples()[i]));
      max_lsb = std::max(max_lsb, d);
      if (d != 0) ++off_by_one;
    }
    EXPECT_LE(max_lsb, 1) << io::to_string(kind);
    std::printf("%s: max-abs %.3g, %zu samples 1 LSB off in 8-bit\n",
                io::to_string(kind), max_abs, off_by_one);
  }
}

} // namespace
} // namespace tmhls::tonemap
