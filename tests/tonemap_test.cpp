// Tests for the tone-mapping core: kernel construction, the equivalence of
// the restructured streaming blur with the original separable blur (the
// §III.B claim that restructuring changes the access pattern, not the
// pixels), fixed-point blur accuracy, the point-wise operators, the global
// baselines and the full pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "imageio/synthetic.hpp"
#include "metrics/quality.hpp"
#include "tonemap/blur.hpp"
#include "tonemap/global_operators.hpp"
#include "tonemap/kernel.hpp"
#include "tonemap/op_counts.hpp"
#include "tonemap/operators.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::tonemap {
namespace {

img::ImageF random_plane(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  img::ImageF im(w, h, 1);
  for (float& v : im.samples()) v = static_cast<float>(rng.uniform());
  return im;
}

TEST(KernelTest, WeightsSumToOne) {
  for (double sigma : {0.8, 2.0, 8.0, 13.0, 16.0}) {
    const GaussianKernel k(sigma);
    double sum = 0.0;
    for (float w : k.weights()) sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-6) << "sigma=" << sigma;
  }
}

TEST(KernelTest, DefaultRadiusIsThreeSigma) {
  const GaussianKernel k(13.0);
  EXPECT_EQ(k.radius(), 39);
  EXPECT_EQ(k.taps(), 79);
}

TEST(KernelTest, SymmetricAroundCentre) {
  const GaussianKernel k(5.0);
  for (int i = 1; i <= k.radius(); ++i) {
    EXPECT_FLOAT_EQ(k.weight(i), k.weight(-i));
  }
}

TEST(KernelTest, MonotoneDecayFromCentre) {
  const GaussianKernel k(4.0);
  for (int i = 0; i < k.radius(); ++i) {
    EXPECT_GE(k.weight(i), k.weight(i + 1));
  }
}

TEST(KernelTest, CentreIsMaximum) {
  const GaussianKernel k(3.0);
  for (int i = -k.radius(); i <= k.radius(); ++i) {
    EXPECT_LE(k.weight(i), k.weight(0));
  }
}

TEST(KernelTest, OffsetOutOfRangeThrows) {
  const GaussianKernel k(2.0);
  EXPECT_THROW(k.weight(k.radius() + 1), InvalidArgument);
}

TEST(KernelTest, InvalidParametersThrow) {
  EXPECT_THROW(GaussianKernel(0.0), InvalidArgument);
  EXPECT_THROW(GaussianKernel(-1.0), InvalidArgument);
  EXPECT_THROW(GaussianKernel(2.0, 0), InvalidArgument);
}

TEST(KernelTest, HostileSigmaAndRadiusThrowBeforeAllocating) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Non-finite sigma: rejected with or without an explicit radius.
  for (double sigma : {nan, inf, -inf}) {
    EXPECT_THROW(GaussianKernel{sigma}, InvalidArgument) << sigma;
    EXPECT_THROW((GaussianKernel{sigma, 6}), InvalidArgument) << sigma;
  }
  // A finite sigma whose ceil(3 * sigma) radius overflows int.
  EXPECT_THROW(GaussianKernel{1e300}, InvalidArgument);
  EXPECT_THROW(GaussianKernel{1e10}, InvalidArgument);
  // Oversize explicit radii, up to the one whose 2 * radius + 1 overflows.
  EXPECT_THROW((GaussianKernel{2.0, kMaxRadius + 1}), InvalidArgument);
  EXPECT_THROW((GaussianKernel{2.0, std::numeric_limits<int>::max()}),
               InvalidArgument);
  // The bound itself is accepted; a default radius just below it too.
  EXPECT_EQ(GaussianKernel(1.0, kMaxRadius).radius(), kMaxRadius);
  EXPECT_EQ(GaussianKernel(1365.0).radius(), 4095);
}

TEST(KernelTest, QuantisedWeightsSumNearOne) {
  const GaussianKernel k(13.0);
  const fixed::FixedFormat f(16, 2, fixed::Round::half_up);
  // 79 weights each off by at most lsb/2.
  EXPECT_NEAR(k.quantised_weight_sum(f), 1.0, 79 * f.lsb() / 2);
}

TEST(KernelTest, NarrowFormatLosesTailWeights) {
  const GaussianKernel k(13.0);
  const fixed::FixedFormat f8(8, 2, fixed::Round::truncate);
  const auto q = k.quantised_weights(f8);
  // The 8-bit format has lsb = 2^-6; tail weights (~1e-4) must vanish.
  EXPECT_EQ(q.front(), 0);
  EXPECT_EQ(q.back(), 0);
}

TEST(BlurTest, ConstantImageIsInvariant) {
  img::ImageF im(32, 24, 1);
  im.fill(0.6f);
  const GaussianKernel k(2.0);
  const img::ImageF out = blur_separable_float(im, k);
  for (float v : out.samples()) EXPECT_NEAR(v, 0.6f, 1e-5f);
}

TEST(BlurTest, PreservesMeanOnPeriodicContent) {
  // Blur redistributes energy; with clamp-to-edge the interior mean is
  // preserved for a symmetric kernel.
  img::ImageF im = random_plane(64, 64, 99);
  const GaussianKernel k(1.5);
  const img::ImageF out = blur_separable_float(im, k);
  double mean_in = 0.0;
  double mean_out = 0.0;
  for (float v : im.samples()) mean_in += v;
  for (float v : out.samples()) mean_out += v;
  EXPECT_NEAR(mean_out / static_cast<double>(im.sample_count()),
              mean_in / static_cast<double>(im.sample_count()), 0.01);
}

TEST(BlurTest, SmoothsAnImpulse) {
  img::ImageF im(33, 33, 1);
  im.at(16, 16) = 1.0f;
  const GaussianKernel k(2.0);
  const img::ImageF out = blur_separable_float(im, k);
  // Centre value equals the 2D kernel's centre weight.
  EXPECT_NEAR(out.at(16, 16), k.weight(0) * k.weight(0), 1e-6f);
  // Separability: response at (dx, dy) = w(dx) * w(dy).
  EXPECT_NEAR(out.at(18, 15), k.weight(2) * k.weight(-1), 1e-6f);
  // Energy preserved (impulse far from the border).
  double sum = 0.0;
  for (float v : out.samples()) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(BlurTest, ReducesVariance) {
  img::ImageF im = random_plane(64, 64, 5);
  const GaussianKernel k(3.0);
  const img::ImageF out = blur_separable_float(im, k);
  auto variance = [](const img::ImageF& p) {
    double mean = 0.0;
    for (float v : p.samples()) mean += v;
    mean /= static_cast<double>(p.sample_count());
    double var = 0.0;
    for (float v : p.samples()) var += (v - mean) * (v - mean);
    return var / static_cast<double>(p.sample_count());
  };
  EXPECT_LT(variance(out), variance(im) * 0.2);
}

TEST(BlurTest, RejectsMultiChannelInput) {
  const GaussianKernel k(2.0);
  EXPECT_THROW(blur_separable_float(img::ImageF(8, 8, 3), k),
               InvalidArgument);
}

// The central claim of §III.B: restructuring the data flow for sequential
// accesses must not change the computation. The streaming (line-buffer)
// blur accumulates taps in the same order as the direct form, so outputs
// are bit-identical, not merely close.
class StreamingEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(StreamingEquivalence, StreamingMatchesSeparableBitExactly) {
  const auto [w, h, sigma] = GetParam();
  const img::ImageF im = random_plane(w, h, 42);
  const GaussianKernel k(sigma);
  const img::ImageF direct = blur_separable_float(im, k);
  const img::ImageF streaming = blur_streaming_float(im, k);
  ASSERT_TRUE(direct.same_shape(streaming));
  auto sd = direct.samples();
  auto ss = streaming.samples();
  for (std::size_t i = 0; i < sd.size(); ++i) {
    ASSERT_EQ(sd[i], ss[i]) << "at sample " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, StreamingEquivalence,
    ::testing::Values(std::make_tuple(16, 16, 1.5),
                      std::make_tuple(64, 32, 3.0),
                      std::make_tuple(33, 47, 5.0),
                      std::make_tuple(128, 8, 2.0),   // radius near height
                      std::make_tuple(8, 128, 2.0),   // radius near width
                      std::make_tuple(31, 31, 10.0)));// radius > half size

TEST(FixedBlurTest, PaperConfigTracksFloatClosely) {
  const img::ImageF im = random_plane(64, 64, 7);
  const GaussianKernel k(5.0);
  const img::ImageF ref = blur_streaming_float(im, k);
  const img::ImageF fxp = blur_streaming_fixed(im, k, FixedBlurConfig::paper());
  // 16-bit data path on [0,1] data: errors well below 1%.
  EXPECT_LT(metrics::max_abs_error(ref, fxp), 0.01);
  EXPECT_GT(metrics::psnr(ref, fxp), 45.0);
}

TEST(FixedBlurTest, WiderAccumulatorIsMoreAccurate) {
  const img::ImageF im = random_plane(64, 64, 8);
  const GaussianKernel k(5.0);
  const img::ImageF ref = blur_streaming_float(im, k);

  FixedBlurConfig narrow = FixedBlurConfig::paper();
  FixedBlurConfig wide{narrow.data,
                       fixed::FixedFormat(32, 4, fixed::Round::half_up,
                                          fixed::Overflow::saturate)};
  const double err_narrow =
      metrics::mse(ref, blur_streaming_fixed(im, k, narrow));
  const double err_wide = metrics::mse(ref, blur_streaming_fixed(im, k, wide));
  EXPECT_LT(err_wide, err_narrow);
}

TEST(FixedBlurTest, WiderDataFormatIsMoreAccurate) {
  const img::ImageF im = random_plane(48, 48, 9);
  const GaussianKernel k(4.0);
  const img::ImageF ref = blur_streaming_float(im, k);
  auto config_for = [](int bits) {
    const fixed::FixedFormat f(bits, 2, fixed::Round::half_up,
                               fixed::Overflow::saturate);
    return FixedBlurConfig{f, f};
  };
  const double err8 = metrics::mse(ref, blur_streaming_fixed(im, k, config_for(8)));
  const double err16 =
      metrics::mse(ref, blur_streaming_fixed(im, k, config_for(16)));
  const double err32 =
      metrics::mse(ref, blur_streaming_fixed(im, k, config_for(32)));
  EXPECT_LT(err16, err8);
  EXPECT_LT(err32, err16);
}

TEST(FixedBlurTest, OutputIsExactlyRepresentableInDataFormat) {
  const img::ImageF im = random_plane(32, 32, 10);
  const GaussianKernel k(3.0);
  const FixedBlurConfig cfg = FixedBlurConfig::paper();
  const img::ImageF out = blur_streaming_fixed(im, k, cfg);
  for (float v : out.samples()) {
    EXPECT_EQ(static_cast<double>(v),
              cfg.data.quantize(static_cast<double>(v)));
  }
}

TEST(FixedBlurTest, ConstantImageStaysNearConstant) {
  img::ImageF im(32, 32, 1);
  im.fill(0.5f);
  const GaussianKernel k(4.0);
  const img::ImageF out =
      blur_streaming_fixed(im, k, FixedBlurConfig::paper());
  // Quantised weights may not sum exactly to 1; allow taps * lsb drift.
  for (float v : out.samples()) {
    EXPECT_NEAR(v, 0.5f, static_cast<float>(k.taps()) * 6.2e-5f);
  }
}

TEST(LineBufferTest, SizeFormula) {
  EXPECT_EQ(line_buffer_bytes(1024, 79, 32), 1024u * 79u * 4u);
  EXPECT_EQ(line_buffer_bytes(1024, 79, 16), 1024u * 79u * 2u);
  EXPECT_EQ(line_buffer_bytes(3, 3, 12), (3u * 3u * 12u + 7u) / 8u);
  EXPECT_THROW(line_buffer_bytes(0, 1, 8), InvalidArgument);
}

TEST(NormalizeTest, MaxBecomesOne) {
  img::ImageF im(4, 4, 3);
  im.at(2, 2, 1) = 500.0f;
  im.at(0, 0, 0) = 5.0f;
  float max_out = 0.0f;
  const img::ImageF out = normalize_to_max(im, &max_out);
  EXPECT_FLOAT_EQ(max_out, 500.0f);
  EXPECT_FLOAT_EQ(out.at(2, 2, 1), 1.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 0.01f);
}

TEST(NormalizeTest, AllZeroImageThrows) {
  EXPECT_THROW(normalize_to_max(img::ImageF(4, 4, 1)), InvalidArgument);
}

TEST(DisplayEncodeTest, GammaOneIsIdentity) {
  img::ImageF in(2, 1, 1);
  in.at(0, 0) = 0.3f;
  in.at(1, 0) = 0.9f;
  const img::ImageF out = display_encode(in, 1.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.3f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 0.9f);
}

TEST(DisplayEncodeTest, BrightensMidtonesKeepsEndpoints) {
  img::ImageF in(3, 1, 1);
  in.at(0, 0) = 0.0f;
  in.at(1, 0) = 0.5f;
  in.at(2, 0) = 1.0f;
  const img::ImageF out = display_encode(in, 2.2f);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
  EXPECT_NEAR(out.at(1, 0), std::pow(0.5f, 1.0f / 2.2f), 1e-6f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 1.0f);
  EXPECT_GT(out.at(1, 0), 0.5f);
}

TEST(DisplayEncodeTest, NegativeInputsClampToZero) {
  img::ImageF in(1, 1, 1);
  in.at(0, 0) = -0.5f;
  EXPECT_FLOAT_EQ(display_encode(in, 2.2f).at(0, 0), 0.0f);
}

TEST(DisplayEncodeTest, NonPositiveGammaThrows) {
  EXPECT_THROW(display_encode(img::ImageF(1, 1, 1), 0.0f), InvalidArgument);
}

TEST(MaskingTest, MidGreyMaskIsIdentityExponent) {
  img::ImageF in(2, 2, 1);
  in.fill(0.42f);
  img::ImageF mask(2, 2, 1);
  mask.fill(0.5f); // gamma = 2^0 = 1
  const img::ImageF out = nonlinear_masking(in, mask);
  for (float v : out.samples()) EXPECT_NEAR(v, 0.42f, 1e-6f);
}

TEST(MaskingTest, DarkNeighbourhoodBrightens) {
  img::ImageF in(1, 1, 1);
  in.at(0, 0) = 0.2f;
  img::ImageF mask(1, 1, 1);
  mask.at(0, 0) = 0.1f; // dark surround -> gamma < 1 -> brighter
  const img::ImageF out = nonlinear_masking(in, mask);
  EXPECT_GT(out.at(0, 0), 0.2f);
}

TEST(MaskingTest, BrightNeighbourhoodDarkens) {
  img::ImageF in(1, 1, 1);
  in.at(0, 0) = 0.8f;
  img::ImageF mask(1, 1, 1);
  mask.at(0, 0) = 0.9f; // bright surround -> gamma > 1 -> darker
  const img::ImageF out = nonlinear_masking(in, mask);
  EXPECT_LT(out.at(0, 0), 0.8f);
}

TEST(MaskingTest, ExponentFormulaIsMoroney) {
  // gamma = 2^((m - 0.5)/0.5); check out = in^gamma numerically.
  img::ImageF in(1, 1, 1);
  in.at(0, 0) = 0.3f;
  img::ImageF mask(1, 1, 1);
  mask.at(0, 0) = 0.25f;
  const float gamma = std::exp2((0.25f - 0.5f) / 0.5f); // 2^-0.5
  const img::ImageF out = nonlinear_masking(in, mask);
  EXPECT_NEAR(out.at(0, 0), std::pow(0.3f, gamma), 1e-6f);
}

TEST(MaskingTest, ZeroInputStaysZero) {
  img::ImageF in(1, 1, 1);
  img::ImageF mask(1, 1, 1);
  mask.at(0, 0) = 0.3f;
  const img::ImageF out = nonlinear_masking(in, mask);
  EXPECT_EQ(out.at(0, 0), 0.0f);
}

TEST(MaskingTest, AppliesPerChannelWithSharedMask) {
  img::ImageF in(1, 1, 3);
  in.at(0, 0, 0) = 0.2f;
  in.at(0, 0, 1) = 0.4f;
  in.at(0, 0, 2) = 0.6f;
  img::ImageF mask(1, 1, 1);
  mask.at(0, 0) = 0.25f;
  const float gamma = std::exp2(-0.5f);
  const img::ImageF out = nonlinear_masking(in, mask);
  EXPECT_NEAR(out.at(0, 0, 0), std::pow(0.2f, gamma), 1e-6f);
  EXPECT_NEAR(out.at(0, 0, 1), std::pow(0.4f, gamma), 1e-6f);
  EXPECT_NEAR(out.at(0, 0, 2), std::pow(0.6f, gamma), 1e-6f);
}

TEST(MaskingTest, MultiChannelMaskRejected) {
  EXPECT_THROW(nonlinear_masking(img::ImageF(2, 2, 3), img::ImageF(2, 2, 3)),
               InvalidArgument);
}

TEST(AdjustTest, IdentityWithNeutralParameters) {
  img::ImageF in(2, 2, 1);
  in.fill(0.37f);
  const img::ImageF out = brightness_contrast(in, 0.0f, 1.0f);
  for (float v : out.samples()) EXPECT_FLOAT_EQ(v, 0.37f);
}

TEST(AdjustTest, BrightnessShifts) {
  img::ImageF in(1, 1, 1);
  in.at(0, 0) = 0.5f;
  EXPECT_NEAR(brightness_contrast(in, 0.1f, 1.0f).at(0, 0), 0.6f, 1e-6f);
}

TEST(AdjustTest, ContrastExpandsAroundMidGrey) {
  img::ImageF in(2, 1, 1);
  in.at(0, 0) = 0.4f;
  in.at(1, 0) = 0.6f;
  const img::ImageF out = brightness_contrast(in, 0.0f, 2.0f);
  EXPECT_NEAR(out.at(0, 0), 0.3f, 1e-6f);
  EXPECT_NEAR(out.at(1, 0), 0.7f, 1e-6f);
}

TEST(AdjustTest, OutputClampedToUnitRange) {
  img::ImageF in(2, 1, 1);
  in.at(0, 0) = 0.0f;
  in.at(1, 0) = 1.0f;
  const img::ImageF out = brightness_contrast(in, 0.2f, 3.0f);
  EXPECT_GE(out.at(0, 0), 0.0f);
  EXPECT_LE(out.at(1, 0), 1.0f);
}

TEST(AdjustTest, NonPositiveContrastThrows) {
  EXPECT_THROW(brightness_contrast(img::ImageF(1, 1, 1), 0.0f, 0.0f),
               InvalidArgument);
}

TEST(GlobalOperatorTest, GammaMapsIntoUnitRange) {
  const img::ImageF hdr = io::generate_hdr_scene_square(
      io::SceneKind::window_interior, 64, 1);
  const img::ImageF out = global_gamma(hdr, 2.2f);
  for (float v : out.samples()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(GlobalOperatorTest, LogMapsIntoUnitRange) {
  const img::ImageF hdr =
      io::generate_hdr_scene_square(io::SceneKind::light_probe, 64, 2);
  const img::ImageF out = global_log(hdr);
  for (float v : out.samples()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(GlobalOperatorTest, ReinhardMapsIntoUnitRange) {
  const img::ImageF hdr =
      io::generate_hdr_scene_square(io::SceneKind::night_street, 64, 3);
  const img::ImageF out = reinhard_global(hdr);
  for (float v : out.samples()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(GlobalOperatorTest, GammaIsMonotone) {
  img::ImageF im(3, 1, 1);
  im.at(0, 0) = 0.1f;
  im.at(1, 0) = 1.0f;
  im.at(2, 0) = 10.0f;
  const img::ImageF out = global_gamma(im, 2.2f);
  EXPECT_LT(out.at(0, 0), out.at(1, 0));
  EXPECT_LT(out.at(1, 0), out.at(2, 0));
}

TEST(GlobalVsLocalTest, LocalOperatorHoldsLocalContrastBetter) {
  // A scene with a dark interior and a bright window: the local operator
  // should render the dark region with more detail (higher local std dev)
  // than a global gamma that must also accommodate the highlights.
  const img::ImageF hdr = io::generate_hdr_scene_square(
      io::SceneKind::window_interior, 96, 2018);
  PipelineOptions opt;
  opt.sigma = 6.0;
  const img::ImageF local = tone_map_image(hdr, opt);
  const img::ImageF global = global_gamma(hdr, 2.2f);

  // Mean level of the darkest quarter of the scene under each operator.
  const img::ImageF luma_in = img::luminance(hdr);
  std::vector<float> lum(luma_in.samples().begin(), luma_in.samples().end());
  std::sort(lum.begin(), lum.end());
  const float dark_threshold = lum[lum.size() / 4];
  auto dark_mean = [&](const img::ImageF& mapped) {
    const img::ImageF y = img::luminance(mapped);
    double acc = 0.0;
    std::int64_t n = 0;
    for (int yy = 0; yy < luma_in.height(); ++yy) {
      for (int xx = 0; xx < luma_in.width(); ++xx) {
        if (luma_in.at(xx, yy) <= dark_threshold) {
          acc += y.at(xx, yy);
          ++n;
        }
      }
    }
    return acc / static_cast<double>(n);
  };
  // "dark zones will become brighter" — locally corrected shadows should
  // sit above what the global curve gives them.
  EXPECT_GT(dark_mean(local), dark_mean(global));
}

TEST(PipelineTest, ProducesDisplayRangeOutput) {
  const img::ImageF hdr = io::paper_test_image(64);
  const img::ImageF out = tone_map_image(hdr);
  for (float v : out.samples()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(PipelineTest, IntermediatesHaveExpectedShapes) {
  const img::ImageF hdr = io::paper_test_image(64);
  const PipelineResult r = tone_map(hdr);
  EXPECT_EQ(r.normalized.channels(), 3);
  EXPECT_EQ(r.intensity.channels(), 1);
  EXPECT_EQ(r.mask.channels(), 1);
  EXPECT_EQ(r.output.channels(), 3);
  EXPECT_GT(r.input_max, 0.0f);
}

TEST(PipelineTest, FusedStreamMatchesSeparableExactly) {
  const img::ImageF hdr = io::paper_test_image(64);
  PipelineOptions a;
  a.backend = "separable_float";
  PipelineOptions b;
  b.backend = "fused_stream";
  const img::ImageF out_a = tone_map_image(hdr, a);
  const img::ImageF out_b = tone_map_image(hdr, b);
  auto sa = out_a.samples();
  auto sb = out_b.samples();
  for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
}

TEST(PipelineTest, FixedBlurPipelineStaysCloseToFloat) {
  const img::ImageF hdr = io::paper_test_image(96);
  PipelineOptions flp;
  flp.sigma = 6.0;
  PipelineOptions fxp = flp;
  fxp.backend = "streaming_fixed";
  const img::ImageF out_flp = tone_map_image(hdr, flp);
  const img::ImageF out_fxp = tone_map_image(hdr, fxp);
  EXPECT_GT(metrics::psnr(out_flp, out_fxp), 40.0);
}

TEST(PipelineTest, ExplicitRadiusIsHonoured) {
  PipelineOptions opt;
  opt.sigma = 13.0;
  opt.radius = 10;
  EXPECT_EQ(opt.kernel().radius(), 10);
  opt.radius = 0;
  EXPECT_EQ(opt.kernel().radius(), 39);
}

TEST(OpCountsTest, BlurCountsMatchLoopStructure) {
  const GaussianKernel k(13.0, 39); // 79 taps
  const OpCounts c = count_gaussian_blur(1024, 1024, k);
  const std::int64_t px = 1024 * 1024;
  EXPECT_EQ(c.fmul, 2 * px * 79);
  EXPECT_EQ(c.fadd, 2 * px * 78);
  EXPECT_EQ(c.loads, 2 * px * 79);
  EXPECT_EQ(c.stores, 2 * px);
}

TEST(OpCountsTest, MaskingCountsPowPerSample) {
  const OpCounts c = count_nonlinear_masking(1024, 1024, 3);
  EXPECT_EQ(c.pow_calls, 3LL * 1024 * 1024);
  EXPECT_EQ(c.exp2_calls, 1024LL * 1024);
}

TEST(OpCountsTest, AdditionCombinesAllFields) {
  OpCounts a;
  a.fmul = 3;
  a.pow_calls = 1;
  OpCounts b;
  b.fmul = 4;
  b.loads = 7;
  const OpCounts c = a + b;
  EXPECT_EQ(c.fmul, 7);
  EXPECT_EQ(c.pow_calls, 1);
  EXPECT_EQ(c.loads, 7);
}

TEST(OpCountsTest, StageDispatcherCoversAllStages) {
  const GaussianKernel k(2.0);
  for (Stage s :
       {Stage::normalization, Stage::intensity, Stage::gaussian_blur,
        Stage::nonlinear_masking, Stage::adjustments}) {
    const OpCounts c = count_stage(s, 64, 64, 3, k);
    EXPECT_GT(c.loads + c.stores + c.fmul + c.pow_calls, 0) << to_string(s);
  }
}

} // namespace
} // namespace tmhls::tonemap
