// Cross-cutting property and robustness suites:
//  * randomized scheduler invariants (monotonicity, composition bounds)
//  * exhaustive narrow-width fixed-point arithmetic against a double oracle
//  * blur/pipeline invariants swept over BlurKind x geometry
//  * malformed-input robustness for every image decoder
//  * platform scaling laws (time linear in pixels, energy consistency)
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <tuple>

#include "accel/system.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fixed/fixed_format.hpp"
#include "hls/scheduler.hpp"
#include "imageio/pfm.hpp"
#include "imageio/pnm.hpp"
#include "imageio/rgbe.hpp"
#include "imageio/synthetic.hpp"
#include "metrics/quality.hpp"
#include "platform/zynq.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls {
namespace {

// ---- Scheduler property suite ---------------------------------------------

hls::Loop random_loop(Rng& rng) {
  hls::Loop loop;
  loop.name = "random";
  loop.trip_count = rng.uniform_int(1, 1000000);
  loop.ops = {
      {hls::OpKind::fmul, rng.uniform_int(0, 64)},
      {hls::OpKind::fadd, rng.uniform_int(0, 64)},
      {hls::OpKind::int_op, rng.uniform_int(0, 16)},
  };
  hls::ArraySpec buf;
  buf.name = "buf";
  buf.elements = rng.uniform_int(16, 100000);
  buf.element_bits = rng.uniform() < 0.5 ? 16 : 32;
  buf.read_ports = static_cast<int>(rng.uniform_int(1, 2));
  buf.elems_per_word = static_cast<int>(rng.uniform_int(1, 2));
  buf.partitions = static_cast<int>(rng.uniform_int(1, 8));
  buf.reads_per_iter = rng.uniform_int(1, 128);
  buf.writes_per_iter = rng.uniform_int(0, 2);
  loop.arrays = {buf};
  loop.recurrence_op = hls::OpKind::fadd;
  loop.recurrence_length = static_cast<int>(rng.uniform_int(0, 3));
  return loop;
}

TEST(SchedulerProperty, PipeliningNeverHurtsAcrossRandomLoops) {
  const hls::Scheduler sched(hls::OperatorLibrary::artix7_100mhz());
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    hls::Loop loop = random_loop(rng);
    loop.pragmas.pipeline.enabled = false;
    const auto seq = sched.schedule(loop);
    loop.pragmas.pipeline.enabled = true;
    loop.pragmas.pipeline.target_ii = 1;
    const auto pip = sched.schedule(loop);
    EXPECT_LE(pip.total_cycles, seq.total_cycles) << "trial " << trial;
    EXPECT_GE(pip.ii, 1);
    // The achieved II honours both lower bounds.
    EXPECT_GE(pip.ii, pip.ii_recurrence);
    EXPECT_GE(pip.ii, pip.ii_memory);
  }
}

TEST(SchedulerProperty, IIShrinksMonotonicallyWithBandwidth) {
  const hls::Scheduler sched(hls::OperatorLibrary::artix7_100mhz());
  Rng rng(102);
  for (int trial = 0; trial < 100; ++trial) {
    hls::Loop loop = random_loop(rng);
    loop.pragmas.pipeline = {true, 1};
    loop.recurrence_length = 0; // isolate the memory bound
    int prev_ii = INT32_MAX;
    for (int partitions : {1, 2, 4, 8, 16}) {
      loop.arrays[0].partitions = partitions;
      const int ii = sched.schedule(loop).ii;
      EXPECT_LE(ii, prev_ii) << "trial " << trial;
      prev_ii = ii;
    }
  }
}

TEST(SchedulerProperty, TotalCyclesScaleWithTripCount) {
  const hls::Scheduler sched(hls::OperatorLibrary::artix7_100mhz());
  Rng rng(103);
  for (int trial = 0; trial < 50; ++trial) {
    hls::Loop loop = random_loop(rng);
    loop.trip_count = 1000;
    const auto small = sched.schedule(loop);
    loop.trip_count = 10000;
    const auto large = sched.schedule(loop);
    // 10x trips: cycles grow by ~10x (fills amortise).
    const double ratio = static_cast<double>(large.total_cycles) /
                         static_cast<double>(small.total_cycles);
    EXPECT_GT(ratio, 8.0) << "trial " << trial;
    EXPECT_LT(ratio, 10.5) << "trial " << trial;
  }
}

// ---- Exhaustive narrow fixed-point arithmetic ------------------------------

class NarrowFixedExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(NarrowFixedExhaustive, AddMulMatchDoubleOracleForAllPatterns) {
  const int width = GetParam();
  const fixed::FixedFormat f(width, 2, fixed::Round::half_up,
                             fixed::Overflow::saturate);
  // Exhaustive over all raw pairs for widths <= 6 (4096 combinations).
  for (std::int64_t a = f.min_raw(); a <= f.max_raw(); ++a) {
    for (std::int64_t b = f.min_raw(); b <= f.max_raw(); ++b) {
      // Addition oracle: real sum, clamped to the format's range.
      const double real_sum = f.raw_to_double(a) + f.raw_to_double(b);
      const std::int64_t got_sum = f.apply_overflow(a + b);
      const double clamped =
          std::min(std::max(real_sum, f.min_value()), f.max_value());
      EXPECT_NEAR(f.raw_to_double(got_sum), clamped, f.lsb() / 2)
          << "width " << width << " a=" << a << " b=" << b;

      // Multiplication oracle: real product quantised (round-half-up).
      const double real_prod = f.raw_to_double(a) * f.raw_to_double(b);
      const std::int64_t got_prod = f.apply_overflow(
          fixed::shift_right_round(a * b, f.frac_bits(),
                                   fixed::Round::half_up));
      const double clamped_prod =
          std::min(std::max(real_prod, f.min_value()), f.max_value());
      EXPECT_NEAR(f.raw_to_double(got_prod), clamped_prod, f.lsb())
          << "width " << width << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, NarrowFixedExhaustive,
                         ::testing::Values(3, 4, 5, 6));

// ---- Pipeline invariants across backends and geometry ----------------------

class PipelineInvariants
    : public ::testing::TestWithParam<
          std::tuple<const char*, int, double>> {};

TEST_P(PipelineInvariants, OutputInRangeFiniteAndDeterministic) {
  const auto [backend, size, sigma] = GetParam();
  const img::ImageF hdr = io::paper_test_image(size);
  tonemap::PipelineOptions opt;
  opt.backend = backend;
  opt.sigma = sigma;
  const img::ImageF a = tonemap::tone_map_image(hdr, opt);
  const img::ImageF b = tonemap::tone_map_image(hdr, opt);
  auto sa = a.samples();
  auto sb = b.samples();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_TRUE(std::isfinite(sa[i]));
    ASSERT_GE(sa[i], 0.0f);
    ASSERT_LE(sa[i], 1.0f);
    ASSERT_EQ(sa[i], sb[i]); // run-to-run determinism
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineInvariants,
    ::testing::Combine(::testing::Values("separable_float", "fused_stream",
                                         "streaming_fixed"),
                       ::testing::Values(32, 65),
                       ::testing::Values(2.0, 6.0)));

TEST(PipelineInvariantTest, MaskingMonotoneInInputPerPixel) {
  // For a fixed mask, the correction is monotone in the input value.
  img::ImageF mask(1, 1, 1);
  mask.at(0, 0) = 0.3f;
  float prev = -1.0f;
  for (float v = 0.0f; v <= 1.0f; v += 0.04f) {
    img::ImageF in(1, 1, 1);
    in.at(0, 0) = v;
    const float out = tonemap::nonlinear_masking(in, mask).at(0, 0);
    EXPECT_GE(out, prev);
    prev = out;
  }
}

// ---- Decoder robustness -----------------------------------------------------

TEST(DecoderRobustness, RgbeRejectsCorruptHeaders) {
  const char* bad[] = {
      "",
      "#?RADIANCE\n",                                 // truncated
      "#?RADIANCE\nFORMAT=wrong\n\n-Y 2 +X 2\n",      // bad format
      "#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n+Y 2 +X 2\n", // bad orientation
      "#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 0 +X 2\n", // zero height
  };
  for (const char* text : bad) {
    std::stringstream in(text);
    EXPECT_THROW(io::read_rgbe(in), IoError) << '"' << text << '"';
  }
}

TEST(DecoderRobustness, PfmRejectsCorruptHeaders) {
  {
    std::stringstream in("PF\n-3 2\n-1.0\n");
    EXPECT_THROW(io::read_pfm(in), IoError);
  }
  {
    std::stringstream in("PF\n2 2\n-1.0\nxx"); // truncated pixels
    EXPECT_THROW(io::read_pfm(in), IoError);
  }
  {
    std::stringstream in("Pf"); // nothing after magic
    EXPECT_THROW(io::read_pfm(in), IoError);
  }
}

TEST(DecoderRobustness, PnmRejectsCorruptInput) {
  {
    std::stringstream in("P4\n2 2\n255\nxxxx"); // unsupported magic
    EXPECT_THROW(io::read_pnm(in), IoError);
  }
  {
    std::stringstream in("P5\n2 2\n65535\n"); // 16-bit not supported
    EXPECT_THROW(io::read_pnm(in), IoError);
  }
  {
    std::stringstream in("P5\n2 2\n255\nab"); // truncated
    EXPECT_THROW(io::read_pnm(in), IoError);
  }
}

TEST(DecoderRobustness, RgbeRleCannotOverflowScanline) {
  // A crafted RLE run longer than the scanline must be rejected, not
  // written out of bounds.
  std::stringstream out;
  out << "#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 16\n";
  const unsigned char head[4] = {2, 2, 0, 16};
  out.write(reinterpret_cast<const char*>(head), 4);
  // One run of 127 identical bytes into a 16-wide component.
  out.put(static_cast<char>(128 + 127));
  out.put(static_cast<char>(42));
  std::stringstream in(out.str());
  EXPECT_THROW(io::read_rgbe(in), IoError);
}

// ---- Platform scaling laws ---------------------------------------------------

TEST(ScalingLaw, TimesScaleLinearlyWithPixels) {
  const zynq::ZynqPlatform platform = zynq::ZynqPlatform::zc702();
  accel::Workload small = accel::Workload::paper();
  small.width = small.height = 512;
  accel::Workload big = accel::Workload::paper(); // 1024^2 = 4x pixels
  const accel::ToneMappingSystem sys_small(platform, small);
  const accel::ToneMappingSystem sys_big(platform, big);
  for (accel::Design d : accel::all_designs()) {
    const double ts = sys_small.analyze(d).timing.blur_s;
    const double tb = sys_big.analyze(d).timing.blur_s;
    EXPECT_NEAR(tb / ts, 4.0, 0.15) << accel::short_name(d);
  }
}

TEST(ScalingLaw, EnergyNeverNegativeAndBoundedByPowerCeiling) {
  const zynq::ZynqPlatform platform = zynq::ZynqPlatform::zc702();
  for (int size : {128, 256, 512, 1024}) {
    accel::Workload w = accel::Workload::paper();
    w.width = w.height = size;
    const accel::ToneMappingSystem sys(platform, w);
    for (accel::Design d : accel::all_designs()) {
      const accel::DesignReport r = sys.analyze(d);
      EXPECT_GE(r.energy.total_j(), 0.0);
      EXPECT_LT(r.energy.total_j(), 2.5 * r.timing.total_s());
    }
  }
}

TEST(ScalingLaw, SpeedupIndependentOfImageSize) {
  // The blur speed-up is a property of the schedule, not the image size.
  const zynq::ZynqPlatform platform = zynq::ZynqPlatform::zc702();
  double prev_speedup = 0.0;
  for (int size : {256, 512, 1024}) {
    accel::Workload w = accel::Workload::paper();
    w.width = w.height = size;
    const accel::ToneMappingSystem sys(platform, w);
    const double s = sys.analyze(accel::Design::sw_source).timing.blur_s /
                     sys.analyze(accel::Design::fixed_point).timing.blur_s;
    if (prev_speedup > 0.0) {
      EXPECT_NEAR(s, prev_speedup, 0.05 * prev_speedup);
    }
    prev_speedup = s;
  }
}

} // namespace
} // namespace tmhls
