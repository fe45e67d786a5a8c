// Cross-module integration tests: the full §IV evaluation flow on reduced
// geometry — profiling identifies the blur (§III.B), the quality experiment
// (§IV.B PSNR/SSIM), golden-image regression via PFM round trip, and the
// end-to-end consistency of timing, energy and pixels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "accel/system.hpp"
#include "common/error.hpp"
#include "imageio/pfm.hpp"
#include "imageio/pnm.hpp"
#include "imageio/rgbe.hpp"
#include "imageio/synthetic.hpp"
#include "metrics/quality.hpp"
#include "metrics/ssim.hpp"
#include "platform/zynq.hpp"
#include "profiling/profiler.hpp"
#include "tonemap/fused_stream.hpp"
#include "tonemap/op_counts.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls {
namespace {

// Reduced-geometry workload so functional runs stay fast in CI.
accel::Workload small_workload() {
  accel::Workload w = accel::Workload::paper();
  w.width = 128;
  w.height = 128;
  w.sigma = 6.0;
  w.radius = 18;
  return w;
}

TEST(ProfilingFlowTest, CpuModelIdentifiesBlurAsHotspot) {
  // §III.B: "the tone-mapping algorithm has been profiled and the Gaussian
  // blur function identified as the most computationally-intensive".
  // Function-level profilers (gprof, as used under SDSoC) attribute libm
  // time to pow()/exp2() themselves, so the application functions are the
  // stage loops *minus* their transcendental-call time. Under that
  // attribution the blur must be the top application function — the one
  // that gets marked for acceleration.
  const zynq::CpuModel cpu = zynq::CpuModel::cortex_a9_667mhz();
  const tonemap::GaussianKernel kernel(13.0, 39);

  auto split = [&](const char* label, tonemap::OpCounts ops,
                   prof::ProfileRegistry& reg) {
    tonemap::OpCounts libm;
    libm.pow_calls = ops.pow_calls;
    libm.exp2_calls = ops.exp2_calls;
    libm.log_calls = ops.log_calls;
    ops.pow_calls = ops.exp2_calls = ops.log_calls = 0;
    reg.record(label, cpu.seconds_for(ops));
    const double libm_s = cpu.seconds_for(libm);
    if (libm_s > 0.0) reg.record("libm (pow/exp2)", libm_s);
  };

  prof::ProfileRegistry reg;
  split("normalization", tonemap::count_normalization(1024, 1024, 3), reg);
  split("intensity", tonemap::count_intensity(1024, 1024, 3), reg);
  split("gaussian_blur",
        tonemap::count_gaussian_blur(1024, 1024, kernel), reg);
  split("nonlinear_masking",
        tonemap::count_nonlinear_masking(1024, 1024, 3), reg);
  split("adjustments", tonemap::count_adjustments(1024, 1024, 3), reg);

  // The blur dominates every application function by a wide margin.
  double blur_s = 0.0;
  for (const auto& e : reg.entries_by_time()) {
    if (e.label == "gaussian_blur") blur_s = e.total_seconds;
  }
  for (const auto& e : reg.entries_by_time()) {
    if (e.label == "gaussian_blur" || e.label == "libm (pow/exp2)") continue;
    EXPECT_LT(e.total_seconds, 0.2 * blur_s) << e.label;
  }
  EXPECT_GT(reg.fraction("gaussian_blur"), 0.25);
}

TEST(QualityFlowTest, FixedVsFloatPsnrInPaperBand) {
  // §IV.B on reduced geometry: PSNR between the FxP and FlP tone-mapped
  // images. The paper reports 66 dB at 1024x1024; the band here is wide
  // because geometry and scene differ, but it must sit in the "lossy
  // compression grade" range the paper cites.
  const accel::Workload w = small_workload();
  const accel::ToneMappingSystem sys(zynq::ZynqPlatform::zc702(), w);
  const img::ImageF hdr = io::paper_test_image(128);
  const img::ImageF flp =
      sys.run(hdr, accel::Design::hls_pragmas).images.output;
  const img::ImageF fxp =
      sys.run(hdr, accel::Design::fixed_point).images.output;
  const double quality_db = metrics::psnr(flp, fxp);
  EXPECT_GT(quality_db, 40.0);
  EXPECT_LT(quality_db, 100.0);
}

TEST(QualityFlowTest, FixedVsFloatSsimIsOne) {
  // §IV.B: "the resulting SSIM is equal to 1, which corresponds to the
  // same image quality" (at the reported precision).
  const accel::Workload w = small_workload();
  const accel::ToneMappingSystem sys(zynq::ZynqPlatform::zc702(), w);
  const img::ImageF hdr = io::paper_test_image(128);
  const img::ImageF flp =
      sys.run(hdr, accel::Design::hls_pragmas).images.output;
  const img::ImageF fxp =
      sys.run(hdr, accel::Design::fixed_point).images.output;
  EXPECT_GT(metrics::ssim(flp, fxp), 0.995);
}

TEST(QualityFlowTest, NoVisibleDifferenceAtEightBits) {
  // "no real visual difference between the two images can be noticed":
  // after 8-bit quantisation the two outputs differ by at most one code.
  const accel::Workload w = small_workload();
  const accel::ToneMappingSystem sys(zynq::ZynqPlatform::zc702(), w);
  const img::ImageF hdr = io::paper_test_image(128);
  const img::ImageU8 flp =
      img::to_u8(sys.run(hdr, accel::Design::hls_pragmas).images.output);
  const img::ImageU8 fxp =
      img::to_u8(sys.run(hdr, accel::Design::fixed_point).images.output);
  int max_diff = 0;
  auto sa = flp.samples();
  auto sb = fxp.samples();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(static_cast<int>(sa[i]) -
                                           static_cast<int>(sb[i])));
  }
  EXPECT_LE(max_diff, 1);
}

TEST(GoldenImageTest, PipelineOutputIsStableAcrossRuns) {
  // Determinism end to end: scene generation, pipeline and fixed-point
  // datapath produce bit-identical outputs on repeated runs.
  const img::ImageF hdr = io::paper_test_image(96);
  tonemap::PipelineOptions opt;
  opt.sigma = 6.0;
  opt.backend = "streaming_fixed";
  const img::ImageF a = tonemap::tone_map_image(hdr, opt);
  const img::ImageF b = tonemap::tone_map_image(hdr, opt);
  auto sa = a.samples();
  auto sb = b.samples();
  for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_EQ(sa[i], sb[i]);
}

TEST(GoldenImageTest, PfmRoundTripPreservesPipelineOutput) {
  const img::ImageF hdr = io::paper_test_image(64);
  const img::ImageF out = tonemap::tone_map_image(hdr);
  std::stringstream buf;
  io::write_pfm(buf, out);
  const img::ImageF loaded = io::read_pfm(buf);
  EXPECT_EQ(metrics::mse(out, loaded), 0.0); // lossless
}

TEST(GoldenImageTest, RgbeRoundTripOfSceneKeepsToneMapStable) {
  // Store the HDR scene as .hdr (lossy 8-bit mantissa), reload, tone-map:
  // result must stay close to the original tone mapping — validates that
  // users can feed file-based HDR photographs through the pipeline.
  const img::ImageF hdr = io::paper_test_image(64);
  std::stringstream buf;
  io::write_rgbe(buf, hdr);
  const img::ImageF reloaded = io::read_rgbe(buf);
  const img::ImageF a = tonemap::tone_map_image(hdr);
  const img::ImageF b = tonemap::tone_map_image(reloaded);
  EXPECT_GT(metrics::psnr(a, b), 35.0);
}

/// FNV-1a (64-bit) over the bit pattern of every sample.
std::uint64_t sample_digest(const img::ImageF& im) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const float v : im.samples()) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h = (h ^ ((bits >> (8 * b)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(GoldenImageTest, FloatPipelineBytesArePinned) {
  // The float pipeline's output bits, pinned as digests. The staged golden
  // model and the fused engine share the point-wise row kernels, so a
  // change in those moves both sides together and every suite that
  // compares one path with the other still passes; these fixed values do
  // not. The kernels are lane-wise and FMA-free, so the bits are the same
  // on every ISA and one digest serves every build.
  const img::ImageF rgb = io::paper_test_image(96);
  img::ImageF gray(rgb.width(), rgb.height(), 1);
  img::ImageF rgba(rgb.width(), rgb.height(), 4);
  for (int y = 0; y < rgb.height(); ++y) {
    for (int x = 0; x < rgb.width(); ++x) {
      gray.at(x, y) = rgb.at(x, y, 1);
      for (int c = 0; c < 3; ++c) rgba.at(x, y, c) = rgb.at(x, y, c);
      rgba.at(x, y, 3) = 0.5f * (rgb.at(x, y, 0) + rgb.at(x, y, 2));
    }
  }
  tonemap::PipelineOptions opt;
  opt.sigma = 4.0; // radius 12: four bands of 24 rows at 4 threads
  opt.backend = "separable_float";
  const struct {
    const img::ImageF* hdr;
    std::uint64_t digest;
  } cases[] = {{&gray, 0x2d3e690e98fea81cULL},
                {&rgb, 0x31a41b1cc3f1d14dULL},
                {&rgba, 0xa4d491799d05b4beULL}};
  for (const auto& k : cases) {
    const int c = k.hdr->channels();
    EXPECT_EQ(sample_digest(tonemap::tone_map(*k.hdr, opt).output), k.digest)
        << "separable_float, " << c << " channel(s)";
    for (const int threads : {1, 4}) {
      tonemap::PipelineOptions fused = opt;
      fused.threads = threads;
      EXPECT_EQ(sample_digest(tonemap::tone_map_fused(*k.hdr, fused).output),
                k.digest)
          << "tone_map_fused, " << c << " channel(s), " << threads
          << " thread(s)";
    }
  }
}

TEST(EndToEndTest, FullEvaluationOnSmallWorkloadIsConsistent) {
  const accel::Workload w = small_workload();
  const accel::ToneMappingSystem sys(zynq::ZynqPlatform::zc702(), w);
  const img::ImageF hdr = io::paper_test_image(128);

  double previous_blur = 1e30;
  bool first = true;
  for (accel::Design d : accel::all_designs()) {
    const accel::RunResult r = sys.run(hdr, d);
    // Timing, energy, pixels all present and consistent.
    EXPECT_GT(r.report.timing.total_s(), 0.0);
    EXPECT_GT(r.report.energy.total_j(), 0.0);
    EXPECT_EQ(r.images.output.width(), w.width);
    // Energy never exceeds max-power x time.
    const double max_power = 2.5; // W, generous board ceiling
    EXPECT_LT(r.report.energy.total_j(),
              max_power * r.report.timing.total_s());
    // After the marked_hw regression, each optimization step improves the
    // blur time (Table I's narrative).
    if (!first && d != accel::Design::marked_hw) {
      EXPECT_LT(r.report.timing.blur_s, previous_blur)
          << accel::short_name(d);
    }
    previous_blur = r.report.timing.blur_s;
    first = false;
  }
}

TEST(EndToEndTest, EnergyIdentityAvgPowerTimesTime) {
  // §IV.C: energy = average power x execution time, per rail and in total.
  const accel::ToneMappingSystem sys(zynq::ZynqPlatform::zc702(),
                                     accel::Workload::paper());
  for (accel::Design d : accel::all_designs()) {
    const accel::DesignReport r = sys.analyze(d);
    const zynq::PmbusMonitor mon = sys.power_timeline(d);
    const double avg_w = mon.average_power().total_w();
    EXPECT_NEAR(avg_w * mon.total_duration_s(), r.energy.total_j(), 1e-6);
  }
}

TEST(EndToEndTest, FinalImagesWriteAsPpm) {
  const img::ImageF hdr = io::paper_test_image(64);
  const img::ImageF out = tonemap::tone_map_image(hdr);
  std::stringstream buf;
  io::write_pnm(buf, img::to_u8(out));
  EXPECT_GT(buf.str().size(), 64u * 64u * 3u); // header + payload
}

} // namespace
} // namespace tmhls
