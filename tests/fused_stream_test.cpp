// Tests for the fused sliding-window engine (tonemap::blur_fused_stream /
// tonemap::tone_map_fused) and its fused_stream execution backend. The
// contract under test is bit-identity: the fused engine must reproduce the
// plane-at-a-time reference byte for byte — blur against
// blur_separable_float, full pipeline against tone_map() — for every
// geometry (including degenerate ones where the kernel dwarfs the frame),
// every thread count, and through every integration surface that can
// select the backend (tone_map_image, ToneMapService; FrameEngine and
// PipelineOptions::plan have their own suites).
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/executor.hpp"
#include "exec/registry.hpp"
#include "serve/service.hpp"
#include "tonemap/blur.hpp"
#include "tonemap/fused_stream.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::tonemap {
namespace {

img::ImageF random_plane(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  img::ImageF im(w, h, 1);
  for (float& v : im.samples()) v = static_cast<float>(rng.uniform());
  return im;
}

img::ImageF random_hdr(int w, int h, int channels, std::uint64_t seed) {
  Rng rng(seed);
  img::ImageF im(w, h, channels);
  for (float& v : im.samples()) {
    v = static_cast<float>(rng.uniform() * 100.0 + 1e-3);
  }
  return im;
}

::testing::AssertionResult bit_identical(const img::ImageF& a,
                                         const img::ImageF& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  auto sa = a.samples();
  auto sb = b.samples();
  if (std::memcmp(sa.data(), sb.data(), sa.size_bytes()) != 0) {
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (sa[i] != sb[i]) {
        return ::testing::AssertionFailure()
               << "first difference at sample " << i << ": " << sa[i]
               << " vs " << sb[i];
      }
    }
    return ::testing::AssertionFailure() << "bit pattern difference (NaN?)";
  }
  return ::testing::AssertionSuccess();
}

// --- Blur bit-identity ----------------------------------------------------

TEST(FusedBlurTest, BitIdenticalToSeparableAcrossGeometries) {
  // Odd widths/heights straddling the SIMD lane width and the kernel
  // radius, plus the degenerate single-pixel plane.
  struct Case {
    int width, height, radius;
  };
  const std::vector<Case> cases = {
      {33, 17, 6}, {31, 7, 6},  {5, 3, 6},   {1, 1, 6},
      {64, 48, 6}, {17, 33, 2}, {129, 65, 8}};
  std::uint64_t seed = 7;
  for (const Case& c : cases) {
    const GaussianKernel kernel(2.0, c.radius);
    const img::ImageF src = random_plane(c.width, c.height, seed++);
    const img::ImageF golden = blur_separable_float(src, kernel);
    EXPECT_TRUE(bit_identical(blur_fused_stream(src, kernel), golden))
        << c.width << "x" << c.height << " r" << c.radius;
  }
}

TEST(FusedBlurTest, BitIdenticalWhenRadiusDwarfsTheFrame) {
  // radius >= height/2, radius >= height, and radius >= width: the
  // vertical window is mostly clamp-to-edge rows and the line buffer is
  // taller than the frame.
  struct Case {
    int width, height, radius;
  };
  for (const Case& c : std::initializer_list<Case>{
           {40, 10, 5}, {40, 10, 12}, {5, 9, 12}, {3, 3, 7}}) {
    const GaussianKernel kernel(4.0, c.radius);
    const img::ImageF src = random_plane(c.width, c.height, 99);
    EXPECT_TRUE(bit_identical(blur_fused_stream(src, kernel),
                              blur_separable_float(src, kernel)))
        << c.width << "x" << c.height << " r" << c.radius;
  }
}

TEST(FusedBlurTest, BitIdenticalAtEveryThreadCount) {
  const GaussianKernel kernel(3.0, 9);
  const img::ImageF src = random_plane(61, 37, 11);
  const img::ImageF golden = blur_separable_float(src, kernel);
  for (int threads = 1; threads <= 7; ++threads) {
    EXPECT_TRUE(bit_identical(blur_fused_stream(src, kernel, threads),
                              golden))
        << "threads=" << threads;
  }
  // More bands than rows: clamped, still identical.
  EXPECT_TRUE(bit_identical(
      blur_fused_stream(random_plane(16, 3, 12), GaussianKernel(2.0, 4), 7),
      blur_separable_float(random_plane(16, 3, 12), GaussianKernel(2.0, 4))));
}

TEST(FusedBlurTest, RejectsMultiChannelPlanesAndBadThreads) {
  const GaussianKernel kernel(2.0, 4);
  EXPECT_THROW(blur_fused_stream(random_hdr(8, 8, 3, 1), kernel),
               InvalidArgument);
  EXPECT_THROW(blur_fused_stream(random_plane(8, 8, 1), kernel, 0),
               InvalidArgument);
}

// --- Full-pipeline bit-identity -------------------------------------------

TEST(FusedToneMapTest, BitIdenticalToToneMapAcrossConfigurations) {
  for (int channels : {1, 3, 4}) {
    for (float gamma : {2.2f, 1.0f}) {
      for (float scale : {0.0f, 2.5f}) {
        PipelineOptions opt;
        opt.sigma = 2.0;
        opt.radius = 6;
        opt.display_gamma = gamma;
        opt.normalization_scale = scale;
        const img::ImageF hdr =
            random_hdr(37, 23, channels, 1000 + static_cast<std::uint64_t>(
                                                    channels));
        const PipelineResult golden = tone_map(hdr, opt);
        const FusedToneMapResult fused = tone_map_fused(hdr, opt);
        EXPECT_TRUE(bit_identical(fused.output, golden.output))
            << "c=" << channels << " gamma=" << gamma << " scale=" << scale;
        EXPECT_EQ(fused.input_max, golden.input_max);
      }
    }
  }
}

TEST(FusedToneMapTest, BitIdenticalAtEveryThreadCount) {
  PipelineOptions opt;
  opt.sigma = 2.0;
  opt.radius = 6;
  const img::ImageF hdr = random_hdr(41, 29, 3, 77);
  const PipelineResult golden = tone_map(hdr, opt);
  for (int threads = 1; threads <= 7; ++threads) {
    opt.threads = threads;
    EXPECT_TRUE(bit_identical(tone_map_fused(hdr, opt).output, golden.output))
        << "threads=" << threads;
  }
  opt.threads = 0;
  EXPECT_THROW(tone_map_fused(hdr, opt), InvalidArgument);
}

TEST(FusedToneMapTest, StagePreconditionsThrowUpFront) {
  PipelineOptions opt;
  opt.sigma = 2.0;
  opt.radius = 4;
  EXPECT_THROW(tone_map_fused(img::ImageF(), opt), InvalidArgument);
  EXPECT_THROW(tone_map_fused(random_hdr(8, 8, 2, 1), opt), InvalidArgument);
  opt.contrast = 0.0f;
  EXPECT_THROW(tone_map_fused(random_hdr(8, 8, 3, 1), opt), InvalidArgument);
  opt.contrast = 1.15f;
  opt.display_gamma = -2.0f;
  EXPECT_THROW(tone_map_fused(random_hdr(8, 8, 3, 1), opt), InvalidArgument);
  opt.display_gamma = 2.2f;
  // All-zero frame with by-max normalisation carries no light.
  EXPECT_THROW(tone_map_fused(img::ImageF(8, 8, 3), opt), InvalidArgument);
}

TEST(FusedToneMapTest, ToneMapImageRoutesFusedSelectionThroughTheEngine) {
  PipelineOptions opt;
  opt.sigma = 2.0;
  opt.radius = 6;
  opt.backend = "fused_stream";
  opt.threads = 3;
  const img::ImageF hdr = random_hdr(33, 21, 3, 5);
  // The same options through the staged pipeline (whose mask stage runs
  // the fused_stream backend's blur) and through the default backend both
  // pin the expected bits.
  const PipelineResult staged = tone_map(hdr, opt);
  EXPECT_TRUE(bit_identical(tone_map_image(hdr, opt), staged.output));
  PipelineOptions reference;
  reference.sigma = opt.sigma;
  reference.radius = opt.radius;
  EXPECT_TRUE(
      bit_identical(tone_map_image(hdr, opt), tone_map(hdr, reference).output));
}

// --- Backend registration and cost ----------------------------------------

TEST(FusedBackendTest, CapabilitiesAndCost) {
  const auto backend = exec::BackendRegistry::global().resolve("fused_stream");
  const exec::BackendCapabilities caps = backend->capabilities();
  EXPECT_TRUE(caps.float_datapath);
  EXPECT_FALSE(caps.fixed_datapath);
  EXPECT_TRUE(caps.streaming);
  EXPECT_TRUE(caps.tiled_threads);
  EXPECT_FALSE(caps.synthesizable);
  EXPECT_EQ(caps.data_bits, 32);
  EXPECT_GT(caps.simd_lanes, 1);

  const GaussianKernel kernel(16.0, 48);
  const exec::BlurCost cost = backend->estimate_cost(640, 480, kernel);
  const std::size_t plane = 640u * 480u * 4u;
  // Streaming: src read + dst write only; working set is the line buffer.
  EXPECT_EQ(cost.traffic_bytes, 2 * plane);
  EXPECT_EQ(cost.buffer_bytes, line_buffer_bytes(640, kernel.taps(), 32));

  // The non-streaming separable forms write and re-read the intermediate
  // plane — twice the fused engine's modelled traffic.
  const auto separable =
      exec::BackendRegistry::global().resolve("separable_float");
  EXPECT_EQ(separable->estimate_cost(640, 480, kernel).traffic_bytes,
            4 * plane);
}

TEST(FusedBackendTest, ExecutorRunsTheFusedEngine) {
  const GaussianKernel kernel(3.0, 9);
  const img::ImageF plane = random_plane(47, 31, 21);
  const img::ImageF golden = blur_separable_float(plane, kernel);
  for (int threads : {1, 4}) {
    exec::ExecutorOptions opts;
    opts.threads = threads;
    const exec::PipelineExecutor executor("fused_stream", opts);
    EXPECT_TRUE(bit_identical(executor.blur(plane, kernel), golden))
        << "threads=" << threads;
  }
}

// --- Integration: ToneMapService ------------------------------------------

TEST(FusedIntegrationTest, ServiceMultiBandJobsAreBitIdentical) {
  PipelineOptions opt;
  opt.sigma = 2.0;
  opt.radius = 6;
  opt.backend = "fused_stream";
  opt.threads = 3;
  serve::ToneMapServiceOptions so;
  so.shards = 2;
  serve::ToneMapService service(so);
  std::vector<std::future<serve::FrameResult>> futures;
  std::vector<img::ImageF> golden;
  for (int i = 0; i < 6; ++i) {
    const img::ImageF hdr =
        random_hdr(31, 22, 3, 400 + static_cast<std::uint64_t>(i));
    golden.push_back(tone_map(hdr, opt).output);
    serve::FrameJob job;
    job.frame = hdr;
    job.options = opt;
    futures.push_back(service.submit(std::move(job)));
  }
  for (int i = 0; i < 6; ++i) {
    serve::FrameResult r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.backend, "fused_stream");
    EXPECT_TRUE(bit_identical(r.output, golden[static_cast<std::size_t>(i)]))
        << "job=" << i;
  }
}

} // namespace
} // namespace tmhls::tonemap
