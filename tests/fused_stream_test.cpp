// Tests for the fused sliding-window engine (tonemap::blur_fused_stream /
// tonemap::tone_map_fused) and its fused_stream execution backend. The
// contract under test is bit-identity: the fused engine must reproduce the
// plane-at-a-time reference byte for byte — blur against
// blur_separable_float, full pipeline against tone_map() — for every
// geometry (including degenerate ones where the kernel dwarfs the frame),
// every thread count (with proof that the bands exchanged their halo rows,
// and that a failed spawn or a failing band leaves no band parked), and
// through every integration surface that can select the backend (tone_map_image, ToneMapService; FrameEngine and
// PipelineOptions::plan have their own suites).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "exec/executor.hpp"
#include "exec/registry.hpp"
#include "exec/tiled.hpp"
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

// --- Ring edge cases ------------------------------------------------------

// The line buffer rings taps + kVpassBlockRows - 1 rows and the normalized
// ring radius + kVpassBlockRows; an off-by-one in either corrupts output
// only on some geometries. Sweep frame heights (odd ones, and bands of 1
// to 5 rows: below, at and one past a vertical block) with the radius
// below, at and beyond the height, at 1-4 threads, through both entry
// points, byte for byte against the plane-at-a-time references.
TEST(FusedRingTest, EdgeGeometriesAreBitIdenticalAtOneToFourThreads) {
  std::uint64_t seed = 500;
  for (int h : {1, 2, 3, 4, 5, 7, 9, 11, 13, 17, 19}) {
    for (int radius : {1, 2, 5, h, h + 3}) {
      const GaussianKernel kernel(radius / 2.0 + 0.5, radius);
      const img::ImageF plane = random_plane(19, h, seed);
      const img::ImageF blur_golden = blur_separable_float(plane, kernel);
      PipelineOptions opt;
      opt.sigma = radius / 2.0 + 0.5;
      opt.radius = radius;
      const img::ImageF hdr = random_hdr(21, h, 3, seed++);
      const img::ImageF tone_golden = tone_map(hdr, opt).output;
      for (int threads = 1; threads <= 4; ++threads) {
        EXPECT_TRUE(bit_identical(blur_fused_stream(plane, kernel, threads),
                                  blur_golden))
            << "blur h=" << h << " r=" << radius << " threads=" << threads;
        opt.threads = threads;
        EXPECT_TRUE(bit_identical(tone_map_fused(hdr, opt).output,
                                  tone_golden))
            << "tone map h=" << h << " r=" << radius
            << " threads=" << threads;
      }
    }
  }
}

// --- Halo exchange --------------------------------------------------------

// Disarms every fault site on every exit path (sites are process-global).
struct ScopedDisarm {
  ~ScopedDisarm() { fault::disarm_all(); }
};

// Counts the bands that ran the exchange: "exec.bands.publish" is hit once
// by every band of a multi-band frame, and never by a one-band frame.
// Armed with max_fires = 0 it never fires but keeps counting hits.
void count_bands() {
  fault::FaultSpec spec;
  spec.max_fires = 0;
  fault::arm("exec.bands.publish", spec);
}
std::uint64_t bands_run() { return fault::stats("exec.bands.publish").hits; }

// Band heights below, at and past the halo (radius) and twice the halo, at
// 2-8 threads, through both entry points: every band count the rule picks
// must run that many exchanging bands and give the reference's bytes. A
// frame whose bands would be thinner than the halo runs on fewer, thicker
// bands, and on two or more wherever the frame holds two halos.
TEST(FusedBandTest, HaloThicknessSweepRunsTheExchange) {
  const ScopedDisarm disarm;
  std::uint64_t seed = 900;
  for (int radius : {3, 5}) {
    const GaussianKernel kernel(radius / 2.0 + 0.5, radius);
    PipelineOptions opt;
    opt.sigma = radius / 2.0 + 0.5;
    opt.radius = radius;
    for (int band_rows : {radius - 1, radius, radius + 1, 2 * radius - 1,
                          2 * radius, 2 * radius + 1}) {
      for (int threads = 2; threads <= 8; ++threads) {
        const int h = band_rows * threads;
        const int bands = exec::band_count(threads, h, radius);
        if (band_rows >= radius) {
          EXPECT_EQ(bands, threads);
        }
        if (h >= 2 * radius) {
          EXPECT_GE(bands, 2);
        }
        const std::uint64_t expected_hits =
            bands > 1 ? static_cast<std::uint64_t>(bands) : 0u;

        const img::ImageF plane = random_plane(11, h, seed);
        count_bands();
        EXPECT_TRUE(bit_identical(blur_fused_stream(plane, kernel, threads),
                                  blur_separable_float(plane, kernel)))
            << "blur h=" << h << " r=" << radius << " threads=" << threads;
        EXPECT_EQ(bands_run(), expected_hits)
            << "blur h=" << h << " r=" << radius << " threads=" << threads;

        const img::ImageF hdr = random_hdr(13, h, 3, seed++);
        opt.threads = threads;
        count_bands();
        EXPECT_TRUE(bit_identical(tone_map_fused(hdr, opt).output,
                                  tone_map(hdr, opt).output))
            << "tone map h=" << h << " r=" << radius
            << " threads=" << threads;
        EXPECT_EQ(bands_run(), expected_hits)
            << "tone map h=" << h << " r=" << radius
            << " threads=" << threads;
      }
    }
  }
}

// The frame max is reduced per band and folded at the round's barrier: a
// frame whose only positive sample is the very last one (the last band's)
// must still be scaled by it, and a frame with no positive sample must
// fail with the one-band error at every thread count.
TEST(FusedBandTest, FrameMaxFromTheLastSampleOfTheLastBand) {
  PipelineOptions opt;
  opt.sigma = 2.0;
  opt.radius = 4;
  for (const float background : {0.0f, -0.0f, -3.0f}) {
    img::ImageF hdr(9, 40, 3);
    for (float& v : hdr.samples()) v = background;
    hdr.samples()[hdr.samples().size() - 1] = 7.5f;
    const PipelineResult golden = tone_map(hdr, opt);
    ASSERT_EQ(golden.input_max, 7.5f);
    for (int threads = 1; threads <= 8; ++threads) {
      opt.threads = threads;
      const FusedToneMapResult fused = tone_map_fused(hdr, opt);
      EXPECT_TRUE(bit_identical(fused.output, golden.output))
          << "background " << background << " threads=" << threads;
      EXPECT_EQ(fused.input_max, golden.input_max);
    }
  }
}

TEST(FusedBandTest, NoPositiveSampleThrowsTheSameErrorAtEveryThreadCount) {
  PipelineOptions opt;
  opt.sigma = 2.0;
  opt.radius = 4;
  img::ImageF dark(9, 40, 3);
  img::ImageF negative(9, 40, 3);
  Rng rng(31);
  for (float& v : negative.samples()) {
    v = -static_cast<float>(rng.uniform() * 10.0);
  }
  negative.samples()[0] = -0.0f;
  negative.samples()[negative.samples().size() - 1] = -0.0f;
  for (const img::ImageF* frame : {&dark, &negative}) {
    std::string one_band;
    for (int threads = 1; threads <= 8; ++threads) {
      opt.threads = threads;
      try {
        tone_map_fused(*frame, opt);
        ADD_FAILURE() << "no throw at threads=" << threads;
      } catch (const InvalidArgument& e) {
        if (threads == 1) one_band = e.what();
        EXPECT_EQ(e.what(), one_band) << "threads=" << threads;
      }
    }
    EXPECT_NE(one_band.find("no positive sample"), std::string::npos);
  }
}

// Threads of this process, from /proc/self/status (0 where unavailable).
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

// A joined thread can linger in /proc for a moment after join returns, so
// the count is polled back down rather than read once.
void expect_no_band_thread_left(int before) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (process_threads() > before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(process_threads(), before);
}

// Runs `call` on its own thread and aborts the binary if it does not return
// within a generous bound: a band left parked at the barrier or a latch
// shows up as this abort instead of a suite that never ends.
template <class F>
auto returns_promptly(F&& call) {
  auto done = std::async(std::launch::async, std::forward<F>(call));
  if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "band round did not return within 60 s\n");
    std::abort();
  }
  return done.get();
}

// A band thread that fails to spawn after the ones before it started: the
// started bands are released from the barrier or their latches, and the
// frame is redone as one band on the caller, with the reference's bytes.
TEST(FusedBandFaultTest, FailedSpawnFallsBackToOneBand) {
  const ScopedDisarm disarm;
  PipelineOptions opt;
  opt.sigma = 2.0;
  opt.radius = 4;
  const img::ImageF hdr = random_hdr(23, 41, 3, 61);
  const img::ImageF plane = random_plane(23, 41, 62);
  const GaussianKernel kernel = opt.kernel();
  const img::ImageF blur_golden = blur_separable_float(plane, kernel);
  const int before = process_threads();
  for (const float scale : {0.0f, 80.0f}) {
    opt.normalization_scale = scale;
    const img::ImageF tone_golden = tone_map(hdr, opt).output;
    for (int threads = 2; threads <= 4; ++threads) {
      opt.threads = threads;
      for (int started = 0; started < threads - 1; ++started) {
        fault::FaultSpec spec;
        spec.action = fault::Action::throw_error;
        spec.trigger_after = static_cast<std::uint64_t>(started);
        spec.max_fires = 1;
        fault::arm("exec.bands.spawn", spec);
        EXPECT_TRUE(bit_identical(
            returns_promptly([&] { return tone_map_fused(hdr, opt).output; }),
            tone_golden))
            << "threads=" << threads << " started=" << started;
        EXPECT_EQ(fault::stats("exec.bands.spawn").fires, 1u);
        fault::arm("exec.bands.spawn", spec);
        EXPECT_TRUE(bit_identical(returns_promptly([&] {
                                    return blur_fused_stream(plane, kernel,
                                                             threads);
                                  }),
                                  blur_golden))
            << "threads=" << threads << " started=" << started;
        EXPECT_EQ(fault::stats("exec.bands.spawn").fires, 1u);
      }
    }
  }
  expect_no_band_thread_left(before);
}

// A band that fails before it publishes its halo rows: its neighbours are
// parked at their latches, and with by-max normalisation every band has
// already met at the barrier. The injected error reaches the caller, every
// band returns, and the next frame runs clean. The site fires on the k-th
// band to reach it, for every k; which band index that is varies from run
// to run, and the repetitions cover first, interior and last bands (the
// runner's own test fails each band index deterministically).
TEST(FusedBandFaultTest, AFailingBandReleasesItsNeighbours) {
  const ScopedDisarm disarm;
  PipelineOptions opt;
  opt.sigma = 2.0;
  opt.radius = 4;
  const img::ImageF hdr = random_hdr(23, 41, 3, 63);
  const img::ImageF plane = random_plane(23, 41, 64);
  const GaussianKernel kernel = opt.kernel();
  const int before = process_threads();
  for (const float scale : {0.0f, 80.0f}) {
    opt.normalization_scale = scale;
    for (int threads = 2; threads <= 4; ++threads) {
      opt.threads = threads;
      for (int k = 0; k < threads; ++k) {
        for (int rep = 0; rep < 4; ++rep) {
          fault::FaultSpec spec;
          spec.action = fault::Action::throw_error;
          spec.message = "band down";
          spec.trigger_after = static_cast<std::uint64_t>(k);
          spec.max_fires = 1;
          fault::arm("exec.bands.publish", spec);
          try {
            returns_promptly([&] { return tone_map_fused(hdr, opt); });
            ADD_FAILURE() << "no throw, threads=" << threads << " k=" << k;
          } catch (const fault::InjectedFault& e) {
            EXPECT_STREQ(e.what(), "band down");
          }
          fault::arm("exec.bands.publish", spec);
          EXPECT_THROW(returns_promptly([&] {
                         return blur_fused_stream(plane, kernel, threads);
                       }),
                       fault::InjectedFault)
              << "threads=" << threads << " k=" << k;
        }
      }
    }
  }
  fault::disarm_all();
  expect_no_band_thread_left(before);
  opt.threads = 4;
  EXPECT_TRUE(
      bit_identical(tone_map_fused(hdr, opt).output, tone_map(hdr, opt).output));
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

// --- Backend registration ------------------------------------------------

TEST(FusedBackendTest, Capabilities) {
  const auto backend = exec::BackendRegistry::global().resolve("fused_stream");
  const exec::BackendCapabilities caps = backend->capabilities();
  EXPECT_TRUE(caps.float_datapath);
  EXPECT_FALSE(caps.fixed_datapath);
  EXPECT_TRUE(caps.streaming);
  EXPECT_TRUE(caps.tiled_threads);
  EXPECT_FALSE(caps.synthesizable);
  EXPECT_EQ(caps.data_bits, 32);
  EXPECT_GT(caps.simd_lanes, 1);
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
