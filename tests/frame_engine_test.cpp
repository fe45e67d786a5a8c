// Tests for tonemap::FrameEngine, the one synchronous engine every consumer
// runs frames through: both routes (the fused sweep and the staged
// composition) are byte-identical to tone_map() on separable_float across
// backends and thread counts, the fused route runs the PLAN's threads
// ("auto" included), and on adversarial frames — zero, negative, +Inf,
// NaN, denormal and FLT_MAX samples, 1-pixel-thin frames, radii beyond the
// frame, widths off the vector lane count, 1/2/3/4 channels — both routes
// give the same bytes or the same typed error.
// Also the stage composition and the ExecutorOptions validation the engine
// is built on.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/executor.hpp"
#include "exec/registry.hpp"
#include "tonemap/frame_engine.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::tonemap {
namespace {

img::ImageF random_hdr(int w, int h, std::uint64_t seed, int channels = 3) {
  Rng rng(seed);
  img::ImageF im(w, h, channels);
  for (float& v : im.samples()) {
    v = static_cast<float>(rng.uniform() * 100.0 + 1e-3);
  }
  return im;
}

/// Byte equality, except that a NaN matches any NaN (the routes may carry
/// different NaN payloads; both must produce NaN at the same samples).
::testing::AssertionResult same_samples(const img::ImageF& a,
                                        const img::ImageF& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  const auto sa = a.samples();
  const auto sb = b.samples();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (std::isnan(sa[i]) && std::isnan(sb[i])) continue;
    if (std::memcmp(&sa[i], &sb[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "first difference at sample " << i << ": " << sa[i]
             << " vs " << sb[i];
    }
  }
  return ::testing::AssertionSuccess();
}

PipelineOptions small_options(const std::string& backend) {
  PipelineOptions opt;
  opt.sigma = 2.0;
  opt.radius = 6;
  opt.backend = backend;
  if (backend == "streaming_fixed") opt.datapath = Datapath::fixed_point;
  return opt;
}

// --- ExecutorOptions validation --------------------------------------------

TEST(ValidationTest, ExecutorOptionsRejectNonPositiveThreads) {
  for (int threads : {0, -1, -7}) {
    exec::ExecutorOptions opts;
    opts.threads = threads;
    EXPECT_THROW(exec::PipelineExecutor("separable_float", opts),
                 InvalidArgument);
    PipelineOptions auto_opt = small_options("auto");
    auto_opt.threads = threads;
    EXPECT_THROW(auto_opt.plan(32, 32), InvalidArgument);
  }
  try {
    exec::ExecutorOptions opts;
    opts.threads = -3;
    exec::PipelineExecutor("fused_stream", opts);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    // The message names the field and the offending value.
    EXPECT_NE(std::string(e.what()).find("ExecutorOptions::threads"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos);
  }
}

// --- Stage functions compose to tone_map ----------------------------------

TEST(StageTest, StagesComposeBitIdenticallyToToneMap) {
  const img::ImageF hdr = random_hdr(29, 17, 61);
  const PipelineOptions opt = small_options("separable_float");
  const exec::PipelineExecutor executor = opt.plan(hdr.width(), hdr.height());
  const GaussianKernel kernel = opt.kernel();

  PipelineResult manual;
  manual.normalized = stages::normalize(hdr, opt, &manual.input_max);
  manual.intensity = stages::intensity(manual.normalized);
  manual.mask = stages::mask(manual.intensity, kernel, executor);
  manual.masked = stages::masking(manual.normalized, manual.mask);
  manual.output = stages::adjust(manual.masked, opt);

  const PipelineResult golden = tone_map(hdr, opt, executor);
  EXPECT_TRUE(same_samples(manual.normalized, golden.normalized));
  EXPECT_TRUE(same_samples(manual.intensity, golden.intensity));
  EXPECT_TRUE(same_samples(manual.mask, golden.mask));
  EXPECT_TRUE(same_samples(manual.masked, golden.masked));
  EXPECT_TRUE(same_samples(manual.output, golden.output));
  EXPECT_EQ(manual.input_max, golden.input_max);
}

// --- FrameEngine: routes ---------------------------------------------------

TEST(FrameEngineTest, EveryBackendMatchesBlockingToneMapOnItsRoute) {
  for (const std::string& name : exec::BackendRegistry::global().names()) {
    const PipelineOptions opt = small_options(name);
    const FrameEngine engine(opt, 33, 21);
    EXPECT_EQ(engine.fused_route(), name == "fused_stream") << name;
    for (int i = 0; i < 3; ++i) {
      const img::ImageF frame =
          random_hdr(33, 21, 500 + static_cast<std::uint64_t>(i));
      EXPECT_TRUE(same_samples(engine.run(frame), tone_map(frame, opt).output))
          << name << " frame " << i;
    }
  }
}

TEST(FrameEngineTest, FixedOnlyBackendRunsItsDatapathByDefault) {
  // Naming a fixed-only backend with an unspecified datapath runs its
  // fixed datapath, byte-identical to the explicit request.
  PipelineOptions opt;
  opt.backend = "streaming_fixed";
  const img::ImageF frame = random_hdr(21, 15, 83);
  PipelineOptions explicit_fixed = opt;
  explicit_fixed.datapath = Datapath::fixed_point;
  const FrameEngine engine(opt, frame.width(), frame.height());
  EXPECT_FALSE(engine.fused_route());
  EXPECT_TRUE(same_samples(engine.run(frame),
                           tone_map(frame, explicit_fixed).output));
}

TEST(FrameEngineTest, FusedRouteIsBandInvariant) {
  const img::ImageF frame = random_hdr(41, 29, 77);
  const img::ImageF golden =
      tone_map(frame, small_options("separable_float")).output;
  for (int threads = 1; threads <= 7; ++threads) {
    PipelineOptions opt = small_options("fused_stream");
    opt.threads = threads;
    const FrameEngine engine(opt, frame.width(), frame.height());
    ASSERT_TRUE(engine.fused_route());
    EXPECT_EQ(engine.executor().options().threads, threads);
    EXPECT_TRUE(same_samples(engine.run(frame), golden)) << threads;
  }
}

TEST(FrameEngineTest, AutoPlansTheFusedRouteAtServingGeometries) {
  // The geometries and thread counts the serving and streaming paths run:
  // "auto" resolves to the fused engine, and the engine (tone_map_image
  // included) takes its route.
  for (const auto& [w, h] : {std::pair{512, 384}, std::pair{384, 384},
                             std::pair{1024, 768}}) {
    const img::ImageF frame =
        random_hdr(w, h, static_cast<std::uint64_t>(w + h));
    const img::ImageF golden = tone_map(frame, PipelineOptions{}).output;
    for (int threads : {1, 2, 4}) {
      PipelineOptions opt;
      opt.backend = "auto";
      opt.threads = threads;
      const FrameEngine engine(opt, w, h);
      EXPECT_STREQ(engine.executor().backend().name(), "fused_stream")
          << w << "x" << h << " threads " << threads;
      EXPECT_TRUE(engine.fused_route());
      EXPECT_TRUE(same_samples(engine.run(frame), golden))
          << w << "x" << h << " threads " << threads;
    }
    PipelineOptions opt;
    opt.backend = "auto";
    EXPECT_TRUE(same_samples(tone_map_image(frame, opt), golden));
  }
}

TEST(FrameEngineTest, PerFrameScaleMatchesExplicitOptions) {
  const img::ImageF frame = random_hdr(25, 19, 71);
  for (const char* backend : {"separable_float", "fused_stream"}) {
    PipelineOptions opt = small_options(backend);
    const FrameEngine engine(opt, frame.width(), frame.height());
    const img::ImageF scaled = engine.run(frame, 42.0f);
    opt.normalization_scale = 42.0f;
    EXPECT_TRUE(same_samples(scaled, tone_map(frame, opt).output)) << backend;
    EXPECT_THROW(engine.run(frame, 0.0f), InvalidArgument);
  }
}

TEST(FrameEngineTest, IncapableConfigurationsRejectedAtConstruction) {
  // The engine's kernel and backend are fixed, so a capability mismatch
  // (beyond hlscode's static tap bound) fails at construction, not from a
  // later run().
  PipelineOptions opt = small_options("hlscode");
  opt.sigma = 40.0;
  opt.radius = 120; // 241 taps > kMaxTaps
  EXPECT_THROW(FrameEngine(opt, 32, 32), InvalidArgument);
  EXPECT_THROW(FrameEngine(small_options("no_such_backend"), 32, 32),
               InvalidArgument);
  EXPECT_THROW(FrameEngine(small_options("separable_float"), 0, 32),
               InvalidArgument);
}

TEST(FrameEngineTest, CompatibleWithKeysOnOptionsAndGeometry) {
  const PipelineOptions opt = small_options("separable_float");
  const FrameEngine engine(opt, 64, 48);
  EXPECT_TRUE(engine.compatible_with(opt, 64, 48));
  EXPECT_FALSE(engine.compatible_with(opt, 128, 96));
  PipelineOptions changed = opt;
  changed.sigma = 3.0;
  EXPECT_FALSE(engine.compatible_with(changed, 64, 48));
  changed = opt;
  changed.brightness += 0.01f;
  EXPECT_FALSE(engine.compatible_with(changed, 64, 48));
}

// --- Adversarial frames: both routes agree ---------------------------------

/// The outcome of one route on one frame: the output, or the kind of
/// error it threw.
struct Outcome {
  img::ImageF output;
  std::string error; ///< empty on success
};

Outcome outcome_of(const std::function<img::ImageF()>& run) {
  Outcome o;
  try {
    o.output = run();
  } catch (const InvalidArgument&) {
    o.error = "InvalidArgument";
  } catch (const Error&) {
    o.error = "Error";
  } catch (const std::exception&) {
    o.error = "std::exception";
  }
  return o;
}

struct AdversarialCase {
  std::string label;
  img::ImageF frame;
  int radius = 6;
  float normalization_scale = 0.0f;
};

img::ImageF filled(int w, int h, int channels, float value) {
  img::ImageF im(w, h, channels);
  im.fill(value);
  return im;
}

std::vector<AdversarialCase> adversarial_cases() {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<AdversarialCase> cases;
  cases.push_back({"all-zero", filled(12, 9, 3, 0.0f)});
  cases.push_back({"all-zero, external scale", filled(12, 9, 3, 0.0f), 6,
                   2.0f});
  img::ImageF negative = random_hdr(13, 11, 3);
  for (std::size_t i = 0; i < negative.samples().size(); i += 3) {
    negative.samples()[i] = -negative.samples()[i];
  }
  cases.push_back({"negative samples", negative});
  cases.push_back({"all negative", filled(8, 6, 3, -1.0f)});
  img::ImageF inf = random_hdr(14, 10, 5);
  inf.at(3, 4, 1) = kInf;
  cases.push_back({"+Inf sample", inf});
  cases.push_back({"+Inf sample, external scale", inf, 6, 10.0f});
  img::ImageF nan = random_hdr(14, 10, 7);
  nan.at(5, 2, 0) = std::nanf("");
  nan.at(0, 0, 2) = std::nanf("");
  cases.push_back({"NaN samples", nan});
  cases.push_back({"1x1", random_hdr(1, 1, 9)});
  cases.push_back({"1xN", random_hdr(1, 17, 11)});
  cases.push_back({"Nx1", random_hdr(17, 1, 13)});
  cases.push_back({"radius >= height", random_hdr(20, 5, 15), 9});
  cases.push_back({"radius >= width", random_hdr(4, 20, 17), 9});
  cases.push_back({"radius >= both", random_hdr(3, 2, 19), 12});
  for (int channels : {1, 2, 3, 4}) {
    cases.push_back({std::to_string(channels) + " channel(s)",
                     random_hdr(15, 12, 21, channels)});
  }
  // Denormal and extreme magnitudes reach the point-wise pow kernel's
  // rescaling path: an external scale of 1 keeps denormals denormal after
  // normalization, and FLT_MAX as the frame maximum turns every sample
  // below ~4 into a denormal.
  img::ImageF denormal(13, 9, 3);
  {
    Rng rng(23);
    for (float& v : denormal.samples()) {
      v = static_cast<float>(rng.uniform() * 1e-39 + 1e-45);
    }
  }
  cases.push_back({"all denormal", denormal});
  cases.push_back({"all denormal, external scale", denormal, 6, 1.0f});
  img::ImageF extreme = random_hdr(16, 11, 25);
  for (std::size_t i = 0; i < extreme.samples().size(); i += 2) {
    extreme.samples()[i] = i % 4 == 0 ? 3e-42f : FLT_MAX;
  }
  cases.push_back({"denormals mixed with FLT_MAX", extreme});
  cases.push_back({"denormals mixed with FLT_MAX, external scale", extreme,
                   6, 1.0f});
  // A width that is no multiple of any vector width (4, 8, 16 lanes):
  // every row ends in the kernel's padded tail, at every channel count.
  for (int channels : {1, 2, 3, 4}) {
    cases.push_back({"1021x7, " + std::to_string(channels) + " channel(s)",
                     random_hdr(1021, 7, 27, channels)});
  }
  cases.push_back({"empty", img::ImageF()});
  return cases;
}

TEST(FrameEngineParityTest, FusedAndStagedAgreeOnAdversarialFrames) {
  for (const AdversarialCase& c : adversarial_cases()) {
    PipelineOptions staged;
    staged.sigma = 2.0;
    staged.radius = c.radius;
    staged.normalization_scale = c.normalization_scale;
    const Outcome golden =
        outcome_of([&] { return tone_map(c.frame, staged).output; });
    for (int threads : {1, 3}) {
      PipelineOptions fused = staged;
      fused.backend = "fused_stream";
      fused.threads = threads;
      const Outcome got = outcome_of([&] {
        const FrameEngine engine(fused, c.frame.width(), c.frame.height());
        EXPECT_TRUE(engine.fused_route());
        return engine.run(c.frame);
      });
      EXPECT_EQ(got.error, golden.error) << c.label << " threads " << threads;
      if (got.error.empty() && golden.error.empty()) {
        EXPECT_TRUE(same_samples(got.output, golden.output))
            << c.label << " threads " << threads;
      }
    }
  }
}

} // namespace
} // namespace tmhls::tonemap
