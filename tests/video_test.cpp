// Tests for the video substrate: sequence determinism and panning,
// exposure drift, temporal adaptation (flicker suppression), the
// adaptation input against the scalar frame-max fold (NaN, signed zeros,
// denormals, +inf), and the platform-level video statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "video/sequence.hpp"
#include "video/video_tonemapper.hpp"

namespace tmhls::video {
namespace {

SceneSequence::Config small_config() {
  SceneSequence::Config cfg;
  cfg.frame_size = 64;
  cfg.frames = 8;
  cfg.master_size = 160;
  cfg.exposure_drift = 0.5;
  cfg.seed = 7;
  return cfg;
}

TEST(SequenceTest, FrameGeometryAndCount) {
  const SceneSequence seq(small_config());
  EXPECT_EQ(seq.frame_count(), 8);
  const img::ImageF f = seq.frame(0);
  EXPECT_EQ(f.width(), 64);
  EXPECT_EQ(f.height(), 64);
  EXPECT_EQ(f.channels(), 3);
}

TEST(SequenceTest, DeterministicRandomAccess) {
  const SceneSequence a(small_config());
  const SceneSequence b(small_config());
  const img::ImageF fa = a.frame(3);
  const img::ImageF fb = b.frame(3);
  auto sa = fa.samples();
  auto sb = fb.samples();
  for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_EQ(sa[i], sb[i]);
}

TEST(SequenceTest, PanMakesFramesDiffer) {
  const SceneSequence seq(small_config());
  const img::ImageF first = seq.frame(0);
  const img::ImageF last = seq.frame(7);
  std::size_t differing = 0;
  auto sa = first.samples();
  auto sb = last.samples();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i] != sb[i]) ++differing;
  }
  EXPECT_GT(differing, sa.size() / 2);
}

TEST(SequenceTest, ExposureDriftSpansTheConfiguredRange) {
  const SceneSequence seq(small_config());
  double emin = 1e9;
  double emax = 0.0;
  for (int i = 0; i < seq.frame_count(); ++i) {
    emin = std::min(emin, seq.exposure(i));
    emax = std::max(emax, seq.exposure(i));
  }
  // 0.5 log10 units peak-to-peak => ratio close to 10^0.5 ~ 3.16 (sampled
  // sinusoid, so slightly less).
  EXPECT_GT(emax / emin, 2.0);
  EXPECT_LT(emax / emin, 3.5);
}

TEST(SequenceTest, ZeroDriftMeansConstantExposure) {
  SceneSequence::Config cfg = small_config();
  cfg.exposure_drift = 0.0;
  const SceneSequence seq(cfg);
  for (int i = 0; i < seq.frame_count(); ++i) {
    EXPECT_NEAR(seq.exposure(i), 1.0, 1e-12);
  }
}

TEST(SequenceTest, RejectsBadConfigs) {
  SceneSequence::Config cfg = small_config();
  cfg.frames = 0;
  EXPECT_THROW(SceneSequence{cfg}, InvalidArgument);
  cfg = small_config();
  cfg.master_size = 32; // smaller than the frame
  EXPECT_THROW(SceneSequence{cfg}, InvalidArgument);
}

VideoToneMapperOptions fast_options() {
  VideoToneMapperOptions opt;
  opt.pipeline.sigma = 4.0;
  opt.pipeline.radius = 8;
  return opt;
}

TEST(ToneMapperTest, FirstFrameAdaptsInstantly) {
  VideoToneMapper mapper(fast_options());
  const SceneSequence seq(small_config());
  // Named frame: iterating `seq.frame(0).samples()` directly would read a
  // span into a destroyed temporary (caught by TSan).
  const img::ImageF first = seq.frame(0);
  mapper.process(first);
  float frame_max = 0.0f;
  for (float v : first.samples()) frame_max = std::max(frame_max, v);
  EXPECT_FLOAT_EQ(mapper.current_scale(), frame_max);
  EXPECT_EQ(mapper.frames_processed(), 1);
}

TEST(ToneMapperTest, ScaleMovesTowardNewMaximum) {
  VideoToneMapperOptions opt = fast_options();
  opt.adaptation_rate = 0.5;
  VideoToneMapper mapper(opt);
  img::ImageF dim(32, 32, 3);
  dim.fill(1.0f);
  img::ImageF bright(32, 32, 3);
  bright.fill(9.0f);
  mapper.process(dim);
  EXPECT_FLOAT_EQ(mapper.current_scale(), 1.0f);
  mapper.process(bright);
  EXPECT_FLOAT_EQ(mapper.current_scale(), 5.0f); // halfway to 9
  mapper.process(bright);
  EXPECT_FLOAT_EQ(mapper.current_scale(), 7.0f);
}

TEST(ToneMapperTest, RateOneReproducesPerFrameNormalisation) {
  VideoToneMapperOptions opt = fast_options();
  opt.adaptation_rate = 1.0;
  VideoToneMapper mapper(opt);
  const SceneSequence seq(small_config());
  for (int i = 0; i < 3; ++i) {
    const img::ImageF frame = seq.frame(i);
    const img::ImageF via_mapper = mapper.process(frame);
    const img::ImageF direct =
        tonemap::tone_map_image(frame, fast_options().pipeline);
    auto sa = via_mapper.samples();
    auto sb = direct.samples();
    for (std::size_t s = 0; s < sa.size(); ++s) {
      ASSERT_EQ(sa[s], sb[s]) << "frame " << i;
    }
  }
}

TEST(ToneMapperTest, AdaptationSuppressesScaleJumpPops) {
  // The core claim: when a highlight enters the view mid-sequence, the
  // per-frame normalisation rescales the whole image at once (a visible
  // "pop" = large peak flicker); temporal adaptation spreads it out.
  // Synthetic frames isolate the effect: a dim static scene, then a
  // bright light source appears.
  auto make_frame = [](bool with_light) {
    img::ImageF f(32, 32, 3);
    // Textured base (0.1 to 0.3) so the pre-transition output is not
    // clipped at 1.0 — a clipped baseline would absorb any scale policy.
    for (int y = 0; y < 32; ++y) {
      for (int x = 0; x < 32; ++x) {
        const float v = 0.1f + 0.2f * static_cast<float>(x) / 31.0f;
        for (int c = 0; c < 3; ++c) f.at(x, y, c) = v;
      }
    }
    if (with_light) {
      for (int y = 10; y < 14; ++y) {
        for (int x = 10; x < 14; ++x) {
          for (int c = 0; c < 3; ++c) f.at(x, y, c) = 5.0f;
        }
      }
    }
    return f;
  };

  auto run = [&](double rate) {
    VideoToneMapperOptions opt = fast_options();
    opt.adaptation_rate = rate;
    VideoToneMapper mapper(opt);
    std::vector<double> means;
    for (int i = 0; i < 10; ++i) {
      means.push_back(
          mean_luminance(mapper.process(make_frame(/*with_light=*/i >= 5))));
    }
    return peak_flicker(means);
  };
  const double per_frame = run(1.0);
  const double adapted = run(0.15);
  EXPECT_LT(adapted, 0.8 * per_frame);
}

TEST(ToneMapperTest, FloatRoutesBitIdenticalAcrossBackendsAndThreads) {
  // Whichever engine route a float configuration plans onto — the fused
  // sweep at any band count or the staged composition — every frame and
  // the adapted-scale trajectory are byte-identical.
  SceneSequence::Config cfg = small_config();
  cfg.frames = 6;
  const SceneSequence seq(cfg);
  VideoToneMapper golden_mapper(fast_options());
  std::vector<img::ImageF> golden;
  for (int i = 0; i < seq.frame_count(); ++i) {
    golden.push_back(golden_mapper.process(seq.frame(i)));
  }
  for (const auto& [backend, threads] :
       {std::pair{"hlscode", 1}, std::pair{"fused_stream", 1},
        std::pair{"fused_stream", 3}}) {
    VideoToneMapperOptions opt = fast_options();
    opt.pipeline.backend = backend;
    opt.pipeline.threads = threads;
    VideoToneMapper mapper(opt);
    EXPECT_EQ(mapper.engine().fused_route(),
              std::string(backend) == "fused_stream");
    for (int i = 0; i < seq.frame_count(); ++i) {
      const img::ImageF out = mapper.process(seq.frame(i));
      const auto sa = out.samples();
      const auto sb = golden[static_cast<std::size_t>(i)].samples();
      ASSERT_EQ(sa.size(), sb.size());
      EXPECT_EQ(std::memcmp(sa.data(), sb.data(), sa.size_bytes()), 0)
          << backend << " threads " << threads << " frame " << i;
    }
    EXPECT_FLOAT_EQ(mapper.current_scale(), golden_mapper.current_scale());
  }
}

TEST(ToneMapperTest, SequenceBytesArePinned) {
  // The stream golden: every frame of an adapting sequence, and the scale
  // trajectory, pinned as one FNV-1a digest over the sample bits. Stream
  // sessions are checked against VideoToneMapper, so a change in the
  // shared point-wise kernels moves both sides; this value does not.
  SceneSequence::Config cfg = small_config();
  cfg.frames = 6;
  const SceneSequence seq(cfg);
  for (const auto& [backend, threads] :
       {std::pair{"", 1}, std::pair{"fused_stream", 3}}) {
    VideoToneMapperOptions opt = fast_options();
    opt.pipeline.backend = backend;
    opt.pipeline.threads = threads;
    VideoToneMapper mapper(opt);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](float v) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      for (int b = 0; b < 4; ++b) {
        h = (h ^ ((bits >> (8 * b)) & 0xffU)) * 0x100000001b3ULL;
      }
    };
    for (int i = 0; i < seq.frame_count(); ++i) {
      const img::ImageF out = mapper.process(seq.frame(i));
      for (const float v : out.samples()) mix(v);
      mix(mapper.current_scale());
    }
    EXPECT_EQ(h, 0x2fcf3b1bc50ccb81ULL)
        << "backend '" << backend << "', " << threads << " thread(s)";
  }
}

TEST(ToneMapperTest, RejectsPipelineDepthOtherThanOne) {
  for (int depth : {0, 2, 4}) {
    VideoToneMapperOptions opt = fast_options();
    opt.pipeline_depth = depth;
    EXPECT_THROW(VideoToneMapper{opt}, InvalidArgument) << depth;
  }
}

TEST(ToneMapperTest, ResetForgetsState) {
  VideoToneMapper mapper(fast_options());
  img::ImageF f(16, 16, 3);
  f.fill(2.0f);
  mapper.process(f);
  mapper.reset();
  EXPECT_EQ(mapper.frames_processed(), 0);
  EXPECT_FLOAT_EQ(mapper.current_scale(), 0.0f);
}

TEST(ToneMapperTest, RejectsBadRateAndDarkFrames) {
  VideoToneMapperOptions opt = fast_options();
  opt.adaptation_rate = 0.0;
  EXPECT_THROW(VideoToneMapper{opt}, InvalidArgument);
  VideoToneMapper mapper(fast_options());
  EXPECT_THROW(mapper.process(img::ImageF(8, 8, 3)), InvalidArgument);
}

TEST(ToneMapperTest, InfiniteFrameRejectsAndKeepsTheTrajectory) {
  // One +inf sample would adapt the scale to inf and every later step to
  // NaN. The frame is rejected at the adaptation input instead, and the
  // frames after it follow the trajectory of a mapper that never saw it.
  SceneSequence::Config cfg = small_config();
  cfg.frames = 6;
  const SceneSequence seq(cfg);
  VideoToneMapper golden(fast_options());
  VideoToneMapper mapper(fast_options());
  for (int i = 0; i < seq.frame_count(); ++i) {
    const img::ImageF frame = seq.frame(i);
    if (i == 3) {
      img::ImageF hot = frame;
      hot.at(17, 9, 1) = std::numeric_limits<float>::infinity();
      const float scale = mapper.current_scale();
      EXPECT_THROW((void)mapper.process(hot), InvalidArgument);
      EXPECT_EQ(mapper.frames_processed(), 3);
      EXPECT_EQ(mapper.current_scale(), scale);
    }
    const img::ImageF want = golden.process(frame);
    const img::ImageF got = mapper.process(frame);
    const auto sa = got.samples();
    const auto sb = want.samples();
    ASSERT_EQ(sa.size(), sb.size());
    EXPECT_EQ(std::memcmp(sa.data(), sb.data(), sa.size_bytes()), 0)
        << "frame " << i;
    EXPECT_EQ(mapper.current_scale(), golden.current_scale()) << i;
  }
}

/// The fold the adaptation input is defined by: m = (m < x ? x : m) from
/// +0, in sample order.
float scalar_fold(const img::ImageF& frame) {
  float m = 0.0f;
  for (const float x : frame.samples()) m = m < x ? x : m;
  return m;
}

TEST(AdaptationInputTest, EqualsTheScalarFold) {
  // 3-channel frames whose sample counts (3, 387, 555, 2418) are not a
  // multiple of a 16-lane x 8-vector block, so every case also runs the
  // kernel's scalar tail.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const auto& [w, h] : {std::pair{1, 1}, std::pair{43, 3},
                             std::pair{37, 5}, std::pair{31, 26}}) {
    const std::size_t n = static_cast<std::size_t>(w) * h * 3;
    const auto frame = [&](auto sample) {
      img::ImageF f(w, h, 3);
      auto s = f.samples();
      for (std::size_t i = 0; i < n; ++i) s[i] = sample(i);
      return f;
    };
    const auto expect_fold = [&](const img::ImageF& f, const char* what) {
      const float want = scalar_fold(f);
      ASSERT_GT(want, 0.0f) << what;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(adaptation_input(f)),
                std::bit_cast<std::uint32_t>(want))
          << what << " " << w << "x" << h;
    };
    const auto expect_reject = [&](const img::ImageF& f, const char* what) {
      EXPECT_THROW((void)adaptation_input(f), InvalidArgument)
          << what << " " << w << "x" << h;
    };
    const auto ramp = [](std::size_t i) {
      return 0.5f + static_cast<float>(i % 97) * 0.25f;
    };

    // +0, -0 and NaN in turn: samples that never win the fold.
    const auto unlit = [&](std::size_t i) {
      return i % 3 == 0 ? 0.0f : (i % 3 == 1 ? -0.0f : nan);
    };

    expect_fold(frame([&](std::size_t i) { return i % 3 ? ramp(i) : nan; }),
                "NaN mixed with positives");
    expect_fold(frame([&](std::size_t i) { return i % 2 ? nan : ramp(i); }),
                "NaN on every other sample");
    for (const std::size_t at : {std::size_t{0}, n - 1}) {
      expect_fold(frame([&](std::size_t i) {
                    return i == at ? 1e30f : (i % 5 ? -ramp(i) : nan);
                  }),
                  "largest sample alone at an end");
      expect_fold(frame([&](std::size_t i) {
                    return i == at ? 7.5f : ramp(i) * 1e-3f;
                  }),
                  "largest sample at an end");
    }
    expect_fold(frame([&](std::size_t i) {
                  return i == n / 2 ? FLT_TRUE_MIN : unlit(i);
                }),
                "FLT_TRUE_MIN as the only positive");

    expect_reject(frame([](std::size_t) { return 0.0f; }), "+0 only");
    expect_reject(frame([](std::size_t) { return -0.0f; }), "-0 only");
    expect_reject(frame([&](std::size_t) { return nan; }), "NaN only");
    expect_reject(frame([&](std::size_t i) { return -ramp(i); }),
                  "negatives only");
    expect_reject(frame([&](std::size_t i) {
                    return i % 4 == 3 ? -inf : unlit(i);
                  }),
                  "+0, -0, NaN and negatives only");
    for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
      expect_reject(frame([&](std::size_t i) {
                      return i == at ? inf : ramp(i);
                    }),
                    "one +inf among positives");
      expect_reject(frame([&](std::size_t i) {
                      return i == at ? inf : unlit(i);
                    }),
                    "one +inf among +0, -0 and NaN");
    }
  }
}

TEST(FlickerMetricTest, KnownValues) {
  EXPECT_EQ(flicker_metric({}), 0.0);
  EXPECT_EQ(flicker_metric({0.5}), 0.0);
  EXPECT_NEAR(flicker_metric({0.1, 0.3, 0.2}), (0.2 + 0.1) / 2.0, 1e-12);
  EXPECT_EQ(peak_flicker({}), 0.0);
  EXPECT_NEAR(peak_flicker({0.1, 0.3, 0.25}), 0.2, 1e-12);
}

TEST(AnalyzeVideoTest, StatsScaleLinearlyWithFrames) {
  const zynq::ZynqPlatform platform = zynq::ZynqPlatform::zc702();
  const accel::Workload w = accel::Workload::paper();
  const VideoRunStats one =
      analyze_video(platform, w, accel::Design::fixed_point, 1);
  const VideoRunStats ten =
      analyze_video(platform, w, accel::Design::fixed_point, 10);
  EXPECT_NEAR(ten.total_seconds, 10.0 * one.total_seconds, 1e-9);
  EXPECT_NEAR(ten.total_joules, 10.0 * one.total_joules, 1e-9);
  EXPECT_NEAR(one.fps * one.seconds_per_frame, 1.0, 1e-12);
}

TEST(AnalyzeVideoTest, AcceleratedDesignHasHigherFps) {
  const zynq::ZynqPlatform platform = zynq::ZynqPlatform::zc702();
  const accel::Workload w = accel::Workload::paper();
  const VideoRunStats sw =
      analyze_video(platform, w, accel::Design::sw_source, 1);
  const VideoRunStats hw =
      analyze_video(platform, w, accel::Design::fixed_point, 1);
  EXPECT_GT(hw.fps, sw.fps);
  EXPECT_LT(hw.joules_per_frame, sw.joules_per_frame);
}

} // namespace
} // namespace tmhls::video
