#include "video/video_tonemapper.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace tmhls::video {

namespace {

const VideoToneMapperOptions& validated(
    const VideoToneMapperOptions& options) {
  TMHLS_REQUIRE(options.adaptation_rate > 0.0 &&
                    options.adaptation_rate <= 1.0,
                "adaptation rate must be in (0, 1]");
  TMHLS_REQUIRE(options.pipeline_depth == 1,
                "VideoToneMapperOptions::pipeline_depth must be 1, got " +
                    std::to_string(options.pipeline_depth));
  return options;
}

} // namespace

VideoToneMapper::VideoToneMapper(VideoToneMapperOptions options)
    : options_(validated(options)),
      engine_(options.pipeline, options.frame_width, options.frame_height) {}

float adaptation_input(const img::ImageF& frame) {
  float frame_max = 0.0f;
  for (float v : frame.samples()) frame_max = std::max(frame_max, v);
  TMHLS_REQUIRE(frame_max > 0.0f, "frame carries no light");
  return frame_max;
}

img::ImageF VideoToneMapper::process(const img::ImageF& frame) {
  return adaptation_.step(
      adaptation_input(frame), options_.adaptation_rate,
      [&](float scale) { return engine_.run(frame, scale); });
}

double mean_luminance(const img::ImageF& frame) {
  const img::ImageF luma = img::luminance(frame);
  double acc = 0.0;
  for (float v : luma.samples()) acc += v;
  return acc / static_cast<double>(luma.sample_count());
}

double flicker_metric(const std::vector<double>& mean_luminances) {
  if (mean_luminances.size() < 2) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 1; i < mean_luminances.size(); ++i) {
    acc += std::abs(mean_luminances[i] - mean_luminances[i - 1]);
  }
  return acc / static_cast<double>(mean_luminances.size() - 1);
}

double peak_flicker(const std::vector<double>& mean_luminances) {
  double peak = 0.0;
  for (std::size_t i = 1; i < mean_luminances.size(); ++i) {
    peak = std::max(peak,
                    std::abs(mean_luminances[i] - mean_luminances[i - 1]));
  }
  return peak;
}

VideoRunStats analyze_video(const zynq::ZynqPlatform& platform,
                            const accel::Workload& workload,
                            accel::Design design, int frames) {
  TMHLS_REQUIRE(frames >= 1, "need at least one frame");
  const accel::ToneMappingSystem system(platform, workload);
  const accel::DesignReport report = system.analyze(design);

  VideoRunStats stats;
  stats.seconds_per_frame = report.timing.total_s();
  stats.fps = 1.0 / stats.seconds_per_frame;
  stats.joules_per_frame = report.energy.total_j();
  stats.total_seconds = stats.seconds_per_frame * frames;
  stats.total_joules = stats.joules_per_frame * frames;
  return stats;
}

} // namespace tmhls::video
