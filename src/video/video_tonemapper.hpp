// Temporal tone mapping: the paper's per-image pipeline made flicker-free
// for video. Normalising every frame by its own maximum (the single-image
// behaviour) makes the global scale jump whenever a highlight enters or
// leaves the view; the video mapper smooths the normalisation scale with
// exponential adaptation, mimicking the human eye's (and every camera
// pipeline's) temporal adaptation.
//
// The mapper runs every frame synchronously through one tonemap::FrameEngine
// planned at construction; the adapted scale is the engine's per-frame
// normalisation override.
#pragma once

#include <cstdint>
#include <vector>

#include "accel/system.hpp"
#include "image/image.hpp"
#include "tonemap/frame_engine.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::video {

/// The adaptation input of a frame: its largest sample. Throws
/// InvalidArgument ("frame carries no light") unless it is positive.
float adaptation_input(const img::ImageF& frame);

/// The temporal adaptation state, and the one step of its recurrence that
/// VideoToneMapper and stream sessions share (the stream identity contract
/// rests on both running this code).
struct Adaptation {
  float scale = 0.0f;      ///< the adapted normalisation scale
  std::uint64_t frames = 0; ///< frames adapted to so far

  /// Run one frame through `run(next_scale)` and return what it returns.
  /// The first frame adapts instantly to `frame_max`, later frames
  /// exponentially at `rate`. The state commits only after `run`
  /// returned: a frame that throws does not advance the trajectory.
  template <typename Run>
  auto step(float frame_max, double rate, Run&& run) {
    const float next =
        frames == 0 ? frame_max
                    : scale + static_cast<float>(rate) * (frame_max - scale);
    auto out = run(next);
    scale = next;
    ++frames;
    return out;
  }
};

/// Options of the stateful video tone mapper.
struct VideoToneMapperOptions {
  tonemap::PipelineOptions pipeline;
  /// Adaptation rate per frame in [0, 1]: 1 reproduces per-frame
  /// normalisation (no smoothing), small values adapt slowly.
  double adaptation_rate = 0.25;
  /// Must be 1: frames run synchronously, one at a time. The field stays
  /// only because existing callers (the benchmark harness) still set it;
  /// any other value throws InvalidArgument.
  int pipeline_depth = 1;
  /// Frame geometry the engine is planned for once at construction; must
  /// be positive.
  int frame_width = 1024;
  int frame_height = 768;
};

/// Stateful per-frame tone mapper with temporal scale adaptation. Resolves
/// its execution backend once at construction and reuses the executor for
/// every frame — no per-frame registry lookup or backend re-setup.
class VideoToneMapper {
public:
  explicit VideoToneMapper(VideoToneMapperOptions options);

  /// Tone-map the next frame; advances the adapted scale. A frame that
  /// throws leaves the adaptation state untouched.
  img::ImageF process(const img::ImageF& frame);

  /// The engine every frame runs through.
  const tonemap::FrameEngine& engine() const { return engine_; }

  /// The normalisation scale currently adapted to (0 before any frame).
  float current_scale() const { return adaptation_.scale; }

  /// Frames processed so far.
  int frames_processed() const {
    return static_cast<int>(adaptation_.frames);
  }

  /// Forget the adaptation state (the engine is kept).
  void reset() { adaptation_ = {}; }

private:
  VideoToneMapperOptions options_;
  tonemap::FrameEngine engine_;
  Adaptation adaptation_;
};

/// Mean display luminance per frame — the signal whose frame-to-frame
/// jumps are perceived as flicker.
double mean_luminance(const img::ImageF& frame);

/// Flicker metric of a sequence of mean luminances: mean absolute
/// frame-to-frame difference (total jumpiness).
double flicker_metric(const std::vector<double>& mean_luminances);

/// Peak flicker: the largest single frame-to-frame jump. This is what the
/// viewer perceives as a "pop" when a highlight enters or leaves the view
/// and a per-frame normalisation rescales the whole image; temporal
/// adaptation spreads the transition over many frames.
double peak_flicker(const std::vector<double>& mean_luminances);

/// Throughput and energy of processing `frames` frames on the platform
/// model with a given Table II design.
struct VideoRunStats {
  double seconds_per_frame = 0.0;
  double fps = 0.0;
  double joules_per_frame = 0.0;
  double total_seconds = 0.0;
  double total_joules = 0.0;
};

VideoRunStats analyze_video(const zynq::ZynqPlatform& platform,
                            const accel::Workload& workload,
                            accel::Design design, int frames);

} // namespace tmhls::video
