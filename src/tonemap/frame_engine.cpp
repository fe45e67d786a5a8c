#include "tonemap/frame_engine.hpp"

#include <utility>

#include "common/error.hpp"
#include "tonemap/fused_stream.hpp"

namespace tmhls::tonemap {

FrameEngine::FrameEngine(PipelineOptions options, int width, int height)
    : options_(std::move(options)), width_(width), height_(height),
      executor_(options_.plan(width, height)),
      fused_(!executor_.options().use_fixed &&
             executor_.backend().capabilities().fused_pipeline) {}

img::ImageF FrameEngine::run(const img::ImageF& frame) const {
  return run_with(frame, options_);
}

img::ImageF FrameEngine::run(const img::ImageF& frame,
                             float normalization_scale) const {
  TMHLS_REQUIRE(normalization_scale > 0.0f,
                "FrameEngine::run: per-frame normalization scale must be "
                "positive");
  PipelineOptions opt = options_;
  opt.normalization_scale = normalization_scale;
  return run_with(frame, opt);
}

img::ImageF FrameEngine::run_with(const img::ImageF& frame,
                                  const PipelineOptions& opt) const {
  if (fused_) return tone_map_fused(frame, opt).output;
  return tone_map(frame, opt, executor_).output;
}

bool FrameEngine::compatible_with(const PipelineOptions& options, int width,
                                  int height) const {
  PipelineOptions rescaled = options;
  rescaled.normalization_scale = options_.normalization_scale;
  return options_ == rescaled && width_ == width && height_ == height;
}

} // namespace tmhls::tonemap
