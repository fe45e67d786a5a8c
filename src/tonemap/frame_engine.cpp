#include "tonemap/frame_engine.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "tonemap/fused_stream.hpp"

namespace tmhls::tonemap {

FrameEngine::FrameEngine(PipelineOptions options, int width, int height)
    : options_(std::move(options)), width_(width), height_(height),
      plan_(options_.plan(width, height)),
      executor_(plan_.make_executor()) {
  const GaussianKernel kernel = options_.kernel();
  if (!executor_.can_run(kernel)) {
    throw InvalidArgument(
        std::string("FrameEngine: backend ") + executor_.backend().name() +
        " cannot run the configuration (" + std::to_string(kernel.taps()) +
        " taps, " + (plan_.use_fixed ? "fixed" : "float") + " datapath)");
  }
  fused_ = !plan_.use_fixed &&
           executor_.backend().capabilities().fused_pipeline;
}

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
