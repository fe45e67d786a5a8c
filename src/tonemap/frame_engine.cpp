#include "tonemap/frame_engine.hpp"

#include <cstring>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "exec/cost_model.hpp"
#include "tonemap/fused_stream.hpp"

namespace tmhls::tonemap {

FrameEngine::FrameEngine(PipelineOptions options, int width, int height)
    : options_(std::move(options)), width_(width), height_(height),
      plan_(options_.plan(width, height)),
      executor_(plan_.make_executor()) {
  planned_revision_.store(plan_.model_revision, std::memory_order_release);
  const GaussianKernel kernel = options_.kernel();
  if (!executor_.can_run(kernel)) {
    throw InvalidArgument(
        std::string("FrameEngine: backend ") + executor_.backend().name() +
        " cannot run the configuration (" + std::to_string(kernel.taps()) +
        " taps, " + (plan_.use_fixed ? "fixed" : "float") + " datapath)");
  }
  fused_ = !plan_.use_fixed &&
           executor_.backend().capabilities().fused_pipeline;
  bands_ = plan_.bands > 0 ? plan_.bands : plan_.threads;
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
  if (fused_) return tone_map_fused(frame, opt, bands_).output;
  return tone_map(frame, opt, executor_).output;
}

bool FrameEngine::compatible_with(const PipelineOptions& options, int width,
                                  int height) const {
  if (!(options_ == options) || width_ != width || height_ != height) {
    return false;
  }
  // Named backends plan the same way whatever the model learned; only
  // "auto" ranks on it.
  if (options.execution().backend != "auto") return true;
  const std::uint64_t current = exec::CostModel::global().revision();
  if (current == planned_revision_.load(std::memory_order_acquire)) {
    return true;
  }
  const exec::ExecutionPlan fresh = options_.plan(width, height);
  if (std::strcmp(fresh.backend->name(), plan_.backend->name()) != 0 ||
      fresh.threads != plan_.threads || fresh.bands != plan_.bands) {
    return false;
  }
  planned_revision_.store(fresh.model_revision, std::memory_order_release);
  return true;
}

} // namespace tmhls::tonemap
