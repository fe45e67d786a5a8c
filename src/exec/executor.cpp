#include "exec/executor.hpp"

#include "common/error.hpp"
#include "exec/registry.hpp"

namespace tmhls::exec {

void validate(const ExecutorOptions& options) {
  TMHLS_REQUIRE(options.threads >= 1,
                "ExecutorOptions::threads must be >= 1, got " +
                    std::to_string(options.threads));
}

PipelineExecutor::PipelineExecutor(std::shared_ptr<const Backend> backend,
                                   ExecutorOptions options)
    : backend_(std::move(backend)), options_(options) {
  TMHLS_REQUIRE(backend_ != nullptr, "executor needs a backend");
  validate(options_);
}

PipelineExecutor::PipelineExecutor(const std::string& backend_name,
                                   ExecutorOptions options)
    : PipelineExecutor(BackendRegistry::global().resolve(backend_name),
                       options) {}

int PipelineExecutor::effective_threads() const {
  return backend_->capabilities().tiled_threads ? options_.threads : 1;
}

img::ImageF PipelineExecutor::blur(const img::ImageF& intensity,
                                   const tonemap::GaussianKernel& kernel) const {
  return backend_->run_blur(intensity, kernel, context());
}

bool PipelineExecutor::can_run(const tonemap::GaussianKernel& kernel) const {
  return backend_->can_run(kernel, context());
}

BlurCost PipelineExecutor::estimate_cost(
    int width, int height, const tonemap::GaussianKernel& kernel) const {
  return backend_->estimate_cost(width, height, kernel, context());
}

BlurContext PipelineExecutor::context() const {
  BlurContext ctx;
  ctx.fixed = options_.fixed;
  ctx.threads = effective_threads();
  ctx.use_fixed = options_.use_fixed;
  return ctx;
}

} // namespace tmhls::exec
