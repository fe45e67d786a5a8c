#include "exec/executor.hpp"

#include "common/error.hpp"
#include "exec/registry.hpp"

namespace tmhls::exec {

PipelineExecutor::PipelineExecutor(std::shared_ptr<const Backend> backend,
                                   ExecutorOptions options)
    : backend_(std::move(backend)), options_(options) {
  TMHLS_REQUIRE(backend_ != nullptr, "executor needs a backend");
  TMHLS_REQUIRE(options_.threads >= 1,
                "ExecutorOptions::threads must be >= 1, got " +
                    std::to_string(options_.threads));
  if (!backend_->capabilities().tiled_threads) options_.threads = 1;
}

PipelineExecutor::PipelineExecutor(const std::string& backend_name,
                                   ExecutorOptions options)
    : PipelineExecutor(BackendRegistry::global().resolve(backend_name),
                       options) {}

img::ImageF PipelineExecutor::blur(const img::ImageF& intensity,
                                   const tonemap::GaussianKernel& kernel) const {
  return backend_->run_blur(intensity, kernel, options_);
}

} // namespace tmhls::exec
