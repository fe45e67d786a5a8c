// PipelineExecutor: the one execution handle — a resolved backend plus the
// ExecutorOptions it runs with. tonemap::PipelineOptions::plan builds it
// (that is where the backend, datapath and threads are decided); it is
// then reused across frames — tonemap::FrameEngine, which video, serve and
// stream run every frame through, holds one for its lifetime.
#pragma once

#include <memory>
#include <string>

#include "exec/backend.hpp"

namespace tmhls::exec {

class PipelineExecutor {
public:
  /// Wrap an already-resolved backend. The only place threads are
  /// validated and clamped: throws InvalidArgument naming
  /// ExecutorOptions::threads unless it is >= 1, then clamps it to 1 for a
  /// backend without the tiled_threads capability.
  explicit PipelineExecutor(std::shared_ptr<const Backend> backend,
                            ExecutorOptions options = {});

  /// Resolve `backend_name` through BackendRegistry::global().
  explicit PipelineExecutor(const std::string& backend_name,
                            ExecutorOptions options = {});

  const Backend& backend() const { return *backend_; }
  /// The options every blur runs with, threads already clamped.
  const ExecutorOptions& options() const { return options_; }

  /// Execute the mask blur on a 1-channel intensity plane.
  img::ImageF blur(const img::ImageF& intensity,
                   const tonemap::GaussianKernel& kernel) const;

private:
  std::shared_ptr<const Backend> backend_;
  ExecutorOptions options_;
};

/// The name PipelineOptions::plan's result went by when plans and
/// executors were separate types; kept only because the frozen benchmark
/// harness (perfbench/runner.cpp) still spells it.
using ExecutionPlan = PipelineExecutor;

} // namespace tmhls::exec
