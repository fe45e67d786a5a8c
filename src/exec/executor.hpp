// PipelineExecutor: the pipeline's handle to one selected backend plus its
// execution parameters (thread count, fixed-point formats). Constructed
// once and reused across frames — video and serving paths keep a
// persistent executor instead of re-resolving the backend per frame
// (tonemap::FrameEngine builds one per plan).
#pragma once

#include <memory>
#include <string>

#include "exec/backend.hpp"

namespace tmhls::exec {

/// Executor-level execution parameters.
struct ExecutorOptions {
  /// Worker threads for the tiled mode; clamped to 1 for backends without
  /// tiled_threads capability. Must be >= 1 (see validate).
  int threads = 1;
  /// Select the fixed datapath of dual-datapath backends (hlscode).
  bool use_fixed = false;
  /// Fixed-point formats for fixed-datapath backends.
  tonemap::FixedBlurConfig fixed = tonemap::FixedBlurConfig::paper();
};

/// The one validation point for ExecutorOptions: throws InvalidArgument
/// naming the offending field and value unless threads >= 1.
/// PipelineExecutor calls this instead of clamping at its call sites.
void validate(const ExecutorOptions& options);

class PipelineExecutor {
public:
  /// Wrap an already-resolved backend.
  explicit PipelineExecutor(std::shared_ptr<const Backend> backend,
                            ExecutorOptions options = {});

  /// Resolve `backend_name` through BackendRegistry::global().
  explicit PipelineExecutor(const std::string& backend_name,
                            ExecutorOptions options = {});

  const Backend& backend() const { return *backend_; }
  const ExecutorOptions& options() const { return options_; }

  /// The thread count actually used: options().threads, clamped to 1 when
  /// the backend lacks the tiled_threads capability.
  int effective_threads() const;

  /// Execute the mask blur on a 1-channel intensity plane.
  img::ImageF blur(const img::ImageF& intensity,
                   const tonemap::GaussianKernel& kernel) const;

  /// Whether the backend accepts `kernel` at this executor's configuration
  /// (datapath, tap bounds, fixed formats) — Backend::can_run with this
  /// executor's context. tonemap::FrameEngine gates on this at
  /// construction so capability errors fail fast instead of mid-stream.
  bool can_run(const tonemap::GaussianKernel& kernel) const;

  /// Analytic cost of one blur at this executor's configuration (datapath
  /// selection and fixed formats are taken from the options).
  BlurCost estimate_cost(int width, int height,
                         const tonemap::GaussianKernel& kernel) const;

private:
  /// The per-call context this executor hands its backend.
  BlurContext context() const;

  std::shared_ptr<const Backend> backend_;
  ExecutorOptions options_;
};

} // namespace tmhls::exec
