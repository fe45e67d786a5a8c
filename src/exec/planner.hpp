// exec::plan — the one front door for execution planning. Capability
// gating (Backend::can_run), datapath snapping and per-layer thread
// clamping all funnel through plan(), which answers one question: for THIS
// request, which backend runs the blur, on how many threads.
// tonemap::FrameEngine (which serve, stream and video run every frame
// through) and the CLI consume ExecutionPlans from here (via
// PipelineOptions::plan), so a policy change lands in every layer at once.
//
// The reserved name "auto" is a fixed capability rule, the host-side
// counterpart of the paper picking its accelerator configuration once from
// a measured design sweep (Table II):
//   float datapath (unspecified or float) — fused_stream at the requested
//       threads (the fastest engine on this host, and the only threaded one);
//   fixed datapath — hlscode when it can run the kernel and formats (the
//       paper's formats, taps <= kMaxTaps), else streaming_fixed.
//
// Plans choose scheduling, never bits: every plan of a float-datapath
// request produces output byte-identical to separable_float at one thread,
// whatever backend/threads the plan resolved to.
#pragma once

#include <memory>
#include <string>

#include "exec/executor.hpp"

namespace tmhls::exec {

/// The numeric-datapath request a plan resolves. `unspecified` follows the
/// backend: float for float-capable backends, fixed for fixed-only ones
/// (so naming streaming_fixed alone just works); an explicit value that
/// contradicts the backend's capabilities is an error at plan time.
/// tonemap::Datapath is this type.
enum class Datapath {
  unspecified,
  float32,     ///< the 32-bit float datapath
  fixed_point, ///< the fixed-point datapath (formats from the request)
};

/// Parse "float" / "fixed" (also accepts "float32" / "fixed_point");
/// throws InvalidArgument otherwise.
Datapath datapath_from_string(const std::string& name);

/// One planning request: frame geometry plus the caller's execution
/// constraints. The kernel rides alongside in plan() because capability
/// gating (tap bounds, fixed formats) depends on it.
struct PlanRequest {
  /// Frame geometry; must be positive (the rule itself ignores it).
  int width = 1024;
  int height = 768;
  /// Backend name, or the reserved "auto" (see the file comment).
  std::string backend = "auto";
  Datapath datapath = Datapath::unspecified;
  /// Requested worker threads (the plan clamps to 1 for backends without
  /// the tiled_threads capability). Must be >= 1.
  int threads = 1;
  /// Fixed-point formats for fixed-datapath plans.
  tonemap::FixedBlurConfig fixed = tonemap::FixedBlurConfig::paper();
};

/// A resolved execution decision: which backend, how many threads, and the
/// datapath configuration. Consumers either wrap it in an executor
/// (make_executor) or read the fields for reporting.
struct ExecutionPlan {
  std::shared_ptr<const Backend> backend;
  /// Effective worker threads (already clamped to the backend's
  /// capabilities); the fused engine runs one row band per thread.
  int threads = 1;
  bool use_fixed = false;
  tonemap::FixedBlurConfig fixed = tonemap::FixedBlurConfig::paper();

  /// The executor-layer options this plan configures.
  ExecutorOptions executor_options() const;

  /// Wrap the plan in a PipelineExecutor.
  PipelineExecutor make_executor() const;
};

/// Resolve one request against BackendRegistry::global(). Named backends
/// validate capabilities (a fixed request on a float-only backend, or an
/// explicit float request on a fixed-only one, throws InvalidArgument);
/// "auto" applies the capability rule, which always finds a backend. An
/// unknown name (the empty string included) throws.
ExecutionPlan plan(const PlanRequest& request,
                   const tonemap::GaussianKernel& kernel);

} // namespace tmhls::exec
