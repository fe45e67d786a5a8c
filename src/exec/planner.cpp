#include "exec/planner.hpp"

#include "common/error.hpp"
#include "exec/registry.hpp"

namespace tmhls::exec {

namespace {

ExecutionPlan make_plan(std::shared_ptr<const Backend> backend,
                        const PlanRequest& request, bool use_fixed) {
  ExecutionPlan plan;
  plan.threads = backend->capabilities().tiled_threads ? request.threads : 1;
  plan.backend = std::move(backend);
  plan.use_fixed = use_fixed;
  plan.fixed = request.fixed;
  return plan;
}

ExecutionPlan plan_auto(const PlanRequest& request,
                        const tonemap::GaussianKernel& kernel) {
  const BackendRegistry& registry = BackendRegistry::global();
  // fused_stream has no tap bound: it runs every float request.
  if (request.datapath != Datapath::fixed_point) {
    return make_plan(registry.resolve("fused_stream"), request, false);
  }
  ExecutionPlan hls = make_plan(registry.resolve("hlscode"), request, true);
  if (hls.make_executor().can_run(kernel)) return hls;
  return make_plan(registry.resolve("streaming_fixed"), request, true);
}

} // namespace

Datapath datapath_from_string(const std::string& name) {
  if (name == "float" || name == "float32") return Datapath::float32;
  if (name == "fixed" || name == "fixed_point") return Datapath::fixed_point;
  throw InvalidArgument("unknown datapath: " + name +
                        " (expected float or fixed)");
}

ExecutorOptions ExecutionPlan::executor_options() const {
  ExecutorOptions eo;
  eo.threads = threads;
  eo.use_fixed = use_fixed;
  eo.fixed = fixed;
  return eo;
}

PipelineExecutor ExecutionPlan::make_executor() const {
  TMHLS_REQUIRE(backend != nullptr, "ExecutionPlan: no backend resolved");
  return PipelineExecutor(backend, executor_options());
}

ExecutionPlan plan(const PlanRequest& request,
                   const tonemap::GaussianKernel& kernel) {
  TMHLS_REQUIRE(request.threads >= 1,
                "PlanRequest::threads must be >= 1, got " +
                    std::to_string(request.threads));
  TMHLS_REQUIRE(request.width > 0 && request.height > 0,
                "PlanRequest: frame dimensions must be positive");
  const std::string& name = request.backend;
  if (name == "auto") return plan_auto(request, kernel);

  std::shared_ptr<const Backend> backend =
      BackendRegistry::global().resolve(name);
  const BackendCapabilities caps = backend->capabilities();
  bool use_fixed = request.datapath == Datapath::fixed_point;
  // Asking a float-only backend for the fixed datapath would otherwise be
  // silently ignored (e.g. `--fixed --backend fused_stream`).
  TMHLS_REQUIRE(!use_fixed || caps.fixed_datapath,
                "backend " + name +
                    " has no fixed-point datapath; drop the fixed-point "
                    "request or choose streaming_fixed / hlscode");
  if (!use_fixed && !caps.float_datapath) {
    // Fixed-only backend named explicitly: an unspecified datapath
    // follows the backend's only datapath (so `--backend streaming_fixed`
    // alone just works), while an explicit float request is a
    // contradiction — quantised output for a float ask.
    TMHLS_REQUIRE(request.datapath != Datapath::float32,
                  "backend " + name +
                      " has no float datapath; drop the float request or "
                      "choose a float-capable backend");
    use_fixed = true;
  }
  return make_plan(std::move(backend), request, use_fixed);
}

} // namespace tmhls::exec
