#include "exec/planner.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "exec/cost_model.hpp"

namespace tmhls::exec {

const char* to_string(PlanDatapath datapath) {
  switch (datapath) {
    case PlanDatapath::unspecified: return "unspecified";
    case PlanDatapath::float32: return "float";
    case PlanDatapath::fixed_point: return "fixed";
  }
  return "?";
}

ExecutorOptions ExecutionPlan::executor_options() const {
  ExecutorOptions eo;
  eo.threads = threads;
  eo.bands = bands;
  eo.use_fixed = use_fixed;
  eo.fixed = fixed;
  return eo;
}

PipelineExecutor ExecutionPlan::make_executor() const {
  TMHLS_REQUIRE(backend != nullptr, "ExecutionPlan: no backend resolved");
  return PipelineExecutor(backend, executor_options());
}

const RoutingEntry* RoutingTable::find(int bucket) const {
  for (const RoutingEntry& entry : entries) {
    if (entry.bucket == bucket) return &entry;
  }
  return nullptr;
}

Planner::Planner(const BackendRegistry* registry, CostModel* model)
    : registry_(registry), model_(model) {}

const BackendRegistry& Planner::registry() const {
  return registry_ != nullptr ? *registry_ : BackendRegistry::global();
}

CostModel& Planner::model() const {
  return model_ != nullptr ? *model_ : CostModel::global();
}

ExecutionPlan Planner::plan(const PlanRequest& request,
                            const tonemap::GaussianKernel& kernel) const {
  TMHLS_REQUIRE(request.threads >= 1,
                "PlanRequest::threads must be >= 1, got " +
                    std::to_string(request.threads));
  TMHLS_REQUIRE(request.width > 0 && request.height > 0,
                "PlanRequest: frame dimensions must be positive");
  const std::string name =
      request.backend.empty() ? std::string("auto") : request.backend;
  if (name == "auto") return plan_auto(request, kernel);

  const std::shared_ptr<const Backend> backend = registry().resolve(name);
  const BackendCapabilities caps = backend->capabilities();
  bool use_fixed = request.datapath == PlanDatapath::fixed_point;
  // Asking a float-only backend for the fixed datapath would otherwise be
  // silently ignored (e.g. `--fixed --backend separable_simd`).
  TMHLS_REQUIRE(!use_fixed || caps.fixed_datapath,
                "backend " + name +
                    " has no fixed-point datapath; drop the fixed-point "
                    "request or choose streaming_fixed / hlscode");
  if (!use_fixed && !caps.float_datapath) {
    // Fixed-only backend named explicitly: an unspecified datapath
    // follows the backend's only datapath (so `--backend streaming_fixed`
    // alone just works, at any pipeline depth), while an explicit float
    // request is a contradiction — quantised output for a float ask.
    TMHLS_REQUIRE(request.datapath != PlanDatapath::float32,
                  "backend " + name +
                      " has no float datapath; drop the float request or "
                      "choose a float-capable backend");
    use_fixed = true;
  }
  ExecutionPlan plan;
  plan.backend = backend;
  plan.threads = caps.tiled_threads ? request.threads : 1;
  plan.use_fixed = use_fixed;
  plan.fixed = request.fixed;
  plan.model_revision = model().revision();
  BlurContext ctx;
  ctx.fixed = plan.fixed;
  ctx.use_fixed = plan.use_fixed;
  ctx.threads = plan.threads;
  const double observed = model().observed_seconds(
      name, request.width, request.height, plan.threads);
  plan.predicted_seconds =
      observed > 0.0
          ? observed
          : estimate_pipeline_cost(*backend, request.width, request.height,
                                   kernel, ctx)
                .seconds;
  return plan;
}

ExecutionPlan Planner::plan_auto(const PlanRequest& request,
                                 const tonemap::GaussianKernel& kernel) const {
  const bool use_fixed = request.datapath == PlanDatapath::fixed_point;

  // A routing table (measured schedule search) outranks the cost model —
  // for float plans only, since entries are measured on the float
  // datapath. An entry whose backend cannot run this kernel falls through
  // to cost ranking rather than failing the plan.
  if (!use_fixed) {
    std::optional<RoutingEntry> routed;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (routing_) {
        const RoutingEntry* entry = routing_->find(
            geometry_bucket(request.width, request.height));
        if (entry != nullptr) routed = *entry;
      }
    }
    if (routed && registry().contains(routed->backend)) {
      const std::shared_ptr<const Backend> backend =
          registry().resolve(routed->backend);
      const BackendCapabilities caps = backend->capabilities();
      BlurContext ctx;
      ctx.fixed = request.fixed;
      ctx.use_fixed = false;
      ctx.threads = caps.tiled_threads ? std::max(1, routed->threads) : 1;
      ctx.bands = routed->bands;
      if (backend->can_run(kernel, ctx)) {
        ExecutionPlan plan;
        plan.backend = backend;
        plan.threads = ctx.threads;
        plan.bands = caps.tiled_threads ? routed->bands : 0;
        plan.use_fixed = false;
        plan.fixed = request.fixed;
        plan.predicted_seconds = routed->measured_seconds;
        plan.auto_selected = true;
        plan.from_routing_table = true;
        plan.model_revision = model().revision();
        return plan;
      }
    }
  }

  // Cost-ranked selection. Rank by the END-TO-END pipeline estimate, not
  // the blur alone: the point-wise term is backend-invariant (a constant
  // offset), but a fused backend additionally avoids the inter-stage
  // plane traffic, a real advantage a blur-only ranking cannot see.
  // Measured observations (the online EWMAs) outrank analytic estimates
  // for the backends that have them; uncalibrated backends (no blur
  // throughput figure) fall back to the MAC count and sort after every
  // timed candidate. Ties break by name (the registry's sorted order),
  // keeping the choice deterministic.
  std::shared_ptr<const Backend> best;
  int best_threads = 1;
  bool best_has_time = false;
  double best_key = 0.0;
  for (const std::string& candidate : registry().names()) {
    const std::shared_ptr<const Backend> backend =
        registry().resolve(candidate);
    BlurContext ctx;
    ctx.fixed = request.fixed;
    ctx.use_fixed = use_fixed;
    ctx.threads =
        backend->capabilities().tiled_threads ? request.threads : 1;
    if (!backend->can_run(kernel, ctx)) continue;
    const double observed = model().observed_seconds(
        candidate, request.width, request.height, ctx.threads);
    double key = 0.0;
    bool has_time = false;
    if (observed > 0.0) {
      key = observed;
      has_time = true;
    } else {
      const PipelineCost cost = estimate_pipeline_cost(
          *backend, request.width, request.height, kernel, ctx);
      has_time = cost.blur.seconds > 0.0;
      key = has_time ? cost.seconds : cost.blur.macs;
    }
    if (!best || (has_time && !best_has_time) ||
        (has_time == best_has_time && key < best_key)) {
      best = backend;
      best_threads = ctx.threads;
      best_has_time = has_time;
      best_key = key;
    }
  }
  TMHLS_REQUIRE(best != nullptr,
                "auto backend selection: no registered backend can run "
                "this request (datapath or kernel size unsupported)");
  ExecutionPlan plan;
  plan.backend = best;
  plan.threads = best_threads;
  plan.use_fixed = use_fixed;
  plan.fixed = request.fixed;
  plan.predicted_seconds = best_has_time ? best_key : 0.0;
  plan.auto_selected = true;
  plan.model_revision = model().revision();
  return plan;
}

void Planner::install_routing_table(RoutingTable table) {
  const std::lock_guard<std::mutex> lock(mutex_);
  routing_ = std::move(table);
}

void Planner::clear_routing_table() {
  const std::lock_guard<std::mutex> lock(mutex_);
  routing_.reset();
}

bool Planner::has_routing_table() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return routing_.has_value();
}

Planner& Planner::global() {
  static Planner* planner = new Planner();
  return *planner;
}

} // namespace tmhls::exec
