// stream::RateController — the per-stream execution governor. Serving
// (PR 7) decides shed/degrade per FRAME; a video stream must decide per
// STREAM: the rung is part of the stream's sticky execution decision and
// re-evaluating it every frame would turn load noise into visible quality
// flicker. The controller keeps an EWMA of per-frame service time
// (normalised to full-quality cost so measurements at any rung feed one
// estimate), projects the drain time of the queued frames over a bounded
// lookahead window against the stream's frame-interval budget, and picks
// the least-degraded rung that still meets it. Hysteresis — evaluation
// only every `reevaluate_every` frames, a minimum dwell between switches,
// and a sustained-headroom requirement before stepping back up — keeps
// the decision from flickering: under a steady 2x overload a standard
// stream makes exactly one switch per sweep.
//
// QoS semantics mirror serve::QosClass, lifted to stream granularity:
// best_effort streams are never degraded — when the budget fails, the
// decision is to shed the WHOLE stream as a unit; critical streams are
// never degraded and never shed; standard streams walk the rung ladder.
#pragma once

#include <cstdint>

#include "serve/qos.hpp"

namespace tmhls::stream {

/// Knobs of the per-stream rate controller. Defaults give stable
/// decisions at video rates; tests pin them for determinism.
struct RateControllerOptions {
  /// EWMA smoothing factor for the per-frame service-time estimate
  /// (same convention as the serving shards' estimate: new = (1-a)*old +
  /// a*sample). Must be in (0, 1].
  double ewma_alpha = 0.25;
  /// Floor for the service-time estimate before any frame has been
  /// measured (serve::OverloadPolicy::assumed_service_seconds, per
  /// stream). 0 starts the controller open, at full quality.
  double assumed_service_seconds = 0.0;
  /// Bound on how many queued frames the drain projection considers —
  /// backlog beyond the window can no longer be caught up within it and
  /// always fails the budget. Must be >= 1.
  int lookahead = 4;
  /// Step down when projected drain time exceeds budget * this. Must be
  /// > 0; 1.0 means "exactly the frame-interval budget".
  double down_headroom = 1.0;
  /// Step up only when the projection AT THE HIGHER RUNG stays below
  /// budget * this — the asymmetric half of the hysteresis band. Must be
  /// in (0, down_headroom].
  double up_utilization = 0.5;
  /// Consecutive up-eligible evaluations required before stepping up.
  int up_stability = 3;
  /// Minimum frames between any two rung switches. Must be >= 1.
  int min_dwell_frames = 32;
  /// Frames between budget evaluations; in between the sticky decision
  /// is returned unchanged, whatever the load does. Must be >= 1.
  int reevaluate_every = 8;
  /// Per-frame cost of each rung relative to DegradeLevel::none. The
  /// reduced_blur default mirrors OverloadPolicy::reduced_cost_fraction;
  /// the global-operator rung is a per-pixel scan, ~the pipeline's
  /// point-wise stages alone, without the blur. Must satisfy
  /// 0 < global <= reduced <= 1.
  double reduced_blur_cost = 0.25;
  double global_operator_cost = 0.02;
};

/// Throws InvalidArgument naming the offending field.
void validate(const RateControllerOptions& options);

/// The sticky execution decision for one stream: the rung frames run at,
/// or — best_effort only — the order to shed the stream as a unit.
struct RateDecision {
  serve::DegradeLevel rung = serve::DegradeLevel::none;
  bool shed = false;
};

class RateController {
public:
  /// `frame_interval_seconds` is the stream's per-frame deadline budget
  /// (1/fps); must be finite and > 0.
  RateController(RateControllerOptions options, serve::QosClass qos,
                 double frame_interval_seconds);

  /// Fold one measured frame service time in, tagged with the rung it
  /// ran at so the sample can be normalised to full-quality cost.
  void record_service(serve::DegradeLevel rung, double seconds);

  /// Advance one frame with `queued` frames waiting behind it and return
  /// the (possibly re-evaluated) sticky decision. Re-evaluation happens
  /// only every reevaluate_every frames — this is the ONLY place the
  /// per-stream execution decision can change.
  RateDecision on_frame(int queued);

  /// The current decision, without advancing anything.
  RateDecision decision() const { return decision_; }

  /// Lifetime rung switches (shedding is terminal, not a switch).
  std::uint64_t switches() const { return switches_; }

  /// The full-quality-equivalent per-frame service estimate.
  double estimated_service_seconds() const { return ewma_; }

private:
  double rung_cost(serve::DegradeLevel rung) const;
  /// Projected drain seconds of `queued`+1 frames at `rung` vs budget.
  bool meets_budget(serve::DegradeLevel rung, int queued,
                    double headroom) const;

  RateControllerOptions options_;
  serve::QosClass qos_;
  double frame_interval_;
  double ewma_ = 0.0;
  RateDecision decision_;
  std::uint64_t frames_ = 0;
  std::uint64_t frames_since_switch_ = 0;
  int up_streak_ = 0;
  std::uint64_t switches_ = 0;
};

} // namespace tmhls::stream
