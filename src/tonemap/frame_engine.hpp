// FrameEngine: the one synchronous frame engine every consumer runs frames
// through — tone_map_image, video::VideoToneMapper, stream sessions and
// every serve::ToneMapService job. Built once from (PipelineOptions, width,
// height), it plans once (exec::Planner) and then runs each frame on one
// of two routes:
//
//   fused  — the plan resolves to a backend with the fused_pipeline
//            capability on its float datapath: tone_map_fused, the §III.B
//            line-buffer dataflow, banded by the PLAN's threads/bands;
//   staged — everything else (the fixed datapath, hlscode, separable_*):
//            the staged composition tone_map(hdr, opt, executor).
//
// The blur is written once; the routes are schedules of it, never
// different bits: for every float configuration both are byte-identical to
// tone_map() on separable_float, at every thread and band count.
#pragma once

#include <atomic>
#include <cstdint>

#include "exec/executor.hpp"
#include "exec/planner.hpp"
#include "image/image.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::tonemap {

class FrameEngine {
public:
  /// Plan `options` for width x height frames (what backend == "auto" ranks
  /// on). Throws InvalidArgument on a non-positive geometry, an unknown
  /// backend, a datapath contradiction, or a kernel the planned backend
  /// cannot run — capability errors fail here, not mid-stream.
  FrameEngine(PipelineOptions options, int width, int height);

  FrameEngine(const FrameEngine&) = delete;
  FrameEngine& operator=(const FrameEngine&) = delete;

  /// Tone-map one frame under options().
  img::ImageF run(const img::ImageF& frame) const;

  /// As above with a per-frame normalisation scale (> 0) overriding
  /// options().normalization_scale — the hook temporal adaptation
  /// (VideoToneMapper, stream sessions) feeds.
  img::ImageF run(const img::ImageF& frame, float normalization_scale) const;

  /// True when frames run as one fused streaming sweep (tone_map_fused)
  /// rather than the staged composition. The output bits are identical
  /// either way.
  bool fused_route() const { return fused_; }

  /// The plan resolved at construction.
  const exec::ExecutionPlan& plan() const { return plan_; }

  /// The executor of the plan (what the staged route's mask stage runs on).
  const exec::PipelineExecutor& executor() const { return executor_; }

  const PipelineOptions& options() const { return options_; }
  int width() const { return width_; }
  int height() const { return height_; }

  /// Reuse test for callers that cache an engine: true when a job with
  /// `options` and width x height frames would get the same schedule from
  /// a freshly built engine. Options and geometry must match; an "auto"
  /// engine additionally re-plans when the cost model's revision moved
  /// (online observations arrived) and answers false if the fresh plan
  /// picks a different backend/threads/bands — how serving converges onto
  /// the measured-fastest backend. A false answer only costs a rebuild,
  /// never identity (plans choose scheduling, never bits).
  bool compatible_with(const PipelineOptions& options, int width,
                       int height) const;

private:
  img::ImageF run_with(const img::ImageF& frame,
                       const PipelineOptions& opt) const;

  PipelineOptions options_;
  int width_;
  int height_;
  exec::ExecutionPlan plan_;
  exec::PipelineExecutor executor_;
  bool fused_ = false;
  /// Row bands of the fused route: the plan's band count.
  int bands_ = 1;
  /// CostModel::revision() the engine last planned against — advanced by
  /// compatible_with when a re-plan confirms the same schedule. Atomic so
  /// stats readers of an idle engine stay race-free.
  mutable std::atomic<std::uint64_t> planned_revision_{0};
};

} // namespace tmhls::tonemap
