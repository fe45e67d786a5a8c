// stream::SessionManager — per-stream state over the serving stack. A
// video stream is not a bag of independent frames: it carries a
// temporal-adaptation trajectory (video::VideoToneMapper's smoothed
// normalisation scale), a STICKY degrade rung (resolved at open and moved
// only by the stream's RateController, never per frame), in-order delivery
// across a bounded reorder/jitter window, and credit-based flow control.
// Overload decisions apply to the stream as a unit — a best_effort stream
// is shed whole, a standard stream steps down a rung whole, a critical
// stream does neither — which is what keeps overload from showing up as
// per-frame quality flicker.
//
// Execution: the manager runs no frame itself. Each in-sequence frame
// becomes a serve::FrameJob on the ToneMapService the manager was built
// over — options.normalization_scale set to the adapted scale, degrade set
// to the stream's rung, no deadline and the critical class, so admission
// never sheds or degrades it — and the submitting thread waits on the
// job's future. A stream frame and a request job therefore run the same
// worker code, under the same plane pool and the same OverloadPolicy.
//
// Identity contract: a stream at the full-quality rung is byte-identical,
// frame for frame, to a standalone VideoToneMapper fed the same frames in
// sequence order — the session owns the same adaptation recurrence, and
// the service runs the same tonemap::FrameEngine. Degraded rungs are
// byte-identical to their standalone counterparts (tone_map() under
// serve::degraded_options with the service's policy for reduced_blur,
// tonemap::reinhard_global for global_operator).
//
// Counter contract (the invariants stream_test hammers under TSan): over
// the manager's lifetime streams_opened == streams_closed once every
// stream is closed/aborted/reclaimed, and per stream frames_submitted ==
// frames_delivered + frames_shed + frames_expired after close.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "serve/qos.hpp"
#include "serve/service.hpp"
#include "stream/rate_controller.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::stream {

/// Largest reorder window a stream may ask for (out-of-order frames
/// buffered while waiting for a gap to fill).
inline constexpr int kMaxReorderWindow = 64;
/// Largest flow-control window (undelivered frames a client may have
/// outstanding); also the wire-level bound.
inline constexpr int kMaxStreamCredits = 64;

/// Configuration of one stream, fixed at open(). Only the RateController
/// moves the stream's rung afterwards.
struct StreamConfig {
  /// Per-frame pipeline configuration; backend ("auto" included) is
  /// planned at open for the stream's geometry, like VideoToneMapper.
  tonemap::PipelineOptions pipeline;
  /// Frame geometry; every submitted frame must match it.
  int width = 1024;
  int height = 768;
  /// The stream's per-frame deadline budget (1/fps), the target the
  /// RateController holds service time against. Finite, > 0.
  double frame_interval_seconds = 1.0 / 30.0;
  /// Stream-granular QoS (see RateController header for semantics).
  serve::QosClass qos = serve::QosClass::standard;
  /// Temporal adaptation rate per frame in (0, 1] (VideoToneMapper).
  double adaptation_rate = 0.25;
  /// Out-of-order frames buffered while a sequence gap is open, in
  /// [0, kMaxReorderWindow]. When a gap persists after the window fills,
  /// the missing sequence numbers are skipped (counted in
  /// StreamStats::sequence_gaps) and delivery resumes in order; a frame
  /// arriving after its slot was skipped is counted expired and dropped.
  int reorder_window = 4;
  /// Flow-control window: max undelivered frames outstanding, in
  /// [1, kMaxStreamCredits]. Submitting beyond it throws Overloaded.
  int credits = 8;
  /// Rate-controller knobs (hysteresis band, EWMA, rung costs).
  RateControllerOptions rate;
  /// Feed measured per-frame service times into the rate controller.
  /// Tests turn this off and drive decisions purely from
  /// rate.assumed_service_seconds, making them wall-clock-free.
  bool measure_service = true;
  /// Track per-frame mean display luminance of delivered frames so
  /// StreamStats can report the flicker metric (costs one plane scan per
  /// delivered frame).
  bool track_flicker = false;
};

/// Throws InvalidArgument naming the offending field.
void validate(const StreamConfig& config);

/// One delivered frame of a stream, in sequence order.
struct StreamFrameResult {
  std::uint64_t stream_id = 0;
  std::uint64_t sequence = 0;
  img::ImageF output;
  /// Rung the frame actually ran at (the stream's sticky rung when it was
  /// processed).
  serve::DegradeLevel rung = serve::DegradeLevel::none;
  /// Resolved backend name the frame ran on ("reinhard_global" at the
  /// global_operator rung, mirroring the serving layer's spelling).
  std::string backend;
  /// The job's serve::FrameResult::service_seconds (pickup to completion
  /// on the service shard) — the service time the rate controller sees.
  double service_seconds = 0.0;
};

/// Lifecycle state of a stream.
enum class StreamState : std::uint8_t {
  open = 0,
  /// Terminated as a unit by the rate controller (best_effort overload);
  /// stays registered — late frames are absorbed (counted shed) — until
  /// the owner calls close()/abort().
  shed = 1,
};

/// Per-stream counters and live state; see the header contract.
struct StreamStats {
  StreamState state = StreamState::open;
  serve::DegradeLevel rung = serve::DegradeLevel::none;
  std::string backend;
  std::uint64_t frames_submitted = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_shed = 0;
  std::uint64_t frames_expired = 0;
  /// Sequence numbers skipped over by the reorder window (frames that
  /// never arrived — NOT part of the submitted balance).
  std::uint64_t sequence_gaps = 0;
  std::uint64_t rung_switches = 0;
  /// Frames currently held by the stream's reorder buffer.
  int frames_in_flight = 0;
  /// Full-quality-equivalent per-frame service estimate (EWMA).
  double estimated_service_seconds = 0.0;
  /// flicker_metric over delivered frames when track_flicker is on
  /// (0 with fewer than two delivered frames).
  double flicker = 0.0;
};

/// What one submit_frame produced.
struct SubmitOutcome {
  /// Frames that became deliverable, in sequence order. Each one
  /// implicitly frees a flow-control credit.
  std::vector<StreamFrameResult> results;
  /// Credits freed WITHOUT a delivery (frames shed or expired) — what
  /// the transport returns to the client as an explicit credit grant.
  std::uint32_t credits_released = 0;
  /// Set on the call that shed the whole stream (best_effort overload).
  bool stream_shed = false;
};

/// What close() produced: the drained tail plus the final counters.
struct CloseResult {
  std::vector<StreamFrameResult> results;
  StreamStats stats;
};

/// Manager-wide counters; aggregates of the per-stream ones plus stream
/// lifecycle counts.
struct SessionManagerStats {
  std::uint64_t streams_opened = 0;
  std::uint64_t streams_closed = 0; ///< close() + abort() + reclaim
  std::uint64_t streams_shed = 0;   ///< shed as a unit (subset of closed)
  std::uint64_t streams_reclaimed = 0; ///< closed by reclaim_stalled
  std::uint64_t frames_submitted = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_shed = 0;
  std::uint64_t frames_expired = 0;
  std::uint64_t rung_switches = 0;
  int streams_active = 0;
};

/// Flatten into the common reporting form (scope "streams").
common::StatsSnapshot snapshot(const SessionManagerStats& stats);

/// Options of the manager itself.
struct SessionManagerOptions {
  /// Streams concurrently open. At the bound, best_effort and standard
  /// opens are shed with Overloaded; critical opens are always admitted
  /// (the bound is a soft limit for them, mirroring the serving layer's
  /// never-shed contract).
  int max_streams = 64;
};

/// Throws InvalidArgument naming the offending field.
void validate(const SessionManagerOptions& options);

/// The per-stream state owner. Thread-safe: different streams may be
/// driven from different threads concurrently; calls on ONE stream are
/// serialised by a per-stream lock (one producer per stream is the
/// intended shape).
class SessionManager {
public:
  /// Stream frames run on `service`, which must outlive the manager.
  explicit SessionManager(serve::ToneMapService& service,
                          SessionManagerOptions options = {});
  /// Aborts every still-open stream (undelivered frames counted shed).
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Open a stream and return its id. The stream's pipeline is planned
  /// here (PipelineOptions::plan), so a backend that cannot run it throws
  /// InvalidArgument at open, not mid-stream. Throws Overloaded when the
  /// manager is at max_streams (non-critical QoS) and InvalidArgument on a
  /// malformed config.
  std::uint64_t open(StreamConfig config);

  /// Submit frame `sequence` (0-based, assigned by the producer) of the
  /// stream. Frames may arrive out of order within the reorder window;
  /// results come back strictly in sequence order. Every frame that
  /// becomes deliverable runs on the service before the call returns.
  /// Throws InvalidArgument for unknown streams, geometry mismatches or
  /// dark (max <= 0) frames, and Overloaded when the flow-control window
  /// is exhausted. If frame processing itself fails, the frame is counted
  /// shed and the error propagates — the caller decides the stream's fate
  /// (the transport aborts it).
  SubmitOutcome submit_frame(std::uint64_t stream_id,
                             std::uint64_t sequence,
                             img::ImageF frame);

  /// End-of-stream: drain everything still held (remaining gaps are
  /// skipped), deliver the tail in order, unregister the stream, and
  /// return the final counters.
  CloseResult close(std::uint64_t stream_id);

  /// Disconnect path: unregister the stream discarding everything
  /// undelivered (counted shed). Never throws on processing state.
  StreamStats abort(std::uint64_t stream_id);

  /// Abort every stream idle (no open/submit) for longer than
  /// `max_idle_seconds`; returns how many were reclaimed. The sweep the
  /// serving host runs periodically so half-dead producers cannot pin
  /// stream slots forever.
  int reclaim_stalled(double max_idle_seconds);

  /// Live per-stream counters. Throws InvalidArgument for unknown ids
  /// (including already-closed streams — their final stats came back
  /// from close()).
  StreamStats stream_stats(std::uint64_t stream_id) const;

  SessionManagerStats stats() const;

  const SessionManagerOptions& options() const { return options_; }

  /// Opaque per-stream state; defined in the implementation (public only
  /// so the implementation's file-local helpers can name it).
  struct Session;

private:
  std::shared_ptr<Session> find(std::uint64_t stream_id) const;
  StreamStats locked_stats(const Session& s) const;
  /// Drain + unregister, shared by close/abort/reclaim.
  CloseResult finish(std::uint64_t stream_id, bool deliver_tail,
                     bool reclaimed);

  serve::ToneMapService& service_;
  SessionManagerOptions options_;
  mutable std::mutex mutex_; ///< guards sessions_ and lifecycle counters
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::uint64_t next_stream_id_ = 1;
  std::uint64_t streams_opened_ = 0;
  std::uint64_t streams_closed_ = 0;
  std::uint64_t streams_shed_ = 0;
  std::uint64_t streams_reclaimed_ = 0;
  /// Aggregates folded in as streams retire + live-summed in stats().
  std::uint64_t retired_submitted_ = 0;
  std::uint64_t retired_delivered_ = 0;
  std::uint64_t retired_shed_ = 0;
  std::uint64_t retired_expired_ = 0;
  std::uint64_t retired_switches_ = 0;
};

} // namespace tmhls::stream
