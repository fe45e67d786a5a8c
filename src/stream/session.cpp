#include "stream/session.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "video/video_tonemapper.hpp"

namespace tmhls::stream {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

} // namespace

void validate(const StreamConfig& config) {
  TMHLS_REQUIRE(config.width >= 1 && config.height >= 1,
                "StreamConfig::width/height must be >= 1, got " +
                    std::to_string(config.width) + "x" +
                    std::to_string(config.height));
  TMHLS_REQUIRE(std::isfinite(config.frame_interval_seconds) &&
                    config.frame_interval_seconds > 0.0,
                "StreamConfig::frame_interval_seconds must be finite "
                "and > 0");
  TMHLS_REQUIRE(config.adaptation_rate > 0.0 &&
                    config.adaptation_rate <= 1.0,
                "StreamConfig::adaptation_rate must be in (0, 1]");
  TMHLS_REQUIRE(config.reorder_window >= 0 &&
                    config.reorder_window <= kMaxReorderWindow,
                "StreamConfig::reorder_window must be in [0, " +
                    std::to_string(kMaxReorderWindow) + "], got " +
                    std::to_string(config.reorder_window));
  TMHLS_REQUIRE(config.credits >= 1 && config.credits <= kMaxStreamCredits,
                "StreamConfig::credits must be in [1, " +
                    std::to_string(kMaxStreamCredits) + "], got " +
                    std::to_string(config.credits));
  validate(config.rate);
}

void validate(const SessionManagerOptions& options) {
  TMHLS_REQUIRE(options.max_streams >= 1,
                "SessionManagerOptions::max_streams must be >= 1, got " +
                    std::to_string(options.max_streams));
}

/// All mutable state of one stream, guarded by its own mutex. Frames run
/// synchronously on the service, so nothing of the stream is in flight
/// between calls: a rung switch just changes the next job's degrade level.
struct SessionManager::Session {
  /// A frame waiting in the reorder buffer. The adaptation input (the
  /// frame's maximum) is computed at arrival so validation happens at
  /// submit; the trajectory itself advances at PROCESS time, in sequence
  /// order.
  struct Buffered {
    img::ImageF frame;
    float frame_max = 0.0f;
  };
  Session(std::uint64_t id_in, StreamConfig config_in, std::string planned)
      : id(id_in), config(std::move(config_in)),
        rate(config.rate, config.qos, config.frame_interval_seconds),
        backend(std::move(planned)), last_activity(Clock::now()) {}

  int frames_in_flight() const { return static_cast<int>(reorder.size()); }

  std::mutex mutex;
  const std::uint64_t id;
  const StreamConfig config;
  StreamState state = StreamState::open;
  serve::DegradeLevel rung = serve::DegradeLevel::none;
  RateController rate;
  /// Backend the last frame ran on (the open-time plan's before the
  /// first).
  std::string backend;
  /// The VideoToneMapper adaptation trajectory, carried across rungs.
  float scale = 0.0f;
  std::uint64_t adapted_frames = 0;
  std::uint64_t next_sequence = 0;
  std::map<std::uint64_t, Buffered> reorder;
  Clock::time_point last_activity;
  std::uint64_t frames_submitted = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_shed = 0;
  std::uint64_t frames_expired = 0;
  std::uint64_t sequence_gaps = 0;
  std::vector<double> luminances; ///< when config.track_flicker
};

namespace {

void deliver(SessionManager::Session& s, StreamFrameResult result,
             std::vector<StreamFrameResult>& out) {
  ++s.frames_delivered;
  if (s.config.measure_service) {
    s.rate.record_service(result.rung, result.service_seconds);
  }
  if (s.config.track_flicker) {
    s.luminances.push_back(video::mean_luminance(result.output));
  }
  out.push_back(std::move(result));
}

/// Shed the WHOLE stream as a unit: everything undelivered — in the
/// reorder buffer, and the current frame if the caller says so — is
/// counted shed, and the stream stops producing. Caller holds the session
/// lock.
void shed_stream(SessionManager::Session& s,
                 std::uint32_t& credits_released, bool count_current) {
  s.state = StreamState::shed;
  s.frames_shed += s.reorder.size();
  credits_released += static_cast<std::uint32_t>(s.reorder.size());
  s.reorder.clear();
  if (count_current) {
    ++s.frames_shed;
    ++credits_released;
  }
}

/// Process one in-sequence frame: rate decision, possible rung switch,
/// then the frame runs on the service at the stream's rung and scale.
/// Caller holds the session lock.
/// Returns false when the decision shed the stream (the frame included).
bool process_frame(serve::ToneMapService& service,
                   SessionManager::Session& s, std::uint64_t sequence,
                   SessionManager::Session::Buffered buffered,
                   std::vector<StreamFrameResult>& out,
                   std::uint32_t& credits_released) {
  fault::inject("stream.session.process");
  const RateDecision decision =
      s.rate.on_frame(static_cast<int>(s.reorder.size()));
  if (decision.shed) {
    shed_stream(s, credits_released, /*count_current=*/true);
    return false;
  }
  s.rung = decision.rung; // the sticky decision's only switch point
  // The VideoToneMapper recurrence, verbatim: first frame adapts
  // instantly, later frames exponentially — and the state commits only
  // after the frame ran.
  const float next_scale =
      s.adapted_frames == 0
          ? buffered.frame_max
          : s.scale + static_cast<float>(s.config.adaptation_rate) *
                          (buffered.frame_max - s.scale);
  serve::FrameJob job;
  job.frame = std::move(buffered.frame);
  job.options = s.config.pipeline;
  job.options.normalization_scale = next_scale;
  // No deadline and never best_effort: admission can neither shed nor
  // degrade the frame, so the rate controller stays the stream's only
  // ladder policy.
  job.qos = serve::QosClass::critical;
  job.degrade = s.rung;
  serve::FrameResult done = service.submit(std::move(job)).get();
  s.scale = next_scale;
  ++s.adapted_frames;
  s.backend = done.backend;
  StreamFrameResult result;
  result.stream_id = s.id;
  result.sequence = sequence;
  result.output = std::move(done.output);
  result.rung = done.degrade;
  result.backend = std::move(done.backend);
  result.service_seconds = done.service_seconds;
  deliver(s, std::move(result), out);
  return true;
}

/// Pull every deliverable frame out of the reorder buffer: contiguous
/// frames always; when the buffer has outgrown the window (or
/// `skip_all_gaps`, the end-of-stream drain), the missing sequence
/// numbers are skipped and delivery resumes at the next buffered frame.
/// Caller holds the session lock.
void drain_reorder(serve::ToneMapService& service,
                   SessionManager::Session& s, bool skip_all_gaps,
                   std::vector<StreamFrameResult>& out,
                   std::uint32_t& credits_released) {
  while (!s.reorder.empty() && s.state == StreamState::open) {
    const auto it = s.reorder.begin();
    if (it->first != s.next_sequence) {
      const bool window_full =
          s.reorder.size() >
          static_cast<std::size_t>(s.config.reorder_window);
      if (!window_full && !skip_all_gaps) break;
      s.sequence_gaps += it->first - s.next_sequence;
      s.next_sequence = it->first;
      continue;
    }
    const std::uint64_t sequence = it->first;
    SessionManager::Session::Buffered buffered = std::move(it->second);
    s.reorder.erase(it);
    s.next_sequence = sequence + 1;
    try {
      if (!process_frame(service, s, sequence, std::move(buffered), out,
                         credits_released)) {
        return; // stream shed as a unit
      }
    } catch (...) {
      // Execution failure: the frame is accounted shed (the submitted ==
      // delivered + shed + expired balance must survive errors), then
      // the error propagates — the caller owns the stream's fate.
      ++s.frames_shed;
      ++credits_released;
      throw;
    }
  }
}

} // namespace

SessionManager::SessionManager(serve::ToneMapService& service,
                               SessionManagerOptions options)
    : service_(service), options_((validate(options), options)) {}

SessionManager::~SessionManager() {
  // Abort everything still registered so the counter contract holds for
  // owners that drop the manager without closing streams.
  std::vector<std::uint64_t> ids;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, session] : sessions_) ids.push_back(id);
  }
  for (const std::uint64_t id : ids) {
    try {
      abort(id);
    } catch (...) {
      // Unknown-id races only; nothing to do in a destructor.
    }
  }
}

std::uint64_t SessionManager::open(StreamConfig config) {
  validate(config);
  // Capability errors fail here, not mid-stream: plan the full-quality
  // pipeline (before the manager lock); plan() throws if it cannot run.
  const exec::PipelineExecutor plan =
      config.pipeline.plan(config.width, config.height);
  std::shared_ptr<Session> session;
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Stream-granular admission: at capacity, non-critical opens are
    // shed whole (the PR-7 semantics lifted from frames to streams);
    // critical streams are never shed, so for them the bound is soft.
    if (static_cast<int>(sessions_.size()) >= options_.max_streams &&
        config.qos != serve::QosClass::critical) {
      throw serve::Overloaded(
          "SessionManager: at max_streams (" +
          std::to_string(options_.max_streams) + "), stream shed");
    }
    id = next_stream_id_++;
    session = std::make_shared<Session>(id, std::move(config),
                                        plan.backend().name());
    sessions_.emplace(id, session);
    ++streams_opened_;
  }
  return session->id;
}

std::shared_ptr<SessionManager::Session>
SessionManager::find(std::uint64_t stream_id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(stream_id);
  TMHLS_REQUIRE(it != sessions_.end(),
                "SessionManager: unknown stream id " +
                    std::to_string(stream_id));
  return it->second;
}

SubmitOutcome SessionManager::submit_frame(std::uint64_t stream_id,
                                           std::uint64_t sequence,
                                           img::ImageF frame) {
  const std::shared_ptr<Session> session = find(stream_id);
  Session& s = *session;
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.last_activity = Clock::now();
  SubmitOutcome outcome;
  if (s.state == StreamState::shed) {
    // The stream was shed as a unit; late frames (already in flight from
    // the producer) are absorbed into the shed count so the balance
    // closes, and their flow-control slots returned.
    ++s.frames_submitted;
    ++s.frames_shed;
    outcome.credits_released = 1;
    outcome.stream_shed = true;
    return outcome;
  }
  TMHLS_REQUIRE(!frame.empty() && frame.width() == s.config.width &&
                    frame.height() == s.config.height,
                "SessionManager::submit_frame: frame geometry does not "
                "match the stream (expected " +
                    std::to_string(s.config.width) + "x" +
                    std::to_string(s.config.height) + ")");
  // The adaptation input, computed at arrival so a dark frame rejects at
  // the submit boundary (matching VideoToneMapper) instead of surfacing
  // mid-drain from the reorder buffer.
  float frame_max = 0.0f;
  for (const float v : frame.samples()) frame_max = std::max(frame_max, v);
  TMHLS_REQUIRE(frame_max > 0.0f, "frame carries no light");
  if (sequence < s.next_sequence || s.reorder.count(sequence) != 0) {
    // Its slot was already skipped past (or it is a duplicate): too late
    // to deliver in order.
    ++s.frames_submitted;
    ++s.frames_expired;
    outcome.credits_released = 1;
    return outcome;
  }
  if (s.frames_in_flight() >= s.config.credits) {
    // Flow-control violation: the producer ran ahead of its credit
    // window. Typed as overload so transports map it to backpressure.
    throw serve::Overloaded(
        "SessionManager: stream flow-control window exhausted (" +
        std::to_string(s.config.credits) + " credits)");
  }
  ++s.frames_submitted;
  s.reorder.emplace(sequence, Session::Buffered{std::move(frame), frame_max});
  drain_reorder(service_, s, /*skip_all_gaps=*/false, outcome.results,
                outcome.credits_released);
  if (s.state == StreamState::shed) outcome.stream_shed = true;
  return outcome;
}

StreamStats SessionManager::locked_stats(const Session& s) const {
  StreamStats st;
  st.state = s.state;
  st.rung = s.rung;
  st.backend = s.backend;
  st.frames_submitted = s.frames_submitted;
  st.frames_delivered = s.frames_delivered;
  st.frames_shed = s.frames_shed;
  st.frames_expired = s.frames_expired;
  st.sequence_gaps = s.sequence_gaps;
  st.rung_switches = s.rate.switches();
  st.frames_in_flight = s.frames_in_flight();
  st.estimated_service_seconds = s.rate.estimated_service_seconds();
  st.flicker = s.luminances.size() >= 2
                   ? video::flicker_metric(s.luminances)
                   : 0.0;
  return st;
}

CloseResult SessionManager::finish(std::uint64_t stream_id,
                                   bool deliver_tail, bool reclaimed) {
  std::shared_ptr<Session> session;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(stream_id);
    TMHLS_REQUIRE(it != sessions_.end(),
                  "SessionManager: unknown stream id " +
                      std::to_string(stream_id));
    session = it->second;
    // Unregister first: once finish is underway no new submit may find
    // the stream (it would race the drain).
    sessions_.erase(it);
  }
  Session& s = *session;
  CloseResult result;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (deliver_tail && s.state == StreamState::open) {
      // End-of-stream drain: gaps can no longer fill, skip them all and
      // deliver the tail in order. Execution errors during the drain
      // shed the failing frame (accounted inside drain_reorder) but must
      // not abandon the close; whatever is still held is shed below.
      std::uint32_t released = 0;
      try {
        drain_reorder(service_, s, /*skip_all_gaps=*/true, result.results,
                      released);
      } catch (...) {
      }
    }
    s.frames_shed += s.reorder.size();
    s.reorder.clear();
    result.stats = locked_stats(s);
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++streams_closed_;
    if (result.stats.state == StreamState::shed) ++streams_shed_;
    if (reclaimed) ++streams_reclaimed_;
    retired_submitted_ += result.stats.frames_submitted;
    retired_delivered_ += result.stats.frames_delivered;
    retired_shed_ += result.stats.frames_shed;
    retired_expired_ += result.stats.frames_expired;
    retired_switches_ += result.stats.rung_switches;
  }
  return result;
}

CloseResult SessionManager::close(std::uint64_t stream_id) {
  return finish(stream_id, /*deliver_tail=*/true, /*reclaimed=*/false);
}

StreamStats SessionManager::abort(std::uint64_t stream_id) {
  return finish(stream_id, /*deliver_tail=*/false, /*reclaimed=*/false)
      .stats;
}

int SessionManager::reclaim_stalled(double max_idle_seconds) {
  TMHLS_REQUIRE(std::isfinite(max_idle_seconds) && max_idle_seconds >= 0.0,
                "SessionManager::reclaim_stalled: max_idle_seconds must "
                "be finite and >= 0");
  const Clock::time_point now = Clock::now();
  std::vector<std::uint64_t> stalled;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, session] : sessions_) {
      const std::lock_guard<std::mutex> session_lock(session->mutex);
      if (seconds_between(session->last_activity, now) >
          max_idle_seconds) {
        stalled.push_back(id);
      }
    }
  }
  int reclaimed = 0;
  for (const std::uint64_t id : stalled) {
    try {
      finish(id, /*deliver_tail=*/false, /*reclaimed=*/true);
      ++reclaimed;
    } catch (const InvalidArgument&) {
      // Lost a race with a concurrent close — already gone, fine.
    }
  }
  return reclaimed;
}

StreamStats SessionManager::stream_stats(std::uint64_t stream_id) const {
  const std::shared_ptr<Session> session = find(stream_id);
  const std::lock_guard<std::mutex> lock(session->mutex);
  return locked_stats(*session);
}

SessionManagerStats SessionManager::stats() const {
  SessionManagerStats total;
  const std::lock_guard<std::mutex> lock(mutex_);
  total.streams_opened = streams_opened_;
  total.streams_closed = streams_closed_;
  total.streams_shed = streams_shed_;
  total.streams_reclaimed = streams_reclaimed_;
  total.frames_submitted = retired_submitted_;
  total.frames_delivered = retired_delivered_;
  total.frames_shed = retired_shed_;
  total.frames_expired = retired_expired_;
  total.rung_switches = retired_switches_;
  total.streams_active = static_cast<int>(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    const std::lock_guard<std::mutex> session_lock(session->mutex);
    total.frames_submitted += session->frames_submitted;
    total.frames_delivered += session->frames_delivered;
    total.frames_shed += session->frames_shed;
    total.frames_expired += session->frames_expired;
    total.rung_switches += session->rate.switches();
    if (session->state == StreamState::shed) ++total.streams_shed;
  }
  return total;
}

common::StatsSnapshot snapshot(const SessionManagerStats& stats) {
  common::StatsSnapshot out;
  out.scope = "streams";
  out.counter("streams_opened", stats.streams_opened);
  out.counter("streams_closed", stats.streams_closed);
  out.counter("streams_shed", stats.streams_shed);
  out.counter("streams_reclaimed", stats.streams_reclaimed);
  out.counter("frames_submitted", stats.frames_submitted);
  out.counter("frames_delivered", stats.frames_delivered);
  out.counter("frames_shed", stats.frames_shed);
  out.counter("frames_expired", stats.frames_expired);
  out.counter("rung_switches", stats.rung_switches);
  out.counter("streams_active", static_cast<std::uint64_t>(
                                    stats.streams_active < 0
                                        ? 0
                                        : stats.streams_active));
  return out;
}

} // namespace tmhls::stream
