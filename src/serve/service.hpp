// serve::ToneMapService — the in-process frame-serving front every
// transport (socket, HTTP) sits on.
//
// Shape: the service owns `shards` worker threads, each behind a bounded
// admission queue. submit() hands a FrameJob (whole HDR frame + per-job
// PipelineOptions) to the least-loaded shard — by queued + in-flight jobs,
// with ties broken round-robin so a uniform load keeps its even spread —
// and calls the job's completion with the outcome once the frame is done
// (the std::future overload wraps exactly that). A shard worker runs one
// job at a time: pickup, deadline check, degradation ladder, then the frame
// runs synchronously through the shard's cached tonemap::FrameEngine (or
// the global-operator rung) and is delivered. Consecutive jobs with equal
// options and geometry reuse the engine — the normalisation scale is
// passed per job and never forces a rebuild; any other change does. Within a
// shard, jobs complete in submission order. Output is bit-identical to the
// blocking tonemap::tone_map() for every job at every shard count — the
// service schedules work, it never changes bits.
//
// See docs/serving.md for the usage guide (lifecycle, sizing,
// backpressure, error contract) and docs/architecture.md for where this
// layer sits in the stack.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/stats.hpp"
#include "image/image.hpp"
#include "image/plane_pool.hpp"
#include "serve/qos.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::serve {

/// One tone-mapping request: a whole HDR frame plus the per-job pipeline
/// configuration it is to be processed with.
struct FrameJob {
  /// Linear-light HDR frame (1..4 channels); must be non-empty.
  img::ImageF frame;
  /// Per-job pipeline options — jobs with different options may be mixed
  /// freely in one service (each is bit-identical to the blocking
  /// tone_map() under its own options).
  tonemap::PipelineOptions options;
  /// What the service may do to this job under overload (see QosClass).
  /// Default standard: degrade rather than shed, never block admission on
  /// an unmeetable deadline.
  QosClass qos = QosClass::standard;
  /// Relative deadline in seconds, measured from submit(). Disengaged
  /// (std::nullopt, the default) means no deadline. This optional is THE
  /// "no deadline" sentinel of the whole stack: the service, the wire
  /// protocol and the client all test has_value() instead of comparing
  /// against a magic number, so a *computed* deadline that happens to be
  /// exactly 0.0 stays a real (already-expired) deadline rather than
  /// silently disabling expiry. When engaged, the value must be finite
  /// and >= 0; expiry is then checked at admission, at dequeue, and once
  /// more right before the frame enters the engine, and an expired job's
  /// completion receives DeadlineExceeded instead of computing a frame
  /// nobody is waiting for.
  std::optional<double> deadline_seconds;
  /// Ladder level the job starts at. Admission control and the dequeue
  /// check may only push it further down. Stream sessions set it to the
  /// stream's sticky rung; it is not carried on the wire.
  DegradeLevel degrade = DegradeLevel::none;
};

/// A completed job, delivered to the completion given to submit(). A job
/// that failed delivers its exception instead (see the error contract on
/// ToneMapService::submit).
struct FrameResult {
  /// Final display-referred image in [0, 1].
  img::ImageF output;
  /// Service-assigned id: the 0-based submission index across the whole
  /// service, echoing which submit() this result answers.
  std::uint64_t job_id = 0;
  /// Which service shard executed the job.
  int shard = 0;
  /// Name of the execution backend the mask blur ran on (the per-job
  /// resolution of options.backend, including "auto").
  std::string backend;
  /// Seconds spent in the admission queue before a worker picked the job
  /// up — the backpressure signal.
  double queue_seconds = 0.0;
  /// Seconds from pickup to completion (the engine run, or the global
  /// operator).
  double service_seconds = 0.0;
  /// How far down the degradation ladder this frame was routed —
  /// DegradeLevel::none means bit-identical to the blocking tone_map();
  /// reduced_blur means tone_map() under degraded_options(); and
  /// global_operator means reinhard_global() run standalone.
  DegradeLevel degrade = DegradeLevel::none;
};

/// What a job's completion receives (see ToneMapService::submit): its
/// result, or the exception the future overload would rethrow.
using Outcome = std::variant<FrameResult, std::exception_ptr>;
using Completion = std::function<void(Outcome)>;

/// Configuration of a ToneMapService.
struct ToneMapServiceOptions {
  /// Worker shards, each owning one cached FrameEngine and one admission
  /// queue. Independent jobs spread across shards, so this is the
  /// service's concurrency: size it to the cores the jobs' own threads
  /// (options.threads) leave idle. Must be >= 1.
  int shards = 2;
  /// Bound on jobs admitted per shard but not yet picked up. submit()
  /// blocks while its target shard's queue is full — backpressure instead
  /// of unbounded buffering. Must be >= 1.
  int queue_capacity = 8;
  /// Admission-control knobs: what "the deadline can't be met" means and
  /// how far the degradation ladder reaches (see OverloadPolicy).
  OverloadPolicy overload;
  /// Retention bound of the service's plane pool (img::PlanePool): every
  /// shard worker runs under the pool's scope, so a warm steady-state job
  /// performs zero fresh plane allocations — frames, intermediates and
  /// outputs all recycle through geometry-keyed free lists, bit-identical
  /// to unpooled execution. 0 disables pooling entirely (every plane
  /// allocates fresh), which is how the benches measure the pooled vs.
  /// unpooled comparison.
  std::size_t pool_bytes = img::PlanePool::kDefaultMaxRetainedBytes;
};

/// Validation: throws InvalidArgument naming the offending field unless
/// shards >= 1, queue_capacity >= 1, and the overload
/// policy is sane (assumed_service_seconds finite and >= 0,
/// reduced_radius >= 1, reduced_cost_fraction in (0, 1]).
void validate(const ToneMapServiceOptions& options);

/// The options a DegradeLevel::reduced_blur job actually runs: `options`
/// with the blur radius capped at policy.reduced_radius (an already-small
/// radius is kept). Exposed so callers can reproduce a degraded frame
/// bit-for-bit with the blocking tone_map().
tonemap::PipelineOptions degraded_options(
    const tonemap::PipelineOptions& options, const OverloadPolicy& policy);

/// Live statistics of one service shard; see ToneMapService::stats().
struct ShardStats {
  /// Jobs admitted, not yet picked up by the shard worker.
  std::size_t queue_depth = 0;
  /// Jobs picked up, not yet completed (0 or 1: a shard runs one job at a
  /// time).
  std::size_t in_flight = 0;
  /// Lifetime jobs routed to this shard.
  std::uint64_t submitted = 0;
  /// Lifetime jobs whose completion received a result. Counters advance
  /// before the completion runs, so a client that has observed a result
  /// also observes it counted here.
  std::uint64_t completed = 0;
  /// Lifetime jobs whose completion received an exception.
  /// (Deadline expiries are counted in `expired`, not here.)
  std::uint64_t failed = 0;
  /// Lifetime jobs whose deadline passed before a frame was produced —
  /// their completions received DeadlineExceeded. Disjoint from `failed`.
  std::uint64_t expired = 0;
  /// Lifetime jobs completed below full quality (FrameResult::degrade !=
  /// none). A subset of `completed`, not a separate outcome.
  std::uint64_t degraded = 0;
  /// FrameEngines built (first job plus every options or geometry switch)
  /// — low values on uniform workloads confirm engine reuse is working.
  std::uint64_t session_builds = 0;
};

/// Aggregated + per-shard service statistics. Shards are snapshotted one
/// after another; each row is internally consistent, the totals only
/// approximately simultaneous — a load report, not a synchronisation
/// primitive.
struct ServiceStats {
  std::vector<ShardStats> shards;
  std::size_t queue_depth = 0;
  std::size_t in_flight = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t expired = 0;
  std::uint64_t degraded = 0;
  /// Lifetime jobs admission control rejected with Overloaded — these
  /// never reached a shard, so they are NOT in `submitted`. The full
  /// accounting after a drain: every job offered to submit() is exactly
  /// one of shed, completed, failed, or expired (with degraded a subset
  /// of completed), i.e. submitted == completed + failed + expired.
  std::uint64_t shed = 0;
  /// Lifetime jobs the least-loaded router steered away from their
  /// round-robin shard because queue depths had diverged. 0 on a uniform
  /// load; tracking the job count means one shard is persistently behind
  /// (slow jobs, or an options mix that keeps rebuilding its engine).
  std::uint64_t rebalanced = 0;
};

/// Flatten into the common reporting form: one "service" snapshot of the
/// aggregate counters, then one "service.shardN" snapshot per shard —
/// what the CLI renders and the benches append to JSONL.
std::vector<common::StatsSnapshot> snapshot(const ServiceStats& stats);

/// The in-process batch tone-mapping service. Thread-safe: submit() may be
/// called from any number of client threads. The destructor runs every
/// accepted job's completion before returning (nothing accepted is ever
/// dropped), exactly like the exec layer below it.
class ToneMapService {
public:
  explicit ToneMapService(ToneMapServiceOptions options = {});
  /// Drains every accepted job through its shard worker, then joins.
  ~ToneMapService();

  ToneMapService(const ToneMapService&) = delete;
  ToneMapService& operator=(const ToneMapService&) = delete;

  /// Enqueue a job on the least-loaded shard (queued + in-flight jobs,
  /// ties broken round-robin by submission index); `done` receives its
  /// outcome. Blocks while that shard's queue is at capacity. Jobs
  /// with equal options keep landing on one shard only while loads stay
  /// even — a diverged queue beats engine affinity, by design: a rebuild
  /// costs less than waiting out a deep queue.
  ///
  /// Error contract: structurally invalid jobs (empty frame, a negative or
  /// non-finite deadline)
  /// throw InvalidArgument here, at the submitter. Admission control may
  /// additionally throw the typed Overloaded for best-effort jobs — when
  /// every queue is full, or when the estimated wait says the job's
  /// deadline cannot be met (standard jobs are degraded instead of shed;
  /// critical jobs block for queue space exactly like the pre-QoS
  /// service). Everything discovered during execution — an unknown
  /// backend name, a kernel beyond the backend's tap bound, a datapath
  /// contradiction — is delivered to the completion, as is
  /// DeadlineExceeded when a deadline passes at dequeue or before the
  /// frame enters the engine; the job is dropped and the shard continues with
  /// subsequent jobs unaffected. Submitting after destruction has begun
  /// throws InvalidArgument, as does an empty `done`.
  ///
  /// Completion contract: `done` runs exactly once for every job submit()
  /// accepts, and never when submit() throws. It runs on the shard worker
  /// — keep it short — outside the shard lock and after the shard
  /// counters advance (stats() inside it already counts the job). It must
  /// not throw: a throwing completion terminates the process.
  void submit(FrameJob job, Completion done);

  /// The same, delivered through a future (a wrapper over the above).
  std::future<FrameResult> submit(FrameJob job);

  int shards() const { return static_cast<int>(shards_.size()); }
  const ToneMapServiceOptions& options() const { return options_; }

  /// Per-shard queue depths and lifetime job counters (see ServiceStats).
  ServiceStats stats() const;

  /// The service's plane pool, or nullptr when options.pool_bytes == 0.
  /// Transports install its Scope on their connection threads so wire
  /// payloads decode straight into pool planes.
  img::PlanePool* plane_pool() { return pool_.get(); }

  /// Plane-pool counters (all-zero when pooling is disabled). The hit
  /// rate pool_hits / acquires is the bench's pool_hit_rate.
  img::PoolStats pool_stats() const;

private:
  struct Shard;

  void worker_loop(Shard& shard, int shard_index);

  ToneMapServiceOptions options_;
  /// Created before the shards (workers capture its scope) and destroyed
  /// after them; null when pooling is disabled. Planes that escape through
  /// results keep the recycler alive on their own (shared_ptr inside each
  /// plane), so results outliving the service stay safe.
  std::unique_ptr<img::PlanePool> pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_job_id_{0};
  std::atomic<std::uint64_t> rebalanced_{0};
  std::atomic<std::uint64_t> shed_{0};
};

} // namespace tmhls::serve
