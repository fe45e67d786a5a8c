#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "tonemap/frame_engine.hpp"
#include "tonemap/global_operators.hpp"

namespace tmhls::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

} // namespace

void validate(const ToneMapServiceOptions& options) {
  TMHLS_REQUIRE(options.shards >= 1,
                "ToneMapServiceOptions::shards must be >= 1, got " +
                    std::to_string(options.shards));
  TMHLS_REQUIRE(options.queue_capacity >= 1,
                "ToneMapServiceOptions::queue_capacity must be >= 1, got " +
                    std::to_string(options.queue_capacity));
  TMHLS_REQUIRE(std::isfinite(options.overload.assumed_service_seconds) &&
                    options.overload.assumed_service_seconds >= 0.0,
                "OverloadPolicy::assumed_service_seconds must be finite and "
                ">= 0");
  TMHLS_REQUIRE(options.overload.reduced_radius >= 1,
                "OverloadPolicy::reduced_radius must be >= 1, got " +
                    std::to_string(options.overload.reduced_radius));
  TMHLS_REQUIRE(options.overload.reduced_cost_fraction > 0.0 &&
                    options.overload.reduced_cost_fraction <= 1.0,
                "OverloadPolicy::reduced_cost_fraction must be in (0, 1]");
}

tonemap::PipelineOptions degraded_options(
    const tonemap::PipelineOptions& options, const OverloadPolicy& policy) {
  tonemap::PipelineOptions reduced = options;
  // kernel() resolves radius == 0 to ceil(3 * sigma); cap the resolved
  // value so an explicitly small radius is never *increased* by degrading.
  reduced.radius = std::min(options.kernel().radius(), policy.reduced_radius);
  return reduced;
}

/// One worker shard: the bounded admission queue (shared with submitters,
/// guarded by `mutex`) plus the worker thread. The cached FrameEngine is
/// worker-private and lives in worker_loop's frame, so it needs no locking.
struct ToneMapService::Shard {
  struct Queued {
    FrameJob job;
    std::promise<FrameResult> promise;
    std::uint64_t id = 0;
    Clock::time_point enqueued;
    /// Absolute expiry, valid iff has_deadline (computed once at submit so
    /// queue time counts against the deadline).
    Clock::time_point deadline_at;
    bool has_deadline = false;
  };

  mutable std::mutex mutex;
  std::condition_variable not_empty;
  std::condition_variable not_full;
  std::deque<Queued> queue;
  bool stopping = false;
  /// Jobs popped by the worker, not yet completed.
  std::size_t active = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t expired = 0;
  std::uint64_t degraded = 0;
  /// EWMA of observed full-quality service seconds — the shard's "can I
  /// meet this deadline" estimate. Degraded jobs don't feed it (they are
  /// deliberately cheaper and would bias admission open under overload).
  double ewma_service = 0.0;
  std::uint64_t session_builds = 0;
  std::thread worker;
};

ToneMapService::ToneMapService(ToneMapServiceOptions options)
    : options_(options) {
  validate(options_);
  if (options_.pool_bytes > 0) {
    pool_ = std::make_unique<img::PlanePool>(options_.pool_bytes);
  }
  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  try {
    for (int i = 0; i < options_.shards; ++i) {
      Shard& shard = *shards_[static_cast<std::size_t>(i)];
      shard.worker = std::thread([this, &shard, i] { worker_loop(shard, i); });
    }
  } catch (...) {
    // Thread spawn failure: release the workers already running, then
    // rethrow — a half-built service must not leak threads.
    for (auto& shard : shards_) {
      {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->stopping = true;
      }
      shard->not_empty.notify_all();
      if (shard->worker.joinable()) shard->worker.join();
    }
    throw;
  }
}

ToneMapService::~ToneMapService() {
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->stopping = true;
    }
    shard->not_empty.notify_all();
    shard->not_full.notify_all();
  }
  // Each worker drains its queue before returning, so every future handed
  // out by submit() is satisfied by the time the destructor completes.
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

std::future<FrameResult> ToneMapService::submit(FrameJob job) {
  // Structural errors fail here at the submitter; everything discovered
  // during execution travels through the future instead (see the header).
  TMHLS_REQUIRE(!job.frame.empty(), "ToneMapService::submit: empty frame");
  TMHLS_REQUIRE(!job.deadline_seconds ||
                    (std::isfinite(*job.deadline_seconds) &&
                     *job.deadline_seconds >= 0.0),
                "FrameJob::deadline_seconds must be finite and >= 0");
  fault::inject("serve.submit");
  const bool has_deadline = job.deadline_seconds.has_value();
  const Clock::time_point deadline_at =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(job.deadline_seconds.value_or(0.0)));
  const std::uint64_t id = next_job_id_.fetch_add(1);
  const std::size_t count = shards_.size();
  const std::size_t rr = static_cast<std::size_t>(id % count);
  const auto capacity = static_cast<std::size_t>(options_.queue_capacity);
  const OverloadPolicy& policy = options_.overload;
  for (;;) {
    bool any_free = count == 1; // single shard: decided under its lock
    // Least-loaded routing: snapshot each shard's queued + in-flight jobs
    // and take the smallest among shards with a free queue slot (falling
    // back to the overall smallest when every queue is full). The scan
    // starts at the job's round-robin position, so equal loads fall back
    // to the even round-robin spread — the router only intervenes when
    // queue depths have actually diverged.
    std::size_t chosen = rr;
    if (count > 1) {
      std::size_t best_any = rr;
      std::size_t best_any_load = std::numeric_limits<std::size_t>::max();
      std::size_t best_free = rr;
      std::size_t best_free_load = std::numeric_limits<std::size_t>::max();
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t index = (rr + i) % count;
        Shard& candidate = *shards_[index];
        std::size_t load;
        bool has_slot;
        {
          std::lock_guard<std::mutex> lock(candidate.mutex);
          load = candidate.queue.size() + candidate.active;
          has_slot = candidate.queue.size() < capacity;
        }
        if (load < best_any_load) {
          best_any_load = load;
          best_any = index;
        }
        if (has_slot && load < best_free_load) {
          best_free_load = load;
          best_free = index;
          any_free = true;
        }
      }
      // A free slot beats a lower load behind a full queue: enqueueing
      // never blocks the submitter on a shard it was steered to.
      chosen = any_free ? best_free : best_any;
    }
    Shard& shard = *shards_[chosen];
    std::unique_lock<std::mutex> lock(shard.mutex);
    TMHLS_REQUIRE(!shard.stopping, "ToneMapService::submit after shutdown");
    if (count == 1) any_free = shard.queue.size() < capacity;
    if (shard.queue.size() >= capacity) {
      // Best-effort jobs shed instead of queue-blocking: when no shard
      // had a free slot, reject now with the typed error — the caller
      // can retry, downgrade its request, or drop the frame, all better
      // under overload than a submitter pile-up. (A slot seen during the
      // scan but raced away means the system is making progress; re-scan
      // without waiting.)
      if (job.qos == QosClass::best_effort) {
        if (!any_free) {
          shed_.fetch_add(1);
          throw Overloaded("ToneMapService::submit: all " +
                           std::to_string(count) +
                           " admission queues full, best_effort job shed");
        }
        continue; // re-scan: some other shard had a slot
      }
      // The slot observed during the scan was taken by a concurrent
      // submitter (or no shard had one). Wait briefly for this shard,
      // then re-scan — a slot may open elsewhere first, and blocking
      // here unconditionally would pin the job to a stale choice.
      shard.not_full.wait_for(lock, std::chrono::milliseconds(1),
                              [&shard, capacity] {
                                return shard.stopping ||
                                       shard.queue.size() < capacity;
                              });
      TMHLS_REQUIRE(!shard.stopping,
                    "ToneMapService::submit after shutdown");
      if (shard.queue.size() >= capacity) continue; // re-scan
    }
    // Deadline admission check: with E the shard's per-job estimate
    // (observed EWMA, floored by the policy's assumed service time) and
    // L jobs already ahead, this job completes in about (L + 1) x E. If
    // that misses the deadline, computing at full quality is wasted work:
    // shed best-effort with the typed error, route standard down the
    // ladder (reduced-radius when the cheaper job still fits, otherwise
    // straight to the global operator), and admit critical untouched.
    if (has_deadline) {
      const double estimate = std::max(shard.ewma_service,
                                       policy.assumed_service_seconds);
      if (estimate > 0.0) {
        const double remaining = seconds_between(Clock::now(), deadline_at);
        const double wait =
            estimate *
            static_cast<double>(shard.queue.size() + shard.active + 1);
        if (wait > remaining) {
          if (job.qos == QosClass::best_effort) {
            shed_.fetch_add(1);
            throw Overloaded(
                "ToneMapService::submit: estimated wait " +
                std::to_string(wait) + "s exceeds deadline (" +
                std::to_string(remaining) + "s left), best_effort job shed");
          }
          if (job.qos == QosClass::standard) {
            job.degrade = std::max(
                job.degrade, wait * policy.reduced_cost_fraction <= remaining
                                 ? DegradeLevel::reduced_blur
                                 : DegradeLevel::global_operator);
          }
        }
      }
    }
    Shard::Queued entry;
    entry.job = std::move(job);
    entry.id = id;
    entry.enqueued = Clock::now();
    entry.deadline_at = deadline_at;
    entry.has_deadline = has_deadline;
    std::future<FrameResult> future = entry.promise.get_future();
    shard.queue.push_back(std::move(entry));
    ++shard.submitted;
    lock.unlock();
    if (chosen != rr) rebalanced_.fetch_add(1);
    shard.not_empty.notify_one();
    return future;
  }
}

ServiceStats ToneMapService::stats() const {
  ServiceStats s;
  s.rebalanced = rebalanced_.load();
  s.shed = shed_.load();
  s.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    ShardStats row;
    row.queue_depth = shard->queue.size();
    row.in_flight = shard->active;
    row.submitted = shard->submitted;
    row.completed = shard->completed;
    row.failed = shard->failed;
    row.expired = shard->expired;
    row.degraded = shard->degraded;
    row.session_builds = shard->session_builds;
    s.shards.push_back(row);
    s.queue_depth += row.queue_depth;
    s.in_flight += row.in_flight;
    s.submitted += row.submitted;
    s.completed += row.completed;
    s.failed += row.failed;
    s.expired += row.expired;
    s.degraded += row.degraded;
  }
  return s;
}

img::PoolStats ToneMapService::pool_stats() const {
  return pool_ ? pool_->stats() : img::PoolStats{};
}

std::vector<common::StatsSnapshot> snapshot(const ServiceStats& stats) {
  std::vector<common::StatsSnapshot> out;
  common::StatsSnapshot total;
  total.scope = "service";
  total.counter("queue_depth", stats.queue_depth);
  total.counter("in_flight", stats.in_flight);
  total.counter("submitted", stats.submitted);
  total.counter("completed", stats.completed);
  total.counter("failed", stats.failed);
  total.counter("expired", stats.expired);
  total.counter("degraded", stats.degraded);
  total.counter("shed", stats.shed);
  total.counter("rebalanced", stats.rebalanced);
  out.push_back(std::move(total));
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    const ShardStats& row = stats.shards[i];
    common::StatsSnapshot shard;
    shard.scope = "service.shard" + std::to_string(i);
    shard.counter("queue_depth", row.queue_depth);
    shard.counter("in_flight", row.in_flight);
    shard.counter("submitted", row.submitted);
    shard.counter("completed", row.completed);
    shard.counter("failed", row.failed);
    shard.counter("expired", row.expired);
    shard.counter("degraded", row.degraded);
    shard.counter("session_builds", row.session_builds);
    out.push_back(std::move(shard));
  }
  return out;
}

void ToneMapService::worker_loop(Shard& shard, int shard_index) {
  // Every plane this worker allocates — stage intermediates and outputs —
  // comes from the service pool, so a warm shard recycles instead of
  // allocating.
  const img::PlanePool::Scope pool_scope(pool_.get());
  // The shard's engine, rebuilt only when a job's options or geometry
  // change (a plan depends on nothing else).
  std::unique_ptr<tonemap::FrameEngine> engine;

  // Counters advance *before* the promise is satisfied, so a client that
  // has seen future.get() return also sees the job counted in stats().
  // A full-quality completion also feeds the shard's EWMA service-time
  // estimate, the signal admission control sheds and degrades on. Each
  // outcome settles the job and frees the shard's in-flight slot.
  auto complete = [&](std::promise<FrameResult>& promise,
                      FrameResult&& result) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      ++shard.completed;
      if (result.degrade != DegradeLevel::none) ++shard.degraded;
      if (result.degrade == DegradeLevel::none &&
          result.service_seconds > 0.0) {
        shard.ewma_service =
            shard.ewma_service == 0.0
                ? result.service_seconds
                : 0.75 * shard.ewma_service + 0.25 * result.service_seconds;
      }
      --shard.active;
    }
    promise.set_value(std::move(result));
  };
  auto fail = [&](std::promise<FrameResult>& promise) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      ++shard.failed;
      --shard.active;
    }
    promise.set_exception(std::current_exception());
  };
  // Deadline expiry is its own outcome, disjoint from `failed`: the job
  // was viable, the clock won. The future gets DeadlineExceeded.
  auto expire = [&](Shard::Queued& q, const std::string& when) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      ++shard.expired;
      --shard.active;
    }
    q.promise.set_exception(std::make_exception_ptr(DeadlineExceeded(
        "job " + std::to_string(q.id) + ": deadline expired " + when)));
  };

  for (;;) {
    Shard::Queued q;
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      shard.not_empty.wait(lock, [&shard] {
        return shard.stopping || !shard.queue.empty();
      });
      if (shard.queue.empty()) return; // stopping and drained
      q = std::move(shard.queue.front());
      shard.queue.pop_front();
      ++shard.active;
    }
    shard.not_full.notify_one();
    const Clock::time_point picked_up = Clock::now();
    const double queue_seconds = seconds_between(q.enqueued, picked_up);
    FrameJob& job = q.job;

    // Fault site "serve.worker.pickup": a delay here models a slow shard
    // (the job's deadline keeps ticking, so the dequeue check below sees
    // exactly what a stalled worker would produce); a throw fails just
    // this job and the shard moves on.
    try {
      fault::inject("serve.worker.pickup");
    } catch (...) {
      fail(q.promise);
      continue;
    }

    // Dequeue-time deadline check: a job that expired while queued is
    // dropped before any pixel is computed.
    if (q.has_deadline && Clock::now() >= q.deadline_at) {
      expire(q, "after " + std::to_string(queue_seconds) + "s in queue");
      continue;
    }
    // Queue time may have eaten the slack admission control saw: for a
    // standard job still at full quality, re-evaluate the ladder against
    // the time actually left.
    if (q.has_deadline && job.qos == QosClass::standard &&
        job.degrade == DegradeLevel::none) {
      double estimate;
      {
        std::lock_guard<std::mutex> lock(shard.mutex);
        estimate = std::max(shard.ewma_service,
                            options_.overload.assumed_service_seconds);
      }
      const double remaining = seconds_between(Clock::now(), q.deadline_at);
      if (estimate > 0.0 && estimate > remaining) {
        job.degrade =
            estimate * options_.overload.reduced_cost_fraction <= remaining
                ? DegradeLevel::reduced_blur
                : DegradeLevel::global_operator;
      }
    }
    // Middle rung: the full five-stage pipeline with the blur radius
    // capped — from here on the job runs exactly like a full-quality job
    // under degraded_options().
    if (job.degrade == DegradeLevel::reduced_blur) {
      job.options = degraded_options(job.options, options_.overload);
    }

    try {
      FrameResult out;
      out.job_id = q.id;
      out.shard = shard_index;
      out.queue_seconds = queue_seconds;
      out.degrade = job.degrade;
      if (job.degrade == DegradeLevel::global_operator) {
        // Bottom of the ladder: the global operator replaces the whole
        // local pipeline — no blur, no engine. Bit-identical to
        // reinhard_global() run standalone, which is how tests pin it.
        out.output = tonemap::reinhard_global(job.frame);
        out.backend = "reinhard_global";
      } else {
        const int width = job.frame.width();
        const int height = job.frame.height();
        if (!engine || !engine->compatible_with(job.options, width, height)) {
          // Built without the job's scale: run() below passes each job's.
          tonemap::PipelineOptions plan_options = job.options;
          plan_options.normalization_scale = 0.0f;
          engine.reset();
          engine = std::make_unique<tonemap::FrameEngine>(
              std::move(plan_options), width, height);
          std::lock_guard<std::mutex> lock(shard.mutex);
          ++shard.session_builds;
        }
        // The last expiry check, right before the frame enters the engine
        // (which runs to completion: a frame that finishes late is still
        // delivered). Fault site "serve.worker.stage": a delay here makes
        // a deadline expire deterministically.
        fault::inject("serve.worker.stage");
        if (q.has_deadline && Clock::now() >= q.deadline_at) {
          expire(q, "before the engine");
          continue;
        }
        // 0 normalises by the frame's own maximum, as in tone_map().
        const float scale = job.options.normalization_scale;
        out.output = scale > 0.0f ? engine->run(job.frame, scale)
                                  : engine->run(job.frame);
        out.backend = engine->executor().backend().name();
      }
      out.service_seconds = seconds_between(picked_up, Clock::now());
      complete(q.promise, std::move(out));
    } catch (...) {
      fail(q.promise); // bad options or a failed run: the shard moves on
    }
  }
}

} // namespace tmhls::serve
