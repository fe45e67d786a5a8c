// Throughput and latency of the in-process serving layer
// (serve::ToneMapService) versus shard count: a fixed multi-client
// workload is replayed at shard counts 1, 2 and 4. A second mode
// measures behaviour under overload: per-job service time is calibrated
// first, then bursts of 1x / 2x / 4x the base workload — alternating
// best_effort and standard QoS, every job deadlined — are offered to a
// fixed service, reporting accepted/shed/degraded/expired rates and the
// p50/p99 latency of accepted jobs only. Emits one benchkit::JsonRecord
// line per configuration on stdout and a human table on stderr.
//
//   bench_serving [--size N] [--clients C] [--jobs J] [--reps R]
//                 [--backend NAME] [--threads T] [--sigma S]
//                 [--deadline-factor F]
//
// NB: on a single-core host extra shards only add queueing — expect
// speedup_vs_1shard ~1.0 there; the interesting numbers come from
// multi-core CI runners. Records are a non-gating CI artifact.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/args.hpp"
#include "common/math.hpp"
#include "common/table.hpp"
#include "image/plane_pool.hpp"
#include "imageio/synthetic.hpp"
#include "serve/service.hpp"
#include "tonemap/pipeline.hpp"

namespace {

using namespace tmhls;
using Clock = std::chrono::steady_clock;

struct RunResult {
  double seconds = 0.0;   ///< wall time of the whole workload
  double p50_s = 0.0;     ///< median client-observed latency
  double p99_s = 0.0;
  /// Fresh plane allocations per job over the whole run (warm-up
  /// included, so a pooled run trends toward but never quite reaches 0).
  double allocs_per_job = 0.0;
  /// pool_hits / acquires of the service pool (0 when pooling is off).
  double pool_hit_rate = 0.0;
};

/// Replay `jobs` jobs from each of `clients` threads through a service
/// with `shards` shards. `pool_bytes` is the service's plane-pool bound
/// (0 = unpooled).
RunResult run_workload(int shards, int clients, int jobs,
                       const tonemap::PipelineOptions& popt,
                       const std::vector<img::ImageF>& frames,
                       std::size_t pool_bytes =
                           img::PlanePool::kDefaultMaxRetainedBytes) {
  const std::uint64_t allocs_before = img::plane_allocation_count();
  serve::ToneMapServiceOptions so;
  so.shards = shards;
  so.pool_bytes = pool_bytes;
  serve::ToneMapService service(so);

  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  const auto t0 = Clock::now();
  std::vector<std::thread> client_threads;
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      // Clients stand in for the transport's reader threads, which run
      // under the service pool's scope (frames decode into pool planes) —
      // so the job's frame copy recycles too. No-op when unpooled.
      const img::PlanePool::Scope pool_scope(service.plane_pool());
      std::vector<Clock::time_point> submitted;
      std::vector<std::future<serve::FrameResult>> futures;
      for (int j = 0; j < jobs; ++j) {
        serve::FrameJob job;
        job.frame = frames[static_cast<std::size_t>(c * jobs + j) %
                           frames.size()];
        job.options = popt;
        submitted.push_back(Clock::now());
        futures.push_back(service.submit(std::move(job)));
      }
      for (std::size_t j = 0; j < futures.size(); ++j) {
        futures[j].get();
        latencies[static_cast<std::size_t>(c)].push_back(
            std::chrono::duration<double>(Clock::now() - submitted[j])
                .count());
      }
    });
  }
  for (std::thread& t : client_threads) t.join();

  RunResult r;
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  r.p50_s = percentile(all, 0.5);
  r.p99_s = percentile(all, 0.99);
  const std::uint64_t total = static_cast<std::uint64_t>(clients) *
                              static_cast<std::uint64_t>(jobs);
  r.allocs_per_job =
      static_cast<double>(img::plane_allocation_count() - allocs_before) /
      static_cast<double>(total);
  const img::PoolStats ps = service.pool_stats();
  r.pool_hit_rate = ps.acquires > 0 ? static_cast<double>(ps.pool_hits) /
                                          static_cast<double>(ps.acquires)
                                    : 0.0;
  return r;
}

struct OverloadResult {
  double seconds = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0; ///< submit() returned a future
  std::uint64_t shed = 0;     ///< typed Overloaded at submit
  std::uint64_t expired = 0;  ///< DeadlineExceeded through the future
  std::uint64_t completed = 0;
  std::uint64_t degraded = 0; ///< of completed: below full quality
  double p50_s = 0.0;         ///< accepted-and-completed jobs only
  double p99_s = 0.0;
  double allocs_per_job = 0.0; ///< fresh plane allocations per offered job
  double pool_hit_rate = 0.0;  ///< pool_hits / acquires of the service pool
};

/// Offer `clients x jobs` deadlined jobs (alternating best_effort and
/// standard QoS) to a service whose admission estimate is `assumed_s`.
OverloadResult run_overload(int shards, int clients, int jobs,
                            double assumed_s, double deadline_s,
                            const tonemap::PipelineOptions& popt,
                            const std::vector<img::ImageF>& frames) {
  const std::uint64_t allocs_before = img::plane_allocation_count();
  serve::ToneMapServiceOptions so;
  so.shards = shards;
  so.overload.assumed_service_seconds = assumed_s;
  serve::ToneMapService service(so);

  OverloadResult out;
  out.offered = static_cast<std::uint64_t>(clients) *
                static_cast<std::uint64_t>(jobs);
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::atomic<std::uint64_t> accepted{0}, shed{0}, expired{0}, completed{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> client_threads;
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      const img::PlanePool::Scope pool_scope(service.plane_pool());
      std::vector<Clock::time_point> submitted;
      std::vector<std::future<serve::FrameResult>> futures;
      for (int j = 0; j < jobs; ++j) {
        serve::FrameJob job;
        job.frame = frames[static_cast<std::size_t>(c * jobs + j) %
                           frames.size()];
        job.options = popt;
        job.qos = j % 2 == 0 ? serve::QosClass::best_effort
                             : serve::QosClass::standard;
        job.deadline_seconds = deadline_s;
        const Clock::time_point at = Clock::now();
        try {
          futures.push_back(service.submit(std::move(job)));
        } catch (const serve::Overloaded&) {
          shed.fetch_add(1);
          continue;
        }
        accepted.fetch_add(1);
        submitted.push_back(at);
      }
      for (std::size_t j = 0; j < futures.size(); ++j) {
        try {
          futures[j].get();
        } catch (const serve::DeadlineExceeded&) {
          expired.fetch_add(1);
          continue;
        }
        completed.fetch_add(1);
        latencies[static_cast<std::size_t>(c)].push_back(
            std::chrono::duration<double>(Clock::now() - submitted[j])
                .count());
      }
    });
  }
  for (std::thread& t : client_threads) t.join();
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.accepted = accepted.load();
  out.shed = shed.load();
  out.expired = expired.load();
  out.completed = completed.load();
  out.degraded = service.stats().degraded;
  if (out.offered > 0) {
    out.allocs_per_job =
        static_cast<double>(img::plane_allocation_count() - allocs_before) /
        static_cast<double>(out.offered);
  }
  const img::PoolStats ps = service.pool_stats();
  out.pool_hit_rate = ps.acquires > 0
                          ? static_cast<double>(ps.pool_hits) /
                                static_cast<double>(ps.acquires)
                          : 0.0;
  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  if (!all.empty()) {
    out.p50_s = percentile(all, 0.5);
    out.p99_s = percentile(all, 0.99);
  }
  return out;
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv, {"pool-compare"});
    const int size = args.get_int("size", 256);
    const int clients = args.get_int("clients", 4);
    const int jobs = args.get_int("jobs", 4); // per client
    const int reps = args.get_int("reps", 3);
    const std::string backend = args.get_or("backend", "separable_simd");
    TMHLS_REQUIRE(size > 0 && clients > 0 && jobs > 0 && reps > 0,
                  "size, clients, jobs and reps must be positive");

    tonemap::PipelineOptions popt;
    popt.sigma = args.get_double("sigma", 16.0);
    popt.backend = backend;
    popt.threads = args.get_int("threads", 1);

    // Pre-rendered frames: the timed region measures serving only.
    std::vector<img::ImageF> frames;
    for (int i = 0; i < clients; ++i) {
      frames.push_back(io::generate_hdr_scene(
          io::SceneKind::window_interior, size, size,
          2018u + static_cast<std::uint64_t>(i)));
    }

    benchkit::print_header("Serving throughput, backend " + backend,
                           std::cerr);
    const int total_jobs = clients * jobs;
    const int taps = popt.kernel().taps();

    // --pool-compare: ONLY the pooled-vs-unpooled comparison — the same
    // jobs workload through a plane-pooled service and a pool_bytes=0
    // one, reporting the allocation budget and the throughput delta.
    if (args.has("pool-compare")) {
      TextTable pool_table({"pooled", "jobs", "total (s)", "jobs/s",
                            "allocs/job", "hit rate", "vs unpooled"});
      double unpooled_jobs_per_s = 0.0;
      for (const bool pooled : {false, true}) {
        RunResult best;
        for (int r = 0; r < reps; ++r) {
          const RunResult run = run_workload(
              2, clients, jobs, popt, frames,
              pooled ? img::PlanePool::kDefaultMaxRetainedBytes : 0);
          if (best.seconds == 0.0 || run.seconds < best.seconds) best = run;
        }
        const double jobs_per_s = total_jobs / best.seconds;
        if (!pooled) unpooled_jobs_per_s = jobs_per_s;
        const double speedup = unpooled_jobs_per_s > 0.0
                                   ? jobs_per_s / unpooled_jobs_per_s
                                   : 0.0;
        pool_table.add_row({pooled ? "yes" : "no",
                            std::to_string(total_jobs),
                            format_fixed(best.seconds, 4),
                            format_fixed(jobs_per_s, 2),
                            format_fixed(best.allocs_per_job, 2),
                            format_fixed(best.pool_hit_rate, 3),
                            format_fixed(speedup, 2)});
        benchkit::JsonRecord record("serving");
        record.field("mode", "pool")
            .field("backend", backend)
            .field("threads", popt.threads)
            .field("shards", 2)
            .field("jobs_total", total_jobs)
            .field("width", size)
            .field("height", size)
            .field("taps", taps)
            .field("pooled", pooled ? 1 : 0)
            .field("seconds_total", best.seconds)
            .field("jobs_per_s", jobs_per_s)
            .field("latency_p50_ms", best.p50_s * 1e3)
            .field("latency_p99_ms", best.p99_s * 1e3)
            .field("speedup_vs_unpooled", speedup)
            .field("allocs_per_job", best.allocs_per_job)
            .field("pool_hit_rate", best.pool_hit_rate)
            .emit();
      }
      std::cerr << '\n' << pool_table.render();
      return 0;
    }

    TextTable table({"mode", "shards", "jobs", "total (s)", "jobs/s",
                     "p50 (ms)", "p99 (ms)", "vs 1 shard"});

    // Mode 1: many independent whole-frame jobs vs service shard count.
    double one_shard_s = 0.0;
    for (int shards : {1, 2, 4}) {
      RunResult best;
      for (int r = 0; r < reps; ++r) {
        const RunResult run =
            run_workload(shards, clients, jobs, popt, frames);
        if (best.seconds == 0.0 || run.seconds < best.seconds) best = run;
      }
      if (shards == 1) one_shard_s = best.seconds;
      const double speedup =
          best.seconds > 0.0 ? one_shard_s / best.seconds : 0.0;
      const double jobs_per_s = total_jobs / best.seconds;
      table.add_row({"jobs", std::to_string(shards),
                     std::to_string(total_jobs),
                     format_fixed(best.seconds, 4),
                     format_fixed(jobs_per_s, 2),
                     format_fixed(best.p50_s * 1e3, 2),
                     format_fixed(best.p99_s * 1e3, 2),
                     format_fixed(speedup, 2)});
      benchkit::JsonRecord record("serving");
      record.field("mode", "jobs")
          .field("backend", backend)
          .field("threads", popt.threads)
          .field("shards", shards)
          .field("clients", clients)
          .field("jobs_total", total_jobs)
          .field("width", size)
          .field("height", size)
          .field("taps", taps)
          .field("seconds_total", best.seconds)
          .field("jobs_per_s", jobs_per_s)
          .field("latency_p50_ms", best.p50_s * 1e3)
          .field("latency_p99_ms", best.p99_s * 1e3)
          .field("speedup_vs_1shard", speedup)
          .field("allocs_per_job", best.allocs_per_job)
          .field("pool_hit_rate", best.pool_hit_rate)
          .emit();
    }

    std::cerr << '\n' << table.render();

    // Mode 2: overload sweep. Calibrate the per-job full-quality service
    // time, set every job's deadline to a small multiple of it, and
    // offer bursts of 1x / 2x / 4x the base workload — beyond capacity,
    // admission control must shed best-effort and degrade standard jobs
    // rather than queue-block, and the p50/p99 of the jobs it does
    // accept is what the sweep reports.
    const double deadline_factor = args.get_double("deadline-factor", 4.0);
    TMHLS_REQUIRE(deadline_factor > 0.0, "deadline-factor must be > 0");
    double cal_s = 0.0;
    for (int r = 0; r < reps; ++r) {
      const auto c0 = Clock::now();
      (void)tonemap::tone_map(frames[0], popt);
      const double s =
          std::chrono::duration<double>(Clock::now() - c0).count();
      if (cal_s == 0.0 || s < cal_s) cal_s = s;
    }
    const double deadline_s = cal_s * deadline_factor;

    TextTable overload_table({"offered x", "offered", "accepted", "shed",
                              "degraded", "expired", "accept %",
                              "p50 (ms)", "p99 (ms)"});
    for (int multiplier : {1, 2, 4}) {
      const OverloadResult o =
          run_overload(2, clients, jobs * multiplier, cal_s,
                       deadline_s, popt, frames);
      const double offered_d = static_cast<double>(o.offered);
      const double accept_rate =
          offered_d > 0.0 ? static_cast<double>(o.accepted) / offered_d
                          : 0.0;
      overload_table.add_row(
          {std::to_string(multiplier), std::to_string(o.offered),
           std::to_string(o.accepted), std::to_string(o.shed),
           std::to_string(o.degraded), std::to_string(o.expired),
           format_fixed(accept_rate * 100.0, 1),
           format_fixed(o.p50_s * 1e3, 2), format_fixed(o.p99_s * 1e3, 2)});
      benchkit::JsonRecord record("serving");
      record.field("mode", "overload")
          .field("backend", backend)
          .field("threads", popt.threads)
          .field("shards", 2)
          .field("clients", clients)
          .field("offered_multiplier", multiplier)
          .field("offered", static_cast<int>(o.offered))
          .field("accepted", static_cast<int>(o.accepted))
          .field("shed", static_cast<int>(o.shed))
          .field("degraded", static_cast<int>(o.degraded))
          .field("expired", static_cast<int>(o.expired))
          .field("completed", static_cast<int>(o.completed))
          .field("accept_rate", accept_rate)
          .field("deadline_ms", deadline_s * 1e3)
          .field("calibrated_service_ms", cal_s * 1e3)
          .field("width", size)
          .field("height", size)
          .field("seconds_total", o.seconds)
          .field("latency_p50_ms", o.p50_s * 1e3)
          .field("latency_p99_ms", o.p99_s * 1e3)
          .field("allocs_per_job", o.allocs_per_job)
          .field("pool_hit_rate", o.pool_hit_rate)
          .emit();
    }
    std::cerr << '\n' << overload_table.render();
    return 0;
  } catch (const tmhls::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
