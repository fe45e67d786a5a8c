// Tests for the in-process frame-serving layer: ToneMapService's
// bit-identity against the blocking tone_map() at shard counts 1/2/4 and
// across the fused engine's band counts, engine reuse across equal/mixed
// per-job options, backpressure, the submit/future error contract, and the
// service/pool statistics surface.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/registry.hpp"
#include "serve/service.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::serve {
namespace {

img::ImageF random_hdr(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  img::ImageF im(w, h, 3);
  for (float& v : im.samples()) {
    v = static_cast<float>(rng.uniform() * 100.0 + 1e-3);
  }
  return im;
}

FrameJob job_of(img::ImageF frame, const tonemap::PipelineOptions& opt) {
  FrameJob job;
  job.frame = std::move(frame);
  job.options = opt;
  return job;
}

::testing::AssertionResult bit_identical(const img::ImageF& a,
                                         const img::ImageF& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  auto sa = a.samples();
  auto sb = b.samples();
  if (std::memcmp(sa.data(), sb.data(), sa.size_bytes()) != 0) {
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (sa[i] != sb[i]) {
        return ::testing::AssertionFailure()
               << "first difference at sample " << i << ": " << sa[i]
               << " vs " << sb[i];
      }
    }
    return ::testing::AssertionFailure() << "bit pattern difference (NaN?)";
  }
  return ::testing::AssertionSuccess();
}

tonemap::PipelineOptions small_options(const std::string& backend) {
  tonemap::PipelineOptions opt;
  opt.sigma = 2.0;
  opt.radius = 6;
  opt.backend = backend;
  return opt;
}

// --- ToneMapService: bit-identity -----------------------------------------

class ServiceShardCountTest : public ::testing::TestWithParam<int> {};

TEST_P(ServiceShardCountTest, BitIdenticalToBlockingToneMapAcrossBackends) {
  const int shards = GetParam();
  for (const std::string& name : exec::BackendRegistry::global().names()) {
    const tonemap::PipelineOptions opt = small_options(name);

    constexpr int kJobs = 6;
    std::vector<img::ImageF> frames;
    std::vector<img::ImageF> golden;
    for (int i = 0; i < kJobs; ++i) {
      frames.push_back(
          random_hdr(33, 21, 600 + static_cast<std::uint64_t>(i)));
      golden.push_back(tonemap::tone_map(frames.back(), opt).output);
    }

    ToneMapServiceOptions so;
    so.shards = shards;
    ToneMapService service(so);
    std::vector<std::future<FrameResult>> futures;
    for (const img::ImageF& frame : frames) {
      futures.push_back(service.submit(job_of(frame, opt)));
    }
    for (int i = 0; i < kJobs; ++i) {
      const FrameResult r = futures[static_cast<std::size_t>(i)].get();
      EXPECT_TRUE(
          bit_identical(r.output, golden[static_cast<std::size_t>(i)]))
          << name << " shards " << shards << " job " << i;
      EXPECT_EQ(r.job_id, static_cast<std::uint64_t>(i));
      // Placement is load-dependent (least-loaded routing with round-robin
      // tie-break); only the range is guaranteed.
      EXPECT_GE(r.shard, 0);
      EXPECT_LT(r.shard, shards);
      EXPECT_GE(r.queue_seconds, 0.0);
      EXPECT_GE(r.service_seconds, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ServiceShardCountTest,
                         ::testing::Values(1, 2, 4));

TEST(ServiceTest, MultiBandFusedJobsBitIdenticalToBlockingToneMap) {
  // A job's options.threads is the fused engine's band count: every count
  // produces the golden separable_float bits.
  const img::ImageF frame = random_hdr(41, 37, 71);
  const img::ImageF golden =
      tonemap::tone_map(frame, small_options("separable_float")).output;
  ToneMapServiceOptions so;
  so.shards = 1;
  ToneMapService service(so);
  for (int threads : {1, 2, 4, 7}) {
    tonemap::PipelineOptions opt = small_options("fused_stream");
    opt.threads = threads;
    const FrameResult r = service.submit(job_of(frame, opt)).get();
    EXPECT_EQ(r.backend, "fused_stream");
    EXPECT_TRUE(bit_identical(r.output, golden)) << "threads " << threads;
  }
}

TEST(ServiceTest, MixedPerJobOptionsEachMatchTheirOwnBlockingRun) {
  // Jobs alternating backend, sigma, datapath and adjustment parameters
  // through one service: every result must equal the blocking tone_map()
  // under that job's own options.
  std::vector<tonemap::PipelineOptions> variants;
  variants.push_back(small_options("separable_float"));
  variants.push_back(small_options("separable_simd"));
  {
    tonemap::PipelineOptions o = small_options("streaming_fixed");
    o.datapath = tonemap::Datapath::fixed_point;
    variants.push_back(o);
  }
  {
    tonemap::PipelineOptions o = small_options("separable_float");
    o.sigma = 1.0;
    o.radius = 3;
    o.brightness = 0.2f;
    o.contrast = 0.9f;
    variants.push_back(o);
  }

  ToneMapServiceOptions so;
  so.shards = 2;
  ToneMapService service(so);
  constexpr int kJobs = 12;
  std::vector<img::ImageF> frames;
  std::vector<img::ImageF> golden;
  std::vector<std::future<FrameResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    const tonemap::PipelineOptions& opt =
        variants[static_cast<std::size_t>(i) % variants.size()];
    frames.push_back(random_hdr(25, 19, 700 + static_cast<std::uint64_t>(i)));
    golden.push_back(tonemap::tone_map(frames.back(), opt).output);
    futures.push_back(service.submit(job_of(frames.back(), opt)));
  }
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_TRUE(bit_identical(futures[static_cast<std::size_t>(i)].get().output,
                              golden[static_cast<std::size_t>(i)]))
        << "job " << i;
  }
}

TEST(ServiceTest, EqualOptionsReuseTheEngineMixedOptionsRebuild) {
  const tonemap::PipelineOptions opt = small_options("separable_float");
  tonemap::PipelineOptions other = opt;
  other.sigma = 1.0;
  other.radius = 3;

  ToneMapServiceOptions so;
  so.shards = 1;
  {
    // 8 identical-option jobs: exactly one engine build.
    ToneMapService service(so);
    std::vector<std::future<FrameResult>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(
          service.submit(job_of(random_hdr(21, 15, 800u + static_cast<std::uint64_t>(i)), opt)));
    }
    for (auto& f : futures) f.get();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.shards[0].session_builds, 1u);
    EXPECT_EQ(stats.completed, 8u);
  }
  {
    // Alternating options: every job switches, every job rebuilds.
    ToneMapService service(so);
    std::vector<std::future<FrameResult>> futures;
    for (int i = 0; i < 6; ++i) {
      futures.push_back(service.submit(
          job_of(random_hdr(21, 15, 900u + static_cast<std::uint64_t>(i)),
                 i % 2 == 0 ? opt : other)));
    }
    for (auto& f : futures) f.get();
    EXPECT_EQ(service.stats().shards[0].session_builds, 6u);
  }
}

// --- ToneMapService: contract ---------------------------------------------

TEST(ServiceTest, ValidationRejectsBadOptions) {
  ToneMapServiceOptions bad;
  bad.shards = 0;
  EXPECT_THROW(ToneMapService{bad}, InvalidArgument);
  bad = {};
  bad.queue_capacity = 0;
  EXPECT_THROW(ToneMapService{bad}, InvalidArgument);
}

TEST(ServiceTest, StructurallyInvalidJobsThrowAtSubmit) {
  ToneMapService service;
  EXPECT_THROW(service.submit({}), InvalidArgument); // empty frame
  for (const double deadline : {-1.0, std::nan("")}) {
    FrameJob job;
    job.frame = random_hdr(9, 9, 5);
    job.deadline_seconds = deadline;
    EXPECT_THROW(service.submit(std::move(job)), InvalidArgument);
  }
}

TEST(ServiceTest, ExecutionErrorsArriveThroughTheFutureAndShardContinues) {
  ToneMapServiceOptions so;
  so.shards = 1;
  ToneMapService service(so);
  const img::ImageF frame = random_hdr(17, 13, 55);

  tonemap::PipelineOptions bad = small_options("hlscode");
  bad.sigma = 40.0;
  bad.radius = 120; // 241 taps > hlscode's static bound
  std::future<FrameResult> failing = service.submit(job_of(frame, bad));

  tonemap::PipelineOptions unknown = small_options("no_such_backend");
  std::future<FrameResult> unknown_backend = service.submit(job_of(frame, unknown));

  const tonemap::PipelineOptions good = small_options("separable_float");
  std::future<FrameResult> ok = service.submit(job_of(frame, good));

  EXPECT_THROW(failing.get(), InvalidArgument);
  EXPECT_THROW(unknown_backend.get(), InvalidArgument);
  EXPECT_TRUE(bit_identical(ok.get().output,
                            tonemap::tone_map(frame, good).output));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ServiceTest, BackpressureBoundedQueueStillCompletesEverything) {
  ToneMapServiceOptions so;
  so.shards = 1;
  so.queue_capacity = 1; // submit blocks while the single slot is taken
  ToneMapService service(so);
  const tonemap::PipelineOptions opt = small_options("separable_float");
  std::vector<img::ImageF> frames;
  std::vector<std::future<FrameResult>> futures;
  for (int i = 0; i < 10; ++i) {
    frames.push_back(random_hdr(21, 17, 950 + static_cast<std::uint64_t>(i)));
    futures.push_back(service.submit(job_of(frames.back(), opt)));
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(bit_identical(
        futures[static_cast<std::size_t>(i)].get().output,
        tonemap::tone_map(frames[static_cast<std::size_t>(i)], opt).output))
        << i;
  }
}

TEST(ServiceTest, DestructionWithAcceptedJobsCompletesTheirFutures) {
  const tonemap::PipelineOptions opt = small_options("separable_float");
  const img::ImageF frame = random_hdr(25, 19, 77);
  std::vector<std::future<FrameResult>> futures;
  {
    ToneMapServiceOptions so;
    so.shards = 2;
    ToneMapService service(so);
    for (int i = 0; i < 6; ++i) {
      futures.push_back(service.submit(job_of(frame, opt)));
    }
    // Destructor runs with jobs queued and in flight.
  }
  const img::ImageF golden = tonemap::tone_map(frame, opt).output;
  for (auto& f : futures) {
    EXPECT_TRUE(bit_identical(f.get().output, golden));
  }
}

TEST(ServiceTest, LeastLoadedRoutingSteersJobsAroundABusyShard) {
  // Occupy one shard with a genuinely slow job, then feed small jobs one
  // at a time, waiting for each: at every submission the busy shard has
  // one job in flight and the other none, so the least-loaded router must
  // send every small job to the idle shard — including the ones whose
  // round-robin position is the busy shard (counted in `rebalanced`).
  ToneMapServiceOptions so;
  so.shards = 2;
  ToneMapService service(so);

  tonemap::PipelineOptions big_opt = small_options("separable_float");
  big_opt.sigma = 16.0;
  big_opt.radius = 48;
  const img::ImageF big_frame = random_hdr(320, 320, 7);
  std::future<FrameResult> big = service.submit(job_of(big_frame, big_opt));

  const tonemap::PipelineOptions opt = small_options("separable_float");
  constexpr int kSmallJobs = 4;
  std::vector<int> shards_hit;
  std::vector<::testing::AssertionResult> outcomes;
  for (int i = 0; i < kSmallJobs; ++i) {
    const img::ImageF frame =
        random_hdr(13, 11, 1200 + static_cast<std::uint64_t>(i));
    const FrameResult r = service.submit(job_of(frame, opt)).get();
    shards_hit.push_back(r.shard);
    outcomes.push_back(
        bit_identical(r.output, tonemap::tone_map(frame, opt).output));
  }
  // The big job must have been running throughout for the placement to
  // have been forced; on a pathologically slow host, skip rather than
  // assert placement that was never constrained.
  const bool big_ran_throughout =
      big.wait_for(std::chrono::seconds(0)) != std::future_status::ready;

  EXPECT_TRUE(
      bit_identical(big.get().output,
                    tonemap::tone_map(big_frame, big_opt).output));
  for (int i = 0; i < kSmallJobs; ++i) {
    EXPECT_TRUE(outcomes[static_cast<std::size_t>(i)]) << "small job " << i;
  }
  if (!big_ran_throughout) {
    GTEST_SKIP() << "big job finished before the small jobs — placement "
                    "unconstrained on this host";
  }
  for (int i = 0; i < kSmallJobs; ++i) {
    EXPECT_EQ(shards_hit[static_cast<std::size_t>(i)], 1)
        << "small job " << i << " hit the busy shard";
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shards[0].submitted, 1u);
  EXPECT_EQ(stats.shards[1].submitted, static_cast<std::uint64_t>(kSmallJobs));
  // Small jobs with even service ids (2 and 4) had round-robin position 0
  // (the busy shard) and were steered off it.
  EXPECT_EQ(stats.rebalanced, 2u);
}

TEST(ServiceTest, ConcurrentClientsBalanceAcrossShardsAndStayBitIdentical) {
  ToneMapServiceOptions so;
  so.shards = 2;
  so.queue_capacity = 2;
  ToneMapService service(so);
  const tonemap::PipelineOptions opt = small_options("separable_simd");

  constexpr int kClients = 3;
  constexpr int kJobsPerClient = 5;
  std::vector<std::thread> clients;
  std::vector<::testing::AssertionResult> outcomes(
      kClients, ::testing::AssertionSuccess());
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kJobsPerClient; ++i) {
        const img::ImageF frame = random_hdr(
            23, 17, static_cast<std::uint64_t>(1000 + c * 100 + i));
        const FrameResult r = service.submit(job_of(frame, opt)).get();
        const ::testing::AssertionResult check =
            bit_identical(r.output, tonemap::tone_map(frame, opt).output);
        if (!check) {
          outcomes[static_cast<std::size_t>(c)] =
              ::testing::AssertionFailure()
              << "client " << c << " job " << i << ": " << check.message();
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const auto& outcome : outcomes) EXPECT_TRUE(outcome);

  const ServiceStats stats = service.stats();
  constexpr std::uint64_t kTotal = kClients * kJobsPerClient;
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.completed, kTotal);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  ASSERT_EQ(stats.shards.size(), 2u);
  // Placement is load-dependent; every job lands on exactly one shard.
  EXPECT_EQ(stats.shards[0].submitted + stats.shards[1].submitted, kTotal);
}

} // namespace
} // namespace tmhls::serve
