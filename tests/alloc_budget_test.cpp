// Allocation-budget regression tests — the gate on the zero-copy frame
// memory invariant: once a serving session is warm, the steady state
// performs ZERO fresh plane allocations. Pinned per execution backend
// (all six), for both serving shapes:
//   * the second job on a warm ToneMapService allocates no plane
//     (img::plane_allocation_count() delta == 0 across submit + get), and
//   * the Nth frame of an open stream allocates no plane.
// Bit-identity rides along: every pooled output is memcmp'd against the
// same work done by a pool_bytes=0 (fully unpooled) twin.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "image/image.hpp"
#include "image/plane_pool.hpp"
#include "serve/service.hpp"
#include "stream/session.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls {
namespace {

// Every registered execution backend; streaming_fixed runs its (only)
// fixed-point datapath, the rest run float.
const char* const kBackends[] = {
    "separable_float", "separable_simd", "streaming_fixed",
    "hlscode",         "fused_stream",
};

constexpr int kW = 64;
constexpr int kH = 48;

img::ImageF random_hdr(std::uint64_t seed) {
  Rng rng(seed);
  img::ImageF im(kW, kH, 3);
  for (float& v : im.samples()) {
    v = static_cast<float>(rng.uniform() * 80.0 + 1e-3);
  }
  return im;
}

tonemap::PipelineOptions options_for(const std::string& backend) {
  tonemap::PipelineOptions opt;
  opt.sigma = 1.5;
  opt.radius = 4;
  opt.backend = backend;
  return opt;
}

::testing::AssertionResult bit_identical(const img::ImageF& a,
                                         const img::ImageF& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  const auto sa = a.samples();
  const auto sb = b.samples();
  if (std::memcmp(sa.data(), sb.data(), sa.size_bytes()) != 0) {
    return ::testing::AssertionFailure() << "samples differ";
  }
  return ::testing::AssertionSuccess();
}

// Wait until every plane the pool handed out has come home (worker-thread
// locals die shortly after a job's future resolves, so "the job is done"
// and "its planes are back" are two events). A warm measurement must
// start from this quiescent point, or job N's acquires race job N-1's
// returns and spuriously miss the free lists.
template <typename PoolStatsFn>
::testing::AssertionResult quiesce(PoolStatsFn stats_fn) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  img::PoolStats s = stats_fn();
  while (s.returned != s.acquires) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return ::testing::AssertionFailure()
             << "pool never quiesced: " << s.returned << " returned of "
             << s.acquires << " acquires";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    s = stats_fn();
  }
  return ::testing::AssertionSuccess();
}

serve::FrameResult run_job(serve::ToneMapService& service,
                           const img::ImageF& frame,
                           const tonemap::PipelineOptions& opt) {
  serve::FrameJob job;
  job.frame = frame;
  job.options = opt;
  return service.submit(std::move(job)).get();
}

TEST(AllocBudgetTest, SecondServiceJobAllocatesNoPlane) {
  const img::ImageF frame = random_hdr(101);
  for (const char* backend : kBackends) {
    SCOPED_TRACE(backend);
    const tonemap::PipelineOptions opt = options_for(backend);

    // The unpooled twin: every plane allocates fresh; its outputs are the
    // bit-identity reference.
    serve::ToneMapServiceOptions unpooled_opts;
    unpooled_opts.shards = 1;
    unpooled_opts.pool_bytes = 0;
    serve::ToneMapService unpooled(unpooled_opts);
    const img::ImageF expected1 = run_job(unpooled, frame, opt).output;
    const img::ImageF expected2 = run_job(unpooled, frame, opt).output;

    serve::ToneMapServiceOptions pooled_opts;
    pooled_opts.shards = 1;
    serve::ToneMapService service(pooled_opts);

    // Job 1 warms the pool: its planes outline the whole working set.
    {
      const img::ImageF out1 = run_job(service, frame, opt).output;
      EXPECT_TRUE(bit_identical(out1, expected1));
    } // out1 returns its plane
    ASSERT_TRUE(quiesce([&] { return service.pool_stats(); }));

    // Job 2 is the measured steady state: zero fresh plane allocations
    // across submit + completion, output still bit-identical. The job's
    // frame copy is made before the snapshot — producing the input is the
    // client's allocation (the transport decodes it into a pooled plane;
    // see transport_test), the budget here is the service's.
    serve::FrameJob job2;
    job2.frame = frame;
    job2.options = opt;
    const std::uint64_t allocs_before = img::plane_allocation_count();
    const img::ImageF out2 = service.submit(std::move(job2)).get().output;
    EXPECT_EQ(img::plane_allocation_count() - allocs_before, 0u);
    EXPECT_TRUE(bit_identical(out2, expected2));

    const img::PoolStats s = service.pool_stats();
    EXPECT_EQ(s.acquires, s.pool_hits + s.fresh_allocs);
    EXPECT_GT(s.pool_hits, 0u);
  }
}

TEST(AllocBudgetTest, WarmStreamFrameAllocatesNoPlane) {
  constexpr int kWarmFrames = 3; // frames 0..2 warm; frame 3 is measured
  for (const char* backend : kBackends) {
    SCOPED_TRACE(backend);
    stream::StreamConfig config;
    config.pipeline = options_for(backend);
    config.width = kW;
    config.height = kH;
    config.measure_service = false; // wall-clock-free rung decisions

    // Unpooled twin for the bit-identity reference.
    stream::SessionManagerOptions unpooled_opts;
    unpooled_opts.pool_bytes = 0;
    stream::SessionManager unpooled(unpooled_opts);
    const std::uint64_t ref_id = unpooled.open(config);

    stream::SessionManager manager;
    const std::uint64_t id = manager.open(config);

    for (std::uint64_t seq = 0; seq <= kWarmFrames; ++seq) {
      const img::ImageF frame = random_hdr(200 + seq);
      auto ref = unpooled.submit_frame(ref_id, seq, frame);
      ASSERT_EQ(ref.results.size(), 1u);

      std::uint64_t allocs_before = 0;
      if (seq == kWarmFrames) {
        // The measured frame: submission runs the whole frame on this
        // thread, so the quiescent point is right here.
        ASSERT_TRUE(quiesce([&] { return manager.pool_stats(); }));
        allocs_before = img::plane_allocation_count();
      }
      auto out = manager.submit_frame(id, seq, frame);
      ASSERT_EQ(out.results.size(), 1u);
      if (seq == kWarmFrames) {
        EXPECT_EQ(img::plane_allocation_count() - allocs_before, 0u);
      }
      EXPECT_TRUE(
          bit_identical(out.results[0].output, ref.results[0].output));
    }

    const img::PoolStats s = manager.pool_stats();
    EXPECT_EQ(s.acquires, s.pool_hits + s.fresh_allocs);
    EXPECT_GT(s.pool_hits, 0u);

    manager.close(id);
    unpooled.close(ref_id);
  }
}

} // namespace
} // namespace tmhls
