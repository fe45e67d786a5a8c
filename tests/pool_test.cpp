// Tests for img::PlanePool — the geometry-keyed recycled-plane arena the
// serving stack's zero-copy frame memory is built on. Pinned invariants:
// acquire/recycle/evict behaviour (exact-geometry reuse, LRU eviction
// under the retained-bytes bound, oversize returns dropped), geometry-key
// isolation (a retained buffer never serves a different sample count),
// zero-fill bit-identity of recycled planes, the exact PoolStats balance
// acquires == pool_hits + fresh_allocs, cross-thread returns (including a
// TSan-hammered concurrent acquire/release loop), scope propagation into
// plain ImageF construction, safe late returns after pool destruction,
// and RAII buffer return on exception paths driven through the real
// service.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "image/image.hpp"
#include "image/plane_pool.hpp"
#include "serve/service.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::img {
namespace {

constexpr std::size_t plane_bytes(int w, int h, int c) {
  return static_cast<std::size_t>(w) * static_cast<std::size_t>(h) *
         static_cast<std::size_t>(c) * sizeof(float);
}

// Every counter relation that must hold at ANY quiescent point (no plane
// mid-construction/destruction): the acquisition split is exact, and the
// retained gauge respects the bound.
void expect_balanced(const PlanePool& pool) {
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.acquires, s.pool_hits + s.fresh_allocs);
  EXPECT_LE(s.retained_bytes, pool.max_retained_bytes());
}

TEST(PlanePoolTest, AcquireRecycleHit) {
  PlanePool pool;
  {
    PooledPlane a = pool.acquire(8, 4, 3);
    EXPECT_EQ(a.width(), 8);
    EXPECT_EQ(a.height(), 4);
    EXPECT_EQ(a.channels(), 3);
    for (float v : a.samples()) EXPECT_EQ(v, 0.0f);
  } // a dies -> buffer returns
  PoolStats s = pool.stats();
  EXPECT_EQ(s.acquires, 1u);
  EXPECT_EQ(s.fresh_allocs, 1u);
  EXPECT_EQ(s.pool_hits, 0u);
  EXPECT_EQ(s.returned, 1u);
  EXPECT_EQ(s.evicted, 0u);
  EXPECT_EQ(s.retained_bytes, plane_bytes(8, 4, 3));

  const std::uint64_t allocs_before = plane_allocation_count();
  PooledPlane b = pool.acquire(8, 4, 3); // exact geometry -> retained buffer
  EXPECT_EQ(plane_allocation_count(), allocs_before);
  s = pool.stats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.pool_hits, 1u);
  EXPECT_EQ(s.fresh_allocs, 1u);
  EXPECT_EQ(s.retained_bytes, 0u);
  expect_balanced(pool);
}

TEST(PlanePoolTest, RecycledPlanesAreZeroFilledBitIdentical) {
  PlanePool pool;
  {
    PooledPlane dirty = pool.acquire(16, 16, 1);
    Rng rng(7);
    for (float& v : dirty.samples()) v = static_cast<float>(rng.uniform());
  }
  PooledPlane recycled = pool.acquire(16, 16, 1);
  ASSERT_EQ(pool.stats().pool_hits, 1u); // really the same buffer
  const ImageF fresh(16, 16, 1);         // value-initialised reference
  const auto a = recycled.samples();
  const auto b = fresh.samples();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(PlanePoolTest, GeometryKeyIsolation) {
  PlanePool pool;
  { PooledPlane a = pool.acquire(8, 8, 1); } // retain 64 samples
  // A different sample count never reuses the retained buffer — keys are
  // exact, smaller requests don't carve up bigger buffers.
  PooledPlane smaller = pool.acquire(4, 4, 1);
  PooledPlane bigger = pool.acquire(16, 16, 1);
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.pool_hits, 0u);
  EXPECT_EQ(s.fresh_allocs, 3u);
  EXPECT_EQ(s.retained_bytes, plane_bytes(8, 8, 1)); // still retained
  expect_balanced(pool);
}

TEST(PlanePoolTest, LruEvictionUnderRetainedBytesBound) {
  // Bound holds the first two returns exactly; the third (a distinct
  // sample count, so no reuse can intervene) forces the
  // least-recently-returned buffer out.
  PlanePool pool(plane_bytes(4, 4, 1) + plane_bytes(8, 4, 1));
  { PooledPlane a = pool.acquire(4, 4, 1); } // returned first -> oldest
  { PooledPlane b = pool.acquire(8, 4, 1); }
  { PooledPlane c = pool.acquire(4, 2, 1); } // overflow -> evicts a's buffer
  PoolStats s = pool.stats();
  EXPECT_EQ(s.returned, 3u);
  EXPECT_EQ(s.evicted, 1u);
  EXPECT_EQ(s.retained_bytes,
            plane_bytes(8, 4, 1) + plane_bytes(4, 2, 1));

  // The survivor set is exactly the two most recently returned geometries.
  PooledPlane b2 = pool.acquire(8, 4, 1);
  PooledPlane c2 = pool.acquire(4, 2, 1);
  PooledPlane a2 = pool.acquire(4, 4, 1); // the evicted one -> fresh
  s = pool.stats();
  EXPECT_EQ(s.pool_hits, 2u);
  EXPECT_EQ(s.fresh_allocs, 4u);
  expect_balanced(pool);
}

TEST(PlanePoolTest, OversizeReturnIsDroppedNotRetained) {
  PlanePool pool(plane_bytes(4, 4, 1)); // 64-byte bound
  { PooledPlane big = pool.acquire(32, 32, 1); }
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.returned, 1u);
  EXPECT_EQ(s.evicted, 1u);
  EXPECT_EQ(s.retained_bytes, 0u);
}

TEST(PlanePoolTest, TrimDropsEverythingPoolStaysUsable) {
  PlanePool pool;
  { PooledPlane a = pool.acquire(8, 8, 1); }
  { PooledPlane b = pool.acquire(4, 4, 1); }
  ASSERT_GT(pool.stats().retained_bytes, 0u);
  pool.trim();
  PoolStats s = pool.stats();
  EXPECT_EQ(s.retained_bytes, 0u);
  EXPECT_EQ(s.evicted, 2u);
  { PooledPlane c = pool.acquire(8, 8, 1); } // fresh again, then retained
  s = pool.stats();
  EXPECT_EQ(s.fresh_allocs, 3u);
  EXPECT_EQ(s.retained_bytes, plane_bytes(8, 8, 1));
  expect_balanced(pool);
}

TEST(PlanePoolTest, ScopeRoutesPlainImageFConstruction) {
  PlanePool pool;
  {
    const PlanePool::Scope scope(pool);
    { ImageF a(12, 5, 3); } // plain constructor, pooled via the hook
    const ImageF b(12, 5, 3);
    const PoolStats s = pool.stats();
    EXPECT_EQ(s.acquires, 2u);
    EXPECT_EQ(s.pool_hits, 1u);
    EXPECT_EQ(s.fresh_allocs, 1u);
  }
  // Outside the scope construction is unpooled again.
  const std::uint64_t acquires_before = pool.stats().acquires;
  { ImageF c(12, 5, 3); }
  EXPECT_EQ(pool.stats().acquires, acquires_before);
}

TEST(PlanePoolTest, NullScopeLeavesThreadUnpooled) {
  const PlanePool::Scope scope(static_cast<PlanePool*>(nullptr));
  const std::uint64_t before = plane_allocation_count();
  { ImageF a(8, 8, 1); }
  { ImageF b(8, 8, 1); }
  EXPECT_EQ(plane_allocation_count(), before + 2); // every one fresh
}

TEST(PlanePoolTest, CopyAndMoveKeepTheBalance) {
  PlanePool pool;
  {
    const PlanePool::Scope scope(pool);
    ImageF a(8, 8, 1);
    ImageF copy = a;             // second pooled acquisition
    ImageF moved = std::move(a); // steals a's buffer, no acquisition
    ImageF other(4, 4, 1);
    other = std::move(moved); // other's old buffer returns here
    EXPECT_EQ(pool.stats().returned, 1u);
  }
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.acquires, 3u); // a, copy, other — never the moves
  EXPECT_EQ(s.returned, 3u); // every acquired buffer came home
  expect_balanced(pool);
}

TEST(PlanePoolTest, CrossThreadReturnRejoinsTheFreeList) {
  PlanePool pool;
  PooledPlane plane = pool.acquire(32, 8, 1);
  std::thread reaper([p = std::move(plane)]() mutable {
    p = ImageF(); // dies on this thread; the buffer must still return
  });
  reaper.join();
  EXPECT_EQ(pool.stats().returned, 1u);
  PooledPlane again = pool.acquire(32, 8, 1);
  EXPECT_EQ(pool.stats().pool_hits, 1u);
}

TEST(PlanePoolTest, ConcurrentAcquireReleaseHammer) {
  // The TSan target: many threads churning acquires and cross-geometry
  // returns against one pool. Correctness here is the exact counter
  // balance after the dust settles — every plane died, so every
  // acquisition has a matching return.
  PlanePool pool(64 * 1024); // small bound so eviction races too
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      const PlanePool::Scope scope(pool);
      for (int i = 0; i < kIters; ++i) {
        // A few distinct geometries per thread, overlapping across
        // threads so free lists are genuinely shared.
        const int w = 8 + 4 * ((t + i) % 3);
        ImageF a(w, 8, 1);
        ImageF b(8, 8, (i % 2) + 1);
        a.at_unchecked(0, 0) = static_cast<float>(i); // dirty the buffer
        ImageF c = std::move(a); // churn moves under the scope too
      }
    });
  }
  for (auto& th : threads) th.join();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.acquires, s.pool_hits + s.fresh_allocs);
  EXPECT_EQ(s.acquires, static_cast<std::uint64_t>(kThreads) * kIters * 2);
  EXPECT_EQ(s.returned, s.acquires); // all planes dead
  EXPECT_LE(s.retained_bytes, pool.max_retained_bytes());
}

TEST(PlanePoolTest, LateReturnAfterPoolDestructionIsSafe) {
  PooledPlane survivor;
  {
    PlanePool pool;
    survivor = pool.acquire(16, 16, 1);
  } // pool gone; survivor still holds pool-bound storage
  EXPECT_EQ(survivor.width(), 16);
  survivor = ImageF(); // late return: freed, not retained — must not crash
}

TEST(PlanePoolTest, ExceptionPathReturnsEveryPlane) {
  // RAII under a pure exception path first, fully deterministic: the
  // normalize wrapper allocates its pooled destination, then the stage
  // throws (all-zero frame has no positive sample) — unwinding must hand
  // the plane straight back.
  {
    PlanePool pool;
    const PlanePool::Scope scope(pool);
    const ImageF dark = [] {
      const detail::ScopedRecycler off(nullptr); // really unpooled (a
      return ImageF(6, 6, 3); // Scope(nullptr) would keep the ambient pool)
    }();
    tonemap::PipelineOptions opt;
    EXPECT_THROW(tonemap::stages::normalize(dark, opt), Error);
    const PoolStats s = pool.stats();
    EXPECT_EQ(s.acquires, 1u);  // the wrapper's destination plane
    EXPECT_EQ(s.returned, 1u);  // returned during unwinding
  }

  // Then through the real service: a job that fails mid-pipeline (the
  // staged route allocates its normalized plane, then finds a dark frame
  // has no positive sample) must not strand a plane either. The worker's
  // stage locals die shortly AFTER the future resolves, so the exact
  // balance is polled briefly.
  serve::ToneMapServiceOptions so;
  so.shards = 1;
  serve::ToneMapService service(so);

  Rng rng(11);
  img::ImageF frame(31, 17, 3);
  for (float& v : frame.samples()) {
    v = static_cast<float>(rng.uniform() * 50.0 + 1e-3);
  }
  tonemap::PipelineOptions opt;
  opt.sigma = 1.5;
  opt.radius = 4;
  opt.backend = "separable_float";

  serve::FrameJob job;
  job.frame = img::ImageF(31, 17, 3); // all zero: carries no light
  job.options = opt;
  auto failed = service.submit(std::move(job));
  EXPECT_THROW(failed.get(), InvalidArgument);

  // A healthy job afterwards reuses what the failed one returned.
  serve::FrameJob retry;
  retry.frame = frame;
  retry.options = opt;
  serve::FrameResult ok = service.submit(std::move(retry)).get();
  EXPECT_FALSE(ok.output.empty());
  ok = serve::FrameResult{}; // release the delivered plane too

  PoolStats after = service.pool_stats();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (after.returned != after.acquires &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after = service.pool_stats();
  }
  EXPECT_EQ(after.acquires, after.pool_hits + after.fresh_allocs);
  EXPECT_GT(after.pool_hits, 0u);            // the retry really recycled
  EXPECT_EQ(after.returned, after.acquires); // nothing stranded
}

} // namespace
} // namespace tmhls::img
