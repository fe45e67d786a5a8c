// img::PlanePool — a thread-safe, geometry-keyed arena of recycled ImageF
// plane buffers, the software analogue of the paper's BRAM line-buffer
// discipline: the FPGA pipeline never re-fetches a full-frame intermediate
// from DRAM, and a warm serving stack should never re-allocate one from
// the heap. Allocation + memcpy dominate a 1024x768 float job once the
// blur is SIMD-fast (ROADMAP "Zero-copy frame memory"); this layer removes
// the allocation half.
//
// How it plugs in: Image<float> routes its storage acquisition through a
// per-thread recycler hook (see the detail:: declarations in image.hpp).
// A thread with a PlanePool::Scope installed satisfies every ImageF
// construction from the pool's free lists when a buffer of the exact
// geometry (sample count) is retained, allocating fresh only on a miss —
// and every such plane carries a shared_ptr to the pool's recycler, so
// its buffer returns to the pool when the plane dies, from ANY thread,
// even after the PlanePool itself is gone (the recycler outlives the pool
// exactly as long as planes still reference it; late returns are freed,
// not retained). Threads without a scope are untouched: they allocate and
// free planes exactly as before.
//
// Bit-identity is a hard invariant: recycled buffers are zero-filled on
// acquire, so a pooled ImageF is indistinguishable from a fresh
// value-initialised one. The pool changes where memory comes from, never
// what any pipeline computes. The one exception is asked for by name: an
// ImageF constructed with img::uninitialized skips the fill on recycled
// and fresh storage alike, for producers that write every sample (the
// wire decoder, the fused engine's output).
//
// Bounded retention: the pool retains at most `max_retained_bytes` of idle
// buffers, evicting least-recently-used ones (across all geometries) when
// a return would exceed the bound. PoolStats exposes the exact counter
// balance tests pin down: acquires == pool_hits + fresh_allocs, and every
// returned buffer is either retained (counted in retained_bytes) or
// evicted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/stats.hpp"
#include "image/image.hpp"

namespace tmhls::img {

/// Lifetime counters (and one gauge) of a PlanePool. Snapshot via
/// PlanePool::stats(); internally consistent (taken under one lock).
struct PoolStats {
  /// Plane acquisitions served by this pool (hits + fresh allocations).
  std::uint64_t acquires = 0;
  /// Acquisitions satisfied from a retained buffer (no heap allocation).
  std::uint64_t pool_hits = 0;
  /// Acquisitions that had to allocate a fresh buffer (cold geometry, or
  /// the matching free list was empty).
  std::uint64_t fresh_allocs = 0;
  /// Buffers handed back by dying planes (whether retained or dropped).
  std::uint64_t returned = 0;
  /// Returned buffers dropped instead of retained: LRU evictions under the
  /// retained-bytes bound, oversize returns, trim(), and returns arriving
  /// after the pool was destroyed.
  std::uint64_t evicted = 0;
  /// Gauge: bytes currently held in the free lists, always <= the bound.
  std::uint64_t retained_bytes = 0;
};

/// Flatten into the common reporting form (scope "pool").
common::StatsSnapshot snapshot(const PoolStats& stats);

namespace detail {

/// Install `recycler` (may be null) as the calling thread's plane
/// recycler for this object's lifetime; restores the previous recycler on
/// destruction. Most callers want PlanePool::Scope instead.
class ScopedRecycler {
public:
  explicit ScopedRecycler(RecyclerPtr recycler) noexcept;
  ~ScopedRecycler();

  ScopedRecycler(const ScopedRecycler&) = delete;
  ScopedRecycler& operator=(const ScopedRecycler&) = delete;

private:
  RecyclerPtr previous_;
};

} // namespace detail

/// An ImageF whose storage is bound to a pool: it IS the RAII handle — the
/// buffer returns to the pool's free lists when the image is destroyed
/// (or shrinks out of it by move-assignment). Spelled as an alias because
/// pooling is a property the hook gives every ImageF constructed under a
/// scope; PlanePool::acquire() names the explicit form.
using PooledPlane = ImageF;

/// The geometry-keyed plane arena. Thread-safe: acquire() and plane
/// returns may run concurrently from any threads.
class PlanePool {
public:
  /// Default retention bound: 256 MiB, ~85 full 1024x768 RGB float frames.
  static constexpr std::size_t kDefaultMaxRetainedBytes =
      std::size_t{256} << 20;

  explicit PlanePool(std::size_t max_retained_bytes = kDefaultMaxRetainedBytes);
  /// Drops every retained buffer. Planes still alive keep their storage
  /// and return it safely afterwards (freed on arrival, not retained).
  ~PlanePool();

  PlanePool(const PlanePool&) = delete;
  PlanePool& operator=(const PlanePool&) = delete;

  /// A zero-filled width x height x channels plane backed by this pool:
  /// a retained buffer of the exact geometry when one is free, a fresh
  /// allocation otherwise. Same validation as the ImageF constructor.
  PooledPlane acquire(int width, int height, int channels = 1);

  /// Counter snapshot (see PoolStats).
  PoolStats stats() const;

  /// Drop every retained buffer (counted evicted); the pool stays usable.
  void trim();

  std::size_t max_retained_bytes() const { return max_retained_bytes_; }

  /// RAII: installs this pool as the calling thread's plane recycler, so
  /// every ImageF the thread constructs in the scope is pool-backed.
  /// The pointer form accepts nullptr as "leave the thread's ambient
  /// recycler alone" — call sites with an optional pool stay branch-free.
  class Scope {
  public:
    explicit Scope(PlanePool& pool) : scoped_(std::in_place, pool.recycler_) {}
    explicit Scope(PlanePool* pool) {
      if (pool != nullptr) scoped_.emplace(pool->recycler_);
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    std::optional<detail::ScopedRecycler> scoped_;
  };

private:
  std::size_t max_retained_bytes_;
  detail::RecyclerPtr recycler_;
};

/// Process-wide count of fresh float-plane buffer allocations (pooled
/// misses and unpooled constructions alike; pool hits don't advance it).
/// The allocation-budget tests assert a warm steady-state job leaves this
/// counter unchanged. Monotonic; compare deltas, not absolute values.
std::uint64_t plane_allocation_count() noexcept;

} // namespace tmhls::img
