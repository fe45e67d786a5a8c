#include "image/plane_pool.hpp"

#include <atomic>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <utility>

namespace tmhls::img {

common::StatsSnapshot snapshot(const PoolStats& stats) {
  common::StatsSnapshot out;
  out.scope = "pool";
  out.counter("acquires", stats.acquires);
  out.counter("pool_hits", stats.pool_hits);
  out.counter("fresh_allocs", stats.fresh_allocs);
  out.counter("returned", stats.returned);
  out.counter("evicted", stats.evicted);
  out.counter("retained_bytes", stats.retained_bytes);
  return out;
}

} // namespace tmhls::img

namespace tmhls::img {

namespace detail {

namespace {

/// Fresh float-plane buffer allocations, process-wide. Relaxed: the tests
/// that read it synchronise through the service/pipeline futures first.
std::atomic<std::uint64_t> g_plane_allocations{0};

/// The calling thread's installed recycler. A plain thread_local
/// shared_ptr: installation is a pointer swap, and the control block
/// keeps the shared state alive across thread teardown orderings.
thread_local RecyclerPtr t_recycler;

} // namespace

/// The shared free-list state one PlanePool's planes return to. Keyed by
/// exact sample count (one geometry maps to one key; distinct geometries
/// never serve each other's acquires — even when their byte sizes match,
/// a w*h*c product collision IS the same sample count, which is the only
/// property the storage has). LRU eviction is global across keys: every
/// retained buffer carries a monotonic stamp, and the globally oldest one
/// goes first when a return would exceed the retention bound.
class PlaneRecycler {
public:
  explicit PlaneRecycler(std::size_t max_retained_bytes)
      : max_retained_bytes_(max_retained_bytes) {}

  /// Pop a retained buffer of exactly `samples` floats, or report a miss
  /// (the caller then allocates fresh). The returned buffer is NOT yet
  /// zeroed — the caller zero-fills outside the lock.
  bool try_reuse(std::size_t samples, std::vector<float>& out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.acquires;
    auto it = free_.find(samples);
    if (it == free_.end() || it->second.empty()) {
      ++stats_.fresh_allocs;
      return false;
    }
    // Most-recently-returned first: the warmest buffer wins, and the
    // per-key deque stays sorted oldest-at-front for the LRU sweep.
    out = std::move(it->second.back().storage);
    it->second.pop_back();
    if (it->second.empty()) free_.erase(it);
    ++stats_.pool_hits;
    stats_.retained_bytes -= bytes_of(out);
    return true;
  }

  void release(std::vector<float>&& storage) noexcept {
    const std::size_t bytes = bytes_of(storage);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.returned;
    if (closed_ || bytes == 0 || bytes > max_retained_bytes_) {
      ++stats_.evicted;
      return; // dropped: `storage` frees on scope exit
    }
    try {
      free_[storage.size()].push_back(Retained{std::move(storage), ++clock_});
    } catch (...) {
      ++stats_.evicted; // free-list bookkeeping failed: drop the buffer
      return;
    }
    stats_.retained_bytes += bytes;
    while (stats_.retained_bytes > max_retained_bytes_) evict_oldest();
  }

  PoolStats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  /// Drop every retained buffer (each counted evicted).
  void trim() {
    const std::lock_guard<std::mutex> lock(mutex_);
    while (!free_.empty()) evict_oldest();
  }

  /// trim() + refuse retention from now on — the owning PlanePool is
  /// gone; planes still alive return their buffers to be freed.
  void close() {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    while (!free_.empty()) evict_oldest();
  }

private:
  struct Retained {
    std::vector<float> storage;
    std::uint64_t stamp = 0; ///< global LRU clock at return time
  };

  static std::size_t bytes_of(const std::vector<float>& storage) {
    return storage.capacity() * sizeof(float);
  }

  /// Drop the globally least-recently-returned buffer. Caller holds the
  /// lock and guarantees the free lists are non-empty.
  void evict_oldest() {
    auto oldest = free_.end();
    std::uint64_t oldest_stamp = std::numeric_limits<std::uint64_t>::max();
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      // Front is each key's oldest (returns append, reuse pops the back).
      if (it->second.front().stamp < oldest_stamp) {
        oldest_stamp = it->second.front().stamp;
        oldest = it;
      }
    }
    stats_.retained_bytes -= bytes_of(oldest->second.front().storage);
    ++stats_.evicted;
    oldest->second.pop_front();
    if (oldest->second.empty()) free_.erase(oldest);
  }

  mutable std::mutex mutex_;
  const std::size_t max_retained_bytes_;
  bool closed_ = false;
  std::uint64_t clock_ = 0;
  std::map<std::size_t, std::deque<Retained>> free_;
  PoolStats stats_;
};

AcquiredPlane acquire_plane(std::size_t samples) {
  if (samples == 0) return {};
  AcquiredPlane plane;
  plane.recycler = t_recycler;
  if (plane.recycler != nullptr &&
      plane.recycler->try_reuse(samples, plane.storage)) {
    // Zero-fill outside the pool lock: capacity already fits (exact-key
    // reuse), so assign() is a memset, never an allocation — which is
    // what makes a pooled plane bit-identical to a value-initialised one.
    plane.storage.assign(samples, 0.0f);
    return plane;
  }
  g_plane_allocations.fetch_add(1, std::memory_order_relaxed);
  plane.storage = std::vector<float>(samples);
  return plane;
}

void release_plane(const RecyclerPtr& recycler,
                   std::vector<float>&& storage) noexcept {
  recycler->release(std::move(storage));
}

ScopedRecycler::ScopedRecycler(RecyclerPtr recycler) noexcept
    : previous_(std::move(t_recycler)) {
  t_recycler = std::move(recycler);
}

ScopedRecycler::~ScopedRecycler() { t_recycler = std::move(previous_); }

} // namespace detail

PlanePool::PlanePool(std::size_t max_retained_bytes)
    : max_retained_bytes_(max_retained_bytes),
      recycler_(std::make_shared<detail::PlaneRecycler>(max_retained_bytes)) {}

PlanePool::~PlanePool() { recycler_->close(); }

PooledPlane PlanePool::acquire(int width, int height, int channels) {
  // Route through the thread hook so the one acquisition path serves both
  // the explicit API and ambient scoped construction.
  const detail::ScopedRecycler scope(recycler_);
  return ImageF(width, height, channels);
}

PoolStats PlanePool::stats() const { return recycler_->stats(); }

void PlanePool::trim() { recycler_->trim(); }

std::uint64_t plane_allocation_count() noexcept {
  return detail::g_plane_allocations.load(std::memory_order_relaxed);
}

} // namespace tmhls::img
