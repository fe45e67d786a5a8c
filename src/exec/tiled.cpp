#include "exec/tiled.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "common/error.hpp"
#include "common/fault_injection.hpp"

namespace tmhls::exec {

namespace {

/// Thrown out of a wait of a cancelled round; run_bands swallows it.
struct RoundCancelled {};

} // namespace

int band_count(int threads, int rows, int halo) {
  TMHLS_REQUIRE(threads >= 1, "fused stream: threads must be >= 1");
  TMHLS_REQUIRE(rows >= 0 && halo >= 1, "band_count: invalid frame");
  return std::max(1, std::min({threads, rows / halo, kMaxTiledBands}));
}

RowBand row_band(int rows, int bands, int band) {
  TMHLS_REQUIRE(rows >= 0 && bands >= 1 && band >= 0 && band < bands,
                "row_band: invalid decomposition");
  const int base = rows / bands;
  const int extra = rows % bands;
  RowBand r;
  r.begin = band * base + std::min(band, extra);
  r.end = r.begin + base + (band < extra ? 1 : 0);
  return r;
}

BandRound::BandRound(int bands)
    : bands_(bands), latches_(static_cast<std::size_t>(bands), 0) {}

void BandRound::arrive_and_wait(const std::function<void()>& last) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ < bands_) {
      changed_.wait(lock, [&] { return released_ || cancelled_; });
      if (!released_) throw RoundCancelled{};
      return;
    }
  }
  // Every other band is parked until the release below.
  last();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
  }
  changed_.notify_all();
}

void BandRound::arrive(int boundary) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++latches_[static_cast<std::size_t>(boundary)];
  }
  changed_.notify_all();
}

void BandRound::wait(int boundary) {
  std::unique_lock<std::mutex> lock(mutex_);
  const int& latch = latches_[static_cast<std::size_t>(boundary)];
  changed_.wait(lock, [&] { return latch == 2 || cancelled_; });
  if (latch != 2) throw RoundCancelled{};
}

void BandRound::cancel() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    cancelled_ = true;
  }
  changed_.notify_all();
}

bool run_bands(int bands, const std::function<void(int, BandRound&)>& work) {
  TMHLS_REQUIRE(bands >= 1, "run_bands: bands must be >= 1");
  BandRound round(bands);
  std::exception_ptr failure;
  std::mutex failure_mutex;

  auto guarded = [&](int band) {
    try {
      work(band, round);
    } catch (const RoundCancelled&) {
      // Another band failed first; its exception is the one reported.
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (!failure) failure = std::current_exception();
      }
      round.cancel();
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(bands - 1));
  try {
    for (int b = 1; b < bands; ++b) {
      // Fault site "exec.bands.spawn": a fault here stands in for a band
      // thread that fails to spawn after the ones before it started.
      fault::inject("exec.bands.spawn");
      workers.emplace_back(guarded, b);
    }
  } catch (...) {
    // The started bands would wait for the missing ones forever: release
    // them, let them exit, and hand the frame back to the caller.
    round.cancel();
    for (std::thread& t : workers) t.join();
    return false;
  }
  guarded(0);
  for (std::thread& t : workers) t.join();
  if (failure) std::rethrow_exception(failure);
  return true;
}

} // namespace tmhls::exec
