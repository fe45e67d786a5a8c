#include "exec/tiled.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace tmhls::exec {

bool run_independent_bands(int bands, const std::function<void(int)>& work) {
  TMHLS_REQUIRE(bands >= 1, "run_independent_bands: bands must be >= 1");
  std::exception_ptr failure;
  std::mutex failure_mutex;

  auto guarded = [&](int band) {
    try {
      work(band);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      if (!failure) failure = std::current_exception();
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(bands));
  try {
    for (int b = 0; b < bands; ++b) {
      workers.emplace_back(guarded, b);
    }
  } catch (const std::system_error&) {
    // The spawned workers just finish their (soon to be discarded) bands
    // and exit.
    for (std::thread& t : workers) t.join();
    return false;
  }
  for (std::thread& t : workers) t.join();
  if (failure) std::rethrow_exception(failure);
  return true;
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

} // namespace tmhls::exec
