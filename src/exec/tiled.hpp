// Row-band decomposition for the multi-threaded fused engine — the same
// restructuring discipline §III.B applies to the FPGA (decompose the 2D
// problem so every worker touches a bounded local window) applied to the
// host CPU.
//
// Each worker owns a contiguous band of output rows and recomputes the
// `radius` halo rows beyond its edges instead of exchanging them, so bands
// share no intermediate state and need no barrier: output is bit-identical
// for every band count by construction (tonemap::blur_fused_stream,
// tonemap::tone_map_fused).
#pragma once

#include <functional>

namespace tmhls::exec {

/// Upper bound on worker threads (bands) per frame decomposition, whatever
/// the caller asks for: beyond this, bands are thinner than their halo is
/// worth and thread-spawn resource exhaustion becomes a real failure mode.
inline constexpr int kMaxTiledBands = 64;

/// Run `work(band)` on `bands` independent worker threads, spawned per
/// call. Returns false if thread spawning was cut short by resource
/// exhaustion — outputs are then invalid and the caller must redo the work
/// (e.g. single-threaded). Otherwise the first exception thrown by any
/// worker is rethrown here.
bool run_independent_bands(int bands, const std::function<void(int)>& work);

/// Row range [begin, end) of band `band` out of `bands` over `rows` rows:
/// contiguous, balanced to within one row. Exposed for tests.
struct RowBand {
  int begin = 0;
  int end = 0;
};
RowBand row_band(int rows, int bands, int band);

} // namespace tmhls::exec
