// Row-band decomposition for the multi-threaded fused engine — the same
// restructuring discipline §III.B applies to the FPGA (decompose the 2D
// problem so every worker touches a bounded local window) applied to the
// host CPU.
//
// A multi-band frame runs as one round (run_bands): band 0 on the caller,
// every other band on a thread spawned once for the frame. Bands meet at
// most at the round's one barrier (tonemap::tone_map_fused's frame max) and
// at the latch of each boundary they share with a neighbour, behind which
// each band publishes the halo rows it computed once for both sides
// (tonemap::blur_fused_stream, tonemap::tone_map_fused). Every wait is
// cancellable: a band that throws, or a band thread that fails to spawn,
// cancels the round, so no band stays parked waiting for one that will
// never arrive.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <vector>

namespace tmhls::exec {

/// Upper bound on worker threads (bands) per frame decomposition, whatever
/// the caller asks for: beyond this, thread-spawn resource exhaustion
/// becomes a real failure mode.
inline constexpr int kMaxTiledBands = 64;

/// Number of row bands a frame of `rows` rows runs on for `threads`
/// requested threads, when every band must be at least `halo` rows thick
/// (the halo rows a band reads then all come from its two neighbours):
/// min(threads, rows / halo, kMaxTiledBands), and at least 1.
int band_count(int threads, int rows, int halo);

/// Row range [begin, end) of band `band` out of `bands` over `rows` rows:
/// contiguous, balanced to within one row.
struct RowBand {
  int begin = 0;
  int end = 0;
};
RowBand row_band(int rows, int bands, int band);

/// The synchronisation of one multi-band round: one barrier and one latch
/// per boundary between neighbouring bands. Waits return once the round
/// is cancelled, by throwing an exception run_bands swallows.
class BandRound {
public:
  explicit BandRound(int bands);
  BandRound(const BandRound&) = delete;
  BandRound& operator=(const BandRound&) = delete;

  /// The round's barrier; each band arrives at most once, and either
  /// every band arrives or none does. The last band to arrive runs `last`
  /// before any band is released.
  void arrive_and_wait(const std::function<void()>& last);

  /// Latch `boundary` sits between bands `boundary` and `boundary + 1`,
  /// and opens once each of the two has arrived (once each).
  void arrive(int boundary);
  void wait(int boundary);

private:
  friend bool run_bands(int, const std::function<void(int, BandRound&)>&);
  void cancel();

  std::mutex mutex_;
  std::condition_variable changed_;
  int bands_;
  int arrived_ = 0;
  bool released_ = false;
  std::vector<int> latches_;
  bool cancelled_ = false;
};

/// Run `work(band, round)` for every band of a `bands`-band round: band 0
/// on the caller, the others on threads spawned for this call. Returns
/// false if a band thread could not be spawned: the round is then
/// cancelled, the started bands have exited, and outputs are invalid —
/// the caller must redo the frame (e.g. as one band). Otherwise the first
/// exception thrown by any band is rethrown here, after every band has
/// returned.
bool run_bands(int bands, const std::function<void(int, BandRound&)>& work);

} // namespace tmhls::exec
