// The fused sliding-window tone-map engine — the host-side mirror of the
// paper's HLS dataflow pipeline, where pixels stream through every stage
// without intermediate planes ever being materialized in DRAM (§III.B:
// "local data buffers using memory blocks inside the FPGA"). Two entry
// points:
//
//   blur_fused_stream() — the mask blur alone as one sliding-window pass:
//       a ring buffer of `taps` horizontally blurred rows (the line
//       buffer) is filled as input rows arrive, and once a row's vertical
//       window is resident the vertical pass emits the finished output
//       row. No full-frame intermediate plane exists; the working set is
//       taps x width floats (the BRAM line buffer, on the host's cache).
//       This is what the registered `fused_stream` execution backend runs.
//
//   tone_map_fused() — the whole five-stage pipeline (normalize ->
//       intensity -> mask blur -> masking -> adjust) in one pass per
//       frame: each input row is normalized, display-encoded, reduced to
//       its luminance, horizontally blurred into the line buffer, and as
//       soon as an output row's blur window is complete the vertical pass
//       + masking + adjustment emit it. Only the normalized rows still
//       inside the masking window (radius + 1 of them) and the blur line
//       buffer are retained — the plane-at-a-time pipeline touches every
//       pixel ~7 times through DRAM-sized planes; this touches the input
//       and output once each.
//
// Bit-identity: both forms reuse the row primitives of blur_passes (same
// ascending-tap accumulation, same border split, SIMD vectorized across
// pixels) and the row-span stage helpers of operators/image, so every
// sample goes through the identical floating-point operation sequence as
// the plane-at-a-time reference — the output is blur_separable_float's /
// tone_map()'s bit for bit, at every thread count.
//
// Multi-threading: row-band decomposition (exec::run_independent_bands)
// with no inter-band halo exchange — each band primes its own line buffer with
// up to `radius` halo rows beyond its edges (recomputing their horizontal
// blur, the overlapped-tiling trade the Halide/HWTool line of work makes
// for the same reason: recomputation is cheaper than synchronising
// intermediate state). Bands are fully independent, so bit-identity across
// thread counts is by construction rather than by barrier discipline.
#pragma once

#include "image/image.hpp"
#include "tonemap/kernel.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::tonemap {

/// Fused sliding-window Gaussian blur of a 1-channel plane; bit-identical
/// to blur_separable_float for every geometry, radius and `threads` >= 1.
/// The worker count is clamped to the row count and exec::kMaxTiledBands;
/// thread-spawn resource exhaustion falls back to single-threaded.
img::ImageF blur_fused_stream(const img::ImageF& src,
                              const GaussianKernel& kernel, int threads = 1);

/// What tone_map_fused returns: the fused pipeline never materializes the
/// intermediate planes a PipelineResult carries, which is the point.
struct FusedToneMapResult {
  /// Final display-referred image in [0, 1]; bit-identical to
  /// tone_map(hdr, opt).output for any float-datapath configuration.
  img::ImageF output;
  /// Normalisation scale that was applied (PipelineResult::input_max).
  float input_max = 0.0f;
};

/// The five-stage pipeline in one streaming pass per frame (see the file
/// comment), on opt.threads row bands. Honours opt's kernel, display_gamma,
/// normalization_scale and brightness/contrast; opt's backend/datapath
/// fields are NOT consulted — this IS the fused_stream float engine. 1..4
/// channel input, like tone_map().
FusedToneMapResult tone_map_fused(const img::ImageF& hdr,
                                  const PipelineOptions& opt = {});

/// As above on `bands` halo-recomputing row bands, one thread each
/// (clamped to the row count and exec::kMaxTiledBands), instead of
/// opt.threads — how FrameEngine runs an ExecutionPlan's band count.
FusedToneMapResult tone_map_fused(const img::ImageF& hdr,
                                  const PipelineOptions& opt, int bands);

} // namespace tmhls::tonemap
