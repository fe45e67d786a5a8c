// The fused sliding-window tone-map engine — the host-side mirror of the
// paper's HLS dataflow pipeline, where pixels stream through every stage
// without intermediate planes ever being materialized in DRAM (§III.B:
// "local data buffers using memory blocks inside the FPGA"). Two entry
// points:
//
//   blur_fused_stream() — the mask blur alone as one sliding-window pass:
//       a ring buffer of taps + 3 horizontally blurred rows (the line
//       buffer) is filled as input rows arrive, and once the vertical
//       windows of a block of four output rows are resident the vertical
//       pass emits them together, loading each line-buffer vector once for
//       all four (kVpassBlockRows; the rows a whole block does not fill go
//       one at a time). No full-frame intermediate plane exists; the
//       working set is (taps + 3) x width floats (the BRAM line buffer, on
//       the host's cache). This is what the `fused_stream` execution
//       backend runs.
//
//   tone_map_fused() — the whole five-stage pipeline (normalize ->
//       intensity -> mask blur -> masking -> adjust) in one pass per
//       frame: each input row is normalized, display-encoded, reduced to
//       its luminance, horizontally blurred into the line buffer, and as
//       soon as a row block's blur windows are complete the vertical pass
//       + masking + adjustment emit it. Only the normalized rows a block
//       still has to mask (radius + 4 of them) and the blur line buffer
//       are retained — the plane-at-a-time pipeline touches every
//       pixel ~7 times through DRAM-sized planes; this touches the input
//       and output once each.
//
// Bit-identity: both forms reuse the row primitives of blur_passes (same
// ascending-tap accumulation, clamp-to-edge as edge replication, SIMD
// vectorized across pixels) and the row-span stage helpers of
// operators/image, so every sample goes through the identical
// floating-point operation sequence as the plane-at-a-time reference —
// the output is blur_separable_float's / tone_map()'s bit for bit, at
// every thread count.
//
// Multi-threading: row bands, one round per frame (exec::run_bands): band 0
// on the caller, the others on threads spawned once for the frame, and a
// one-band frame on the caller alone, with no spawn, barrier or latch. In
// that one round tone_map_fused's bands first reduce their own rows to a
// band max and meet at the round's barrier, where the frame max is folded
// (max is order-insensitive, so the scale has the bits of one serial
// pass). Then each band computes the front of every one of its own rows
// exactly once: its bottom `radius` rows first, which it publishes behind
// the latch of the boundary below, then the rest top-down, publishing its
// top `radius` rows behind the latch above as soon as they are in. A
// neighbour's vertical windows read the published rows instead of
// recomputing them — halo exchange, the other side of the
// overlapped-tiling trade the Halide/HWTool line of work makes. A row's
// value does not depend on which band computes it, so the output has the
// same bits at every band count. A band's working set stays
// O(radius x width): the line buffer, its published rows, and the
// normalized values of its bottom rows until it emits them. Bands are at
// least `radius` rows thick (exec::band_count), so every halo row a band
// reads comes from one of its two neighbours.
#pragma once

#include "image/image.hpp"
#include "tonemap/kernel.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::tonemap {

/// Fused sliding-window Gaussian blur of a 1-channel plane; bit-identical
/// to blur_separable_float for every geometry, radius and `threads` >= 1.
/// Runs on exec::band_count(threads, rows, radius) bands; thread-spawn
/// resource exhaustion falls back to one band on the caller.
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
/// comment), on exec::band_count(opt.threads, rows, radius) halo-exchanging
/// row bands, one thread each. Honours opt's
/// kernel, display_gamma, normalization_scale and brightness/contrast;
/// opt's backend/datapath fields are NOT consulted — this IS the
/// fused_stream float engine. 1..4 channel input, like tone_map().
FusedToneMapResult tone_map_fused(const img::ImageF& hdr,
                                  const PipelineOptions& opt = {});

} // namespace tmhls::tonemap
