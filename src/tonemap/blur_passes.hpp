// Row primitives of the separable Gaussian blur, used by the golden
// models and the fused streaming engine's halo-recomputing row bands.
//
// Each pass processes output rows [y_begin, y_end) with clamp-to-edge
// borders and accumulates taps in ascending order (i = 0..taps-1) — the
// identical floating-point / fixed-point operation sequence of the golden
// models in blur.cpp, which is what makes band-parallel execution
// bit-identical to the single-threaded forms.
//
// The scalar horizontal pass splits every row into border columns (where
// a tap window runs off the image and clamps) and an interior (where it
// never does), so the interior loop carries no per-pixel clamp branch.
// The SIMD horizontal pass needs no border code at all: clamp-to-edge is
// edge replication, so it reads a row padded by `radius` copies of the
// edge samples on each side (replicate_edges) and runs the clamp-free
// interior over every column — each tap reads the very sample the clamp
// would have picked.
//
// The SIMD row passes (*_simd, what fused_stream runs) vectorize *across
// output pixels* (x), not across taps: lane l of the vector accumulator
// carries pixel x+l through the same ascending tap sequence as the scalar
// form, so every lane performs the scalar computation verbatim — no
// reassociation — and the output is bit-identical to the scalar passes.
// They dispatch once at runtime to the widest build the CPU has — 4, 8 or
// 16 lanes (detail::BlurRowKernels) — and every build computes the same
// bits.
#pragma once

#include <cstdint>
#include <vector>

#include "image/image.hpp"
#include "tonemap/blur.hpp"
#include "tonemap/kernel.hpp"

namespace tmhls::tonemap {

namespace detail {

/// Clamp-to-edge sample index — the one border rule every pass applies.
inline int clamp_index(int v, int limit) {
  return v < 0 ? 0 : (v >= limit ? limit - 1 : v);
}

/// Validate a [y_begin, y_end) row range against an image height.
void check_range(int y_begin, int y_end, int height);

/// Scalar clamp-free horizontal taps for interior columns [x0, x1) of one
/// row (row[x - radius .. x + radius] must exist): the scalar pass's
/// interior and the SIMD row's sub-vector tail.
void hpass_float_interior(const float* row, float* out, const float* wts,
                          int taps, int radius, int x0, int x1);

/// Scalar vertical taps for columns [x0, x1) of one output row, reading
/// per-tap source-row pointers (vertical clamp already hoisted): the
/// scalar vertical pass's body and the SIMD row's sub-vector tail.
void vpass_float_columns(const float* const* rows, float* out,
                         const float* wts, int taps, int x0, int x1);

/// The SIMD row passes compiled for one instruction set. Every table
/// computes the scalar passes' bits; the public *_row_simd functions run
/// the widest one the CPU has.
struct BlurRowKernels {
  int lanes; ///< output pixels per vector
  void (*hpass)(const float* padded, float* out, const float* wts, int taps,
                int width);
  void (*vpass)(const float* const* rows, float* out, const float* wts,
                int taps, int width);
  void (*vpass_block)(const float* const* rows, float* const* out,
                      const float* wts, int taps, int width);
};

/// Portable 4-lane generic-vector build (SSE2 / NEON registers).
const BlurRowKernels& blur_row_kernels_generic();

/// The same source compiled 8 lanes wide for AVX2; nullptr when the build
/// target is not x86-64 or the CPU lacks AVX2.
const BlurRowKernels* blur_row_kernels_avx2();

/// The same source compiled 16 lanes wide for AVX-512F; nullptr when the
/// build target is not x86-64 or the CPU lacks AVX-512F.
const BlurRowKernels* blur_row_kernels_avx512();

} // namespace detail

/// Horizontal pass over ONE row of `width` pixels: the border / interior /
/// border column split of blur_hpass_float_rows applied to a raw row span.
/// The golden form the SIMD row pass (what the fused streaming engine feeds
/// its line buffer with) must match bit for bit.
void hpass_float_row(const float* row, float* out, const float* wts, int taps,
                     int radius, int width);

/// Fill the `radius` samples on each side of a padded row with copies of
/// its edge samples: padded[radius, radius + width) holds the row; after
/// the call padded[0, radius) repeats padded[radius] and
/// padded[radius + width, width + 2 * radius) repeats its last sample.
void replicate_edges(float* padded, int radius, int width);

/// SIMD variant of hpass_float_row over a row padded by replicate_edges:
/// out[x] = sum over i of wts[i] * padded[x + i], for x in [0, width),
/// reading width + taps - 1 samples. Bit-identical to hpass_float_row on
/// the unpadded row.
void hpass_float_row_simd(const float* padded, float* out, const float* wts,
                          int taps, int width);

/// Vertical taps of ONE output row over per-tap source-row pointers (the
/// caller hoists the vertical clamp into `rows`, exactly as the row-range
/// pass does).
void vpass_float_row(const float* const* rows, float* out, const float* wts,
                     int taps, int width);

/// SIMD variant of vpass_float_row; bit-identical to it.
void vpass_float_row_simd(const float* const* rows, float* out,
                          const float* wts, int taps, int width);

/// Output rows per call of vpass_float_row_block_simd. The vertical pass is
/// bound by cache traffic, not arithmetic: a block of rows shares each
/// source-vector load, and four rows measured faster than two.
inline constexpr int kVpassBlockRows = 4;

/// kVpassBlockRows consecutive output rows of the SIMD vertical pass over
/// taps + kVpassBlockRows - 1 source-row pointers: out[r] reads
/// rows[r, r + taps). Each source vector is loaded once for every row;
/// bit-identical to one vpass_float_row call per output row.
void vpass_float_row_block_simd(const float* const* rows, float* const* out,
                                const float* wts, int taps, int width);

/// Output pixels per vector of the SIMD row build the dispatcher picked.
int blur_row_simd_lanes();

/// Horizontal pass over rows [y_begin, y_end): dst(x, y) = sum of taps over
/// src(clamp(x - radius + i), y). Reads only rows in the range (row-local).
void blur_hpass_float_rows(const img::ImageF& src, img::ImageF& dst,
                           const GaussianKernel& kernel, int y_begin,
                           int y_end);

/// Vertical pass over rows [y_begin, y_end): dst(x, y) = sum of taps over
/// tmp(x, clamp(y - radius + i)). Reads up to `radius` halo rows of `tmp`
/// beyond the range on each side — the band's halo exchange.
void blur_vpass_float_rows(const img::ImageF& tmp, img::ImageF& dst,
                           const GaussianKernel& kernel, int y_begin,
                           int y_end);

/// Precomputed state of one fixed-point blur invocation: quantised kernel
/// ROM plus the datapath's MAC/requantisation rules, matching the
/// ap_fixed-accumulator model of blur_streaming_fixed exactly.
class FixedBlurPlan {
public:
  FixedBlurPlan(const GaussianKernel& kernel, const FixedBlurConfig& cfg);

  const FixedBlurConfig& config() const { return cfg_; }
  int taps() const { return static_cast<int>(weights_.size()); }
  int radius() const { return radius_; }
  const std::vector<std::int64_t>& weights() const { return weights_; }

  /// One MAC: full-precision product, requantised into the accumulator
  /// format, added with the accumulator's overflow rule.
  std::int64_t mac(std::int64_t acc, std::int64_t wraw,
                   std::int64_t xraw) const;

  /// Accumulator -> data-format output register.
  std::int64_t acc_to_data(std::int64_t acc) const;

  /// Quantise samples of rows [y_begin, y_end) of a 1-channel image into
  /// `dst` (sized width * height), the float-to-fixed boundary conversion.
  void quantise_rows(const img::ImageF& src, std::vector<std::int64_t>& dst,
                     int y_begin, int y_end) const;

  /// Exact float value of a data-format raw pattern.
  float to_float(std::int64_t raw) const;

private:
  FixedBlurConfig cfg_;
  int radius_;
  int prod_shift_;
  std::vector<std::int64_t> weights_;
};

} // namespace tmhls::tonemap
