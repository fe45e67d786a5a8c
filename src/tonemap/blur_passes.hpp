// Row primitives of the separable Gaussian blur, used by the golden
// models, the vectorized separable_simd backend and the fused streaming
// engine's halo-recomputing row bands.
//
// Each pass processes output rows [y_begin, y_end) with clamp-to-edge
// borders and accumulates taps in ascending order (i = 0..taps-1) — the
// identical floating-point / fixed-point operation sequence of the golden
// models in blur.cpp, which is what makes band-parallel execution
// bit-identical to the single-threaded forms.
//
// All passes split every row into border columns (where a tap window runs
// off the image and clamps) and an interior (where it never does): the
// interior loops carry no per-pixel clamp branch, which is what lets the
// scalar forms run branch-free and the SIMD forms vectorize. The border
// handling lives in one place (detail::*_border) shared by the scalar and
// SIMD variants.
//
// The SIMD variants vectorize *across output pixels* (x), not across taps:
// lane l of the vector accumulator carries pixel x+l through the same
// ascending tap sequence as the scalar form, so every lane performs the
// scalar computation verbatim — no reassociation — and the output is
// bit-identical to the scalar passes for any lane width.
#pragma once

#include <cstdint>
#include <vector>

#include "image/image.hpp"
#include "tonemap/blur.hpp"
#include "tonemap/kernel.hpp"

namespace tmhls::tonemap {

/// Lane widths the SIMD pass primitives are compiled for.
inline constexpr int kSimdLanes4 = 4;
inline constexpr int kSimdLanes8 = 8;
/// Default lane width (what the separable_simd backend reports and runs).
inline constexpr int kSimdDefaultLanes = kSimdLanes8;

namespace detail {

/// Clamp-to-edge sample index — the one border rule every pass applies.
inline int clamp_index(int v, int limit) {
  return v < 0 ? 0 : (v >= limit ? limit - 1 : v);
}

/// Validate a [y_begin, y_end) row range against an image height.
void check_range(int y_begin, int y_end, int height);

/// Column range [begin, end) whose full tap window [x-radius, x+radius]
/// stays inside a row of `width` pixels — the interior, where no clamping
/// is needed. Empty (begin == end) when width <= 2*radius.
struct ColumnRange {
  int begin = 0;
  int end = 0;
};
ColumnRange interior_columns(int width, int radius);

/// Clamped horizontal taps for border columns [x0, x1) of one row — the
/// single source of truth for border handling, shared by the scalar and
/// SIMD float passes (and exposed for the property tests).
void hpass_float_border(const float* row, float* out, const float* wts,
                        int taps, int radius, int width, int x0, int x1);

/// Scalar clamp-free horizontal taps for interior columns [x0, x1) of one
/// row: the scalar pass's interior and the SIMD pass's sub-vector tail.
void hpass_float_interior(const float* row, float* out, const float* wts,
                          int taps, int radius, int x0, int x1);

/// Scalar vertical taps for columns [x0, x1) of one output row, reading
/// per-tap source-row pointers (vertical clamp already hoisted): the
/// scalar vertical pass's body and the SIMD pass's sub-vector tail.
void vpass_float_columns(const float* const* rows, float* out,
                         const float* wts, int taps, int x0, int x1);

} // namespace detail

/// Horizontal pass over ONE row of `width` pixels: the border / interior /
/// border column split of blur_hpass_float_rows applied to a raw row span.
/// This is the row primitive the fused streaming engine (fused_stream.cpp)
/// feeds its line buffer with — sharing it with the row-range pass below is
/// what makes the fused path bit-identical to the plane-at-a-time forms.
void hpass_float_row(const float* row, float* out, const float* wts, int taps,
                     int radius, int width);

/// SIMD variant of hpass_float_row (vectorized interior, scalar tail);
/// bit-identical to it for any lane width.
void hpass_float_row_simd(const float* row, float* out, const float* wts,
                          int taps, int radius, int width,
                          int lanes = kSimdDefaultLanes);

/// Vertical taps of ONE output row over per-tap source-row pointers (the
/// caller hoists the vertical clamp into `rows`, exactly as the row-range
/// pass does).
void vpass_float_row(const float* const* rows, float* out, const float* wts,
                     int taps, int width);

/// SIMD variant of vpass_float_row; bit-identical to it.
void vpass_float_row_simd(const float* const* rows, float* out,
                          const float* wts, int taps, int width,
                          int lanes = kSimdDefaultLanes);

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

/// SIMD horizontal pass, vectorized across pixels; bit-identical to
/// blur_hpass_float_rows. `lanes` selects the compiled vector width
/// (kSimdLanes4 or kSimdLanes8).
void blur_hpass_float_rows_simd(const img::ImageF& src, img::ImageF& dst,
                                const GaussianKernel& kernel, int y_begin,
                                int y_end, int lanes = kSimdDefaultLanes);

/// SIMD vertical pass, vectorized across pixels; bit-identical to
/// blur_vpass_float_rows. Same halo contract as the scalar form.
void blur_vpass_float_rows_simd(const img::ImageF& tmp, img::ImageF& dst,
                                const GaussianKernel& kernel, int y_begin,
                                int y_end, int lanes = kSimdDefaultLanes);

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
