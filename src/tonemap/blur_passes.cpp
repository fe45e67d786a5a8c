#include "tonemap/blur_passes.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fixed/fixed_format.hpp"

namespace tmhls::tonemap {

namespace detail {

void check_range(int y_begin, int y_end, int height) {
  TMHLS_REQUIRE(y_begin >= 0 && y_begin <= y_end && y_end <= height,
                "blur pass: row range out of bounds");
}

void hpass_float_interior(const float* row, float* out, const float* wts,
                          int taps, int radius, int x0, int x1) {
  for (int x = x0; x < x1; ++x) {
    const float* base = row + (x - radius);
    float acc = 0.0f;
    for (int i = 0; i < taps; ++i) acc += wts[i] * base[i];
    out[x] = acc;
  }
}

void vpass_float_columns(const float* const* rows, float* out,
                         const float* wts, int taps, int x0, int x1) {
  for (int x = x0; x < x1; ++x) {
    float acc = 0.0f;
    for (int i = 0; i < taps; ++i) acc += wts[i] * rows[i][x];
    out[x] = acc;
  }
}

} // namespace detail

namespace {

/// Column range [begin, end) whose full tap window [x-radius, x+radius]
/// stays inside a row of `width` pixels — the interior, where no clamping
/// is needed. Empty (begin == end) when width <= 2*radius.
struct ColumnRange {
  int begin = 0;
  int end = 0;
};
ColumnRange interior_columns(int width, int radius) {
  ColumnRange r;
  r.begin = std::min(radius, width);
  r.end = std::max(r.begin, width - radius);
  return r;
}

/// Clamped horizontal taps for border columns [x0, x1) of one row.
void hpass_float_border(const float* row, float* out, const float* wts,
                        int taps, int radius, int width, int x0, int x1) {
  for (int x = x0; x < x1; ++x) {
    float acc = 0.0f;
    for (int i = 0; i < taps; ++i) {
      acc += wts[i] * row[detail::clamp_index(x - radius + i, width)];
    }
    out[x] = acc;
  }
}

} // namespace

void hpass_float_row(const float* row, float* out, const float* wts, int taps,
                     int radius, int width) {
  const ColumnRange in = interior_columns(width, radius);
  hpass_float_border(row, out, wts, taps, radius, width, 0, in.begin);
  // Interior: the tap window never leaves the row, so the taps read a
  // contiguous window with no clamp branch.
  detail::hpass_float_interior(row, out, wts, taps, radius, in.begin, in.end);
  hpass_float_border(row, out, wts, taps, radius, width, in.end, width);
}

void replicate_edges(float* padded, int radius, int width) {
  std::fill(padded, padded + radius, padded[radius]);
  std::fill(padded + radius + width, padded + width + 2 * radius,
            padded[radius + width - 1]);
}

void vpass_float_row(const float* const* rows, float* out, const float* wts,
                     int taps, int width) {
  detail::vpass_float_columns(rows, out, wts, taps, 0, width);
}

void blur_hpass_float_rows(const img::ImageF& src, img::ImageF& dst,
                           const GaussianKernel& kernel, int y_begin,
                           int y_end) {
  TMHLS_REQUIRE(src.channels() == 1, "blur expects a 1-channel image");
  TMHLS_REQUIRE(src.same_shape(dst), "blur pass: shape mismatch");
  detail::check_range(y_begin, y_end, src.height());
  const int w = src.width();
  const int radius = kernel.radius();
  const int taps = kernel.taps();
  const float* wts = kernel.weights().data();

  for (int y = y_begin; y < y_end; ++y) {
    hpass_float_row(&src.at_unchecked(0, y), &dst.at_unchecked(0, y), wts,
                    taps, radius, w);
  }
}

void blur_vpass_float_rows(const img::ImageF& tmp, img::ImageF& dst,
                           const GaussianKernel& kernel, int y_begin,
                           int y_end) {
  TMHLS_REQUIRE(tmp.channels() == 1, "blur expects a 1-channel image");
  TMHLS_REQUIRE(tmp.same_shape(dst), "blur pass: shape mismatch");
  detail::check_range(y_begin, y_end, tmp.height());
  const int w = tmp.width();
  const int h = tmp.height();
  const int radius = kernel.radius();
  const int taps = kernel.taps();
  const float* wts = kernel.weights().data();

  // The vertical clamp depends only on (y, i), never on x: hoist it out of
  // the pixel loop as per-tap source-row pointers.
  std::vector<const float*> rows(static_cast<std::size_t>(taps));
  for (int y = y_begin; y < y_end; ++y) {
    for (int i = 0; i < taps; ++i) {
      rows[static_cast<std::size_t>(i)] =
          &tmp.at_unchecked(0, detail::clamp_index(y - radius + i, h));
    }
    vpass_float_row(rows.data(), &dst.at_unchecked(0, y), wts, taps, w);
  }
}

FixedBlurPlan::FixedBlurPlan(const GaussianKernel& kernel,
                             const FixedBlurConfig& cfg)
    : cfg_(cfg), radius_(kernel.radius()),
      prod_shift_(2 * cfg.data.frac_bits() - cfg.accumulator.frac_bits()),
      weights_(kernel.quantised_weights(cfg.data)) {
  TMHLS_ASSERT(prod_shift_ >= 0, "accumulator wider than product precision");
}

std::int64_t FixedBlurPlan::mac(std::int64_t acc, std::int64_t wraw,
                                std::int64_t xraw) const {
  const fixed::FixedFormat& afmt = cfg_.accumulator;
  const std::int64_t prod = wraw * xraw;
  const std::int64_t prod_q =
      fixed::shift_right_round(prod, prod_shift_, afmt.round());
  return afmt.apply_overflow(acc + afmt.apply_overflow(prod_q));
}

std::int64_t FixedBlurPlan::acc_to_data(std::int64_t acc) const {
  const fixed::FixedFormat& dfmt = cfg_.data;
  const int shift = cfg_.accumulator.frac_bits() - dfmt.frac_bits();
  std::int64_t raw = acc;
  if (shift > 0) {
    raw = fixed::shift_right_round(acc, shift, dfmt.round());
  } else if (shift < 0) {
    raw = acc << (-shift);
  }
  return dfmt.apply_overflow(raw);
}

void FixedBlurPlan::quantise_rows(const img::ImageF& src,
                                  std::vector<std::int64_t>& dst, int y_begin,
                                  int y_end) const {
  TMHLS_REQUIRE(src.channels() == 1, "blur expects a 1-channel image");
  TMHLS_REQUIRE(dst.size() == src.pixel_count(),
                "quantise_rows: destination size mismatch");
  detail::check_range(y_begin, y_end, src.height());
  const int w = src.width();
  for (int y = y_begin; y < y_end; ++y) {
    for (int x = 0; x < w; ++x) {
      dst[static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
          static_cast<std::size_t>(x)] =
          cfg_.data.raw_from_double(
              static_cast<double>(src.at_unchecked(x, y)));
    }
  }
}

float FixedBlurPlan::to_float(std::int64_t raw) const {
  return static_cast<float>(cfg_.data.raw_to_double(raw));
}

} // namespace tmhls::tonemap
