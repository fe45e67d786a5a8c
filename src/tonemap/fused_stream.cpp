#include "tonemap/fused_stream.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "exec/tiled.hpp"
#include "tonemap/blur_passes.hpp"

namespace tmhls::tonemap {

namespace {

using detail::clamp_index;

/// The line buffer of the fused engine: a ring of `taps` horizontally
/// blurred rows. The slot of absolute source row ry is ry % taps — any
/// output row's vertical window spans a contiguous clamped row range of at
/// most `taps` rows, so the rows a window reads never collide in the ring,
/// and a row streamed in overwrites exactly the one that just left every
/// window. This is the §III.B circular line buffer with the modulo made
/// explicit (the hardware keeps a rotating head index instead; same rows,
/// same values).
class LineBuffer {
public:
  LineBuffer(int width, int taps)
      : width_(width), taps_(taps),
        rows_(static_cast<std::size_t>(width) *
              static_cast<std::size_t>(taps)) {}

  float* slot(int source_row) {
    return rows_.data() + static_cast<std::size_t>(source_row % taps_) *
                              static_cast<std::size_t>(width_);
  }
  const float* slot(int source_row) const {
    return rows_.data() + static_cast<std::size_t>(source_row % taps_) *
                              static_cast<std::size_t>(width_);
  }

  /// Per-tap row pointers of output row y's vertical window, clamp-to-edge
  /// over `height` source rows — the hoisted vertical clamp, exactly as the
  /// row-range vertical pass builds it.
  void window(int y, int radius, int height,
              std::vector<const float*>& out) const {
    for (int i = 0; i < static_cast<int>(out.size()); ++i) {
      out[static_cast<std::size_t>(i)] =
          slot(clamp_index(y - radius + i, height));
    }
  }

private:
  int width_;
  int taps_;
  std::vector<float> rows_;
};

/// Blur-only band worker: output rows [rb, re), streaming source rows
/// through the line buffer. Bands only read `src` and write their own
/// `dst` rows, so bands are fully independent (halo rows are re-blurred
/// locally during priming).
void fused_blur_band(const img::ImageF& src, img::ImageF& dst,
                     const GaussianKernel& kernel, int rb, int re) {
  const int w = src.width();
  const int h = src.height();
  const int radius = kernel.radius();
  const int taps = kernel.taps();
  const float* wts = kernel.weights().data();

  LineBuffer lines(w, taps);
  std::vector<const float*> window(static_cast<std::size_t>(taps));

  // Prime: horizontally blur every source row the first output row's
  // window reads (the band's top halo), then per output row stream in the
  // one new source row its window adds (none while draining at the bottom
  // edge, where the clamp holds the last row).
  int next = std::max(0, rb - radius);
  auto consume_to = [&](int last) {
    for (; next <= last; ++next) {
      hpass_float_row_simd(&src.at_unchecked(0, next), lines.slot(next), wts,
                           taps, radius, w);
    }
  };
  consume_to(std::min(h - 1, rb + radius - 1));
  for (int y = rb; y < re; ++y) {
    consume_to(std::min(h - 1, y + radius));
    lines.window(y, radius, h, window);
    vpass_float_row_simd(window.data(), &dst.at_unchecked(0, y), wts, taps,
                         w);
  }
}

/// Full-pipeline band worker: as fused_blur_band, but each streamed source
/// row additionally runs the point-wise front stages (normalize + encode,
/// luminance) before entering the line buffer, and each emitted row runs
/// the back stages (masking, adjust) after the vertical pass. The
/// normalized rows still inside the masking window live in their own
/// radius+1-row ring: the window [y, y + radius] is always the most
/// recently streamed radius+1 rows, so ascending streaming order keeps
/// exactly the live ones resident.
void fused_tonemap_band(const img::ImageF& hdr, img::ImageF& dst,
                        const PipelineOptions& opt,
                        const GaussianKernel& kernel, float scale, int rb,
                        int re) {
  const int w = hdr.width();
  const int h = hdr.height();
  const int c = hdr.channels();
  const int radius = kernel.radius();
  const int taps = kernel.taps();
  const float* wts = kernel.weights().data();
  const bool by_max = !(opt.normalization_scale > 0.0f);
  const bool encode = opt.display_gamma != 1.0f;
  const float inv_gamma = 1.0f / opt.display_gamma;
  const std::size_t row_samples =
      static_cast<std::size_t>(w) * static_cast<std::size_t>(c);

  const int norm_rows = radius + 1;
  std::vector<float> norm_ring(static_cast<std::size_t>(norm_rows) *
                               row_samples);
  auto norm_slot = [&](int ny) {
    return norm_ring.data() +
           static_cast<std::size_t>(ny % norm_rows) * row_samples;
  };

  LineBuffer lines(w, taps);
  std::vector<const float*> window(static_cast<std::size_t>(taps));
  std::vector<float> intensity_row(static_cast<std::size_t>(w));
  std::vector<float> mask_row(static_cast<std::size_t>(w));

  int next = std::max(0, rb - radius);
  auto consume_to = [&](int last) {
    for (; next <= last; ++next) {
      const float* src_row = &hdr.at_unchecked(0, next);
      float* nrow = norm_slot(next);
      if (by_max) {
        normalize_max_row(src_row, nrow, row_samples, scale);
      } else {
        normalize_scale_row(src_row, nrow, row_samples, scale);
      }
      if (encode) display_encode_row(nrow, nrow, row_samples, inv_gamma);
      img::luminance_row(nrow, intensity_row.data(), w, c);
      hpass_float_row_simd(intensity_row.data(), lines.slot(next), wts, taps,
                           radius, w);
    }
  };
  consume_to(std::min(h - 1, rb + radius - 1));
  for (int y = rb; y < re; ++y) {
    consume_to(std::min(h - 1, y + radius));
    lines.window(y, radius, h, window);
    vpass_float_row_simd(window.data(), mask_row.data(), wts, taps, w);
    float* out = &dst.at_unchecked(0, y);
    masking_row(norm_slot(y), mask_row.data(), out, w, c);
    brightness_contrast_row(out, out, row_samples, opt.brightness,
                            opt.contrast);
  }
}

int clamp_bands(int threads, int rows) {
  TMHLS_REQUIRE(threads >= 1, "fused stream: threads must be >= 1");
  return std::min({threads, rows, exec::kMaxTiledBands});
}

} // namespace

img::ImageF blur_fused_stream(const img::ImageF& src,
                              const GaussianKernel& kernel, int threads) {
  TMHLS_REQUIRE(src.channels() == 1, "blur expects a 1-channel image");
  const int h = src.height();
  const int bands = clamp_bands(threads, h);

  img::ImageF dst(src.width(), h, 1);
  const bool parallel_ok =
      bands > 1 && exec::run_independent_bands(bands, [&](int band) {
        const exec::RowBand r = exec::row_band(h, bands, band);
        fused_blur_band(src, dst, kernel, r.begin, r.end);
      });
  if (!parallel_ok) fused_blur_band(src, dst, kernel, 0, h);
  return dst;
}

FusedToneMapResult tone_map_fused(const img::ImageF& hdr,
                                  const PipelineOptions& opt) {
  TMHLS_REQUIRE(!hdr.empty(), "tone_map_fused: empty image");
  // The stage preconditions the plane-at-a-time pipeline checks inside its
  // stage functions, checked up front here (the fused loop interleaves the
  // stages, so a mid-stream throw would be a half-written frame).
  TMHLS_REQUIRE(hdr.channels() == 1 || hdr.channels() >= 3,
                "luminance needs 1 or >=3 channels");
  TMHLS_REQUIRE(opt.display_gamma == 1.0f || opt.display_gamma > 0.0f,
                "display_encode: gamma must be positive");
  TMHLS_REQUIRE(opt.contrast > 0.0f, "brightness_contrast: contrast must be > 0");
  const GaussianKernel kernel = opt.kernel();
  const int h = hdr.height();
  const int bands = clamp_bands(opt.threads, h);

  // The one inherently two-pass part: frame-max normalisation must see
  // every sample before the first row can be normalized. Same reduction as
  // normalize_to_max (max is order-insensitive, so one pass over samples).
  float scale = opt.normalization_scale;
  if (!(scale > 0.0f)) {
    const float max_v = max_sample_row(hdr.samples().data(),
                                       hdr.samples().size());
    TMHLS_REQUIRE(max_v > 0.0f,
                  "normalize_to_max: image has no positive sample");
    scale = max_v;
  }

  FusedToneMapResult result;
  result.input_max = scale;
  result.output = img::ImageF(hdr.width(), h, hdr.channels());
  img::ImageF& dst = result.output;
  const bool parallel_ok =
      bands > 1 && exec::run_independent_bands(bands, [&](int band) {
        const exec::RowBand r = exec::row_band(h, bands, band);
        fused_tonemap_band(hdr, dst, opt, kernel, scale, r.begin, r.end);
      });
  if (!parallel_ok) fused_tonemap_band(hdr, dst, opt, kernel, scale, 0, h);
  return result;
}

} // namespace tmhls::tonemap
