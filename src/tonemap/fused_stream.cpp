#include "tonemap/fused_stream.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "exec/tiled.hpp"
#include "tonemap/blur_passes.hpp"

namespace tmhls::tonemap {

namespace {

using detail::clamp_index;

/// Output rows one vertical-pass call emits (see blur_passes.hpp).
constexpr int kBlock = kVpassBlockRows;

/// The line buffer of the fused engine: a ring of `taps + kBlock - 1`
/// horizontally blurred rows, enough for the vertical windows of a block of
/// kBlock consecutive output rows. The slot of absolute source row ry is
/// ry % (taps + kBlock - 1) — the windows of a row block together span a
/// contiguous clamped row range of at most that many rows, so the rows a
/// block reads never collide in the ring, and a row streamed in overwrites
/// exactly the one that just left every window. This is the §III.B
/// circular line buffer with the modulo made explicit (the hardware keeps
/// a rotating head index instead; same rows, same values).
class LineBuffer {
public:
  LineBuffer(int width, int taps)
      : width_(width), slots_(taps + kBlock - 1),
        rows_(static_cast<std::size_t>(width) *
              static_cast<std::size_t>(slots_)) {}

  float* slot(int source_row) {
    return rows_.data() + static_cast<std::size_t>(source_row % slots_) *
                              static_cast<std::size_t>(width_);
  }
  const float* slot(int source_row) const {
    return rows_.data() + static_cast<std::size_t>(source_row % slots_) *
                              static_cast<std::size_t>(width_);
  }

  /// Row pointers of source rows y - radius, y - radius + 1, ... (one per
  /// entry of `out`), clamp-to-edge over `height` source rows — the hoisted
  /// vertical clamp, exactly as the row-range vertical pass builds it. With
  /// taps + kBlock - 1 entries this is the window of the row block starting
  /// at y.
  void window(int y, int radius, int height,
              std::vector<const float*>& out) const {
    for (int i = 0; i < static_cast<int>(out.size()); ++i) {
      out[static_cast<std::size_t>(i)] =
          slot(clamp_index(y - radius + i, height));
    }
  }

private:
  int width_;
  int slots_;
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
  std::vector<const float*> window(
      static_cast<std::size_t>(taps + kBlock - 1));
  // The source row being blurred, padded by `radius` edge replicas on each
  // side so the horizontal pass needs no border code.
  std::vector<float> padded(static_cast<std::size_t>(w + 2 * radius));

  // Prime: horizontally blur every source row the first output row's
  // window reads (the band's top halo), then per block of output rows
  // stream in the new source rows its windows add (none while draining at
  // the bottom edge, where the clamp holds the last row). The rows a whole
  // block does not fill go one at a time.
  int next = std::max(0, rb - radius);
  auto consume_to = [&](int last) {
    for (; next <= last; ++next) {
      const float* row = &src.at_unchecked(0, next);
      std::copy(row, row + w, padded.begin() + radius);
      replicate_edges(padded.data(), radius, w);
      hpass_float_row_simd(padded.data(), lines.slot(next), wts, taps, w);
    }
  };
  consume_to(std::min(h - 1, rb + radius - 1));
  int y = rb;
  for (; y + kBlock <= re; y += kBlock) {
    consume_to(std::min(h - 1, y + kBlock - 1 + radius));
    lines.window(y, radius, h, window);
    float* out[kBlock];
    for (int r = 0; r < kBlock; ++r) out[r] = &dst.at_unchecked(0, y + r);
    vpass_float_row_block_simd(window.data(), out, wts, taps, w);
  }
  for (; y < re; ++y) {
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
/// (radius + kBlock)-row ring: the rows a block of output rows still needs,
/// [y, y + kBlock - 1 + radius], are always the most recently streamed
/// radius + kBlock rows, so ascending streaming order keeps exactly the
/// live ones resident.
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

  const int norm_rows = radius + kBlock;
  std::vector<float> norm_ring(static_cast<std::size_t>(norm_rows) *
                               row_samples);
  auto norm_slot = [&](int ny) {
    return norm_ring.data() +
           static_cast<std::size_t>(ny % norm_rows) * row_samples;
  };

  LineBuffer lines(w, taps);
  std::vector<const float*> window(
      static_cast<std::size_t>(taps + kBlock - 1));
  // The luminance row, padded by `radius` edge replicas on each side.
  std::vector<float> intensity(static_cast<std::size_t>(w + 2 * radius));
  // The blurred mask rows of one block.
  std::vector<float> mask_rows(static_cast<std::size_t>(kBlock) *
                               static_cast<std::size_t>(w));
  float* mask[kBlock];
  for (int r = 0; r < kBlock; ++r) mask[r] = mask_rows.data() + r * w;

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
      img::luminance_row(nrow, intensity.data() + radius, w, c);
      replicate_edges(intensity.data(), radius, w);
      hpass_float_row_simd(intensity.data(), lines.slot(next), wts, taps, w);
    }
  };
  auto emit = [&](int oy, const float* mask) {
    float* out = &dst.at_unchecked(0, oy);
    masking_row(norm_slot(oy), mask, out, w, c);
    brightness_contrast_row(out, out, row_samples, opt.brightness,
                            opt.contrast);
  };
  consume_to(std::min(h - 1, rb + radius - 1));
  int y = rb;
  for (; y + kBlock <= re; y += kBlock) {
    consume_to(std::min(h - 1, y + kBlock - 1 + radius));
    lines.window(y, radius, h, window);
    vpass_float_row_block_simd(window.data(), mask, wts, taps, w);
    for (int r = 0; r < kBlock; ++r) emit(y + r, mask[r]);
  }
  for (; y < re; ++y) {
    consume_to(std::min(h - 1, y + radius));
    lines.window(y, radius, h, window);
    vpass_float_row_simd(window.data(), mask[0], wts, taps, w);
    emit(y, mask[0]);
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
