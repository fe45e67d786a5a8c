#include "tonemap/fused_stream.hpp"

#include <algorithm>
#include <vector>

#include "common/default_init_allocator.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "exec/tiled.hpp"
#include "tonemap/blur_passes.hpp"

namespace tmhls::tonemap {

namespace {

using detail::clamp_index;

/// Output rows one vertical-pass call emits (see blur_passes.hpp).
constexpr int kBlock = kVpassBlockRows;

/// A band's row scratch: every slot is written before it is read, so it is
/// sized without a fill.
using Rows = std::vector<float, DefaultInitAllocator<float>>;

/// One row band of a frame: its own output rows, and the horizontally
/// blurred source rows it shares with its neighbours. The band above reads
/// the band's top `radius` rows, the band below its bottom `radius` rows;
/// the band computes each of them once, keeps it here until the frame
/// ends, and publishes it behind the latch of the boundary it sits on.
/// Bands are at least `radius` rows thick (exec::band_count), so every
/// halo row a band reads belongs to one of its two neighbours.
struct Band {
  int begin = 0;
  int end = 0;
  /// [begin, top_end): the rows the band above reads (none for band 0).
  int top_end = 0;
  /// [bottom_begin, end): the rows the band below reads (none for the
  /// last band). The band computes them before anything else.
  int bottom_begin = 0;
  int width = 0;
  /// The published rows, sized by the band itself before it computes any
  /// of them. A row in both sets lives in `bottom`.
  Rows top;
  Rows bottom;

  bool is_published(int r) const { return r < top_end || r >= bottom_begin; }
  float* row(int r) {
    const bool low = r >= bottom_begin;
    return (low ? bottom : top).data() +
           static_cast<std::size_t>(r - (low ? bottom_begin : begin)) *
               static_cast<std::size_t>(width);
  }
};

std::vector<Band> plan_bands(int rows, int width, int bands, int radius) {
  std::vector<Band> plan(static_cast<std::size_t>(bands));
  for (int b = 0; b < bands; ++b) {
    const exec::RowBand r = exec::row_band(rows, bands, b);
    Band& band = plan[static_cast<std::size_t>(b)];
    band.begin = r.begin;
    band.end = r.end;
    band.top_end = b > 0 ? r.begin + radius : r.begin;
    band.bottom_begin = b + 1 < bands ? r.end - radius : r.end;
    band.width = width;
  }
  return plan;
}

/// Streams band `b` of `bands` through the fused engine's line buffer.
/// `front(r, hrow)` computes source row r's horizontally blurred row into
/// `hrow`; the vertical pass writes output row y to `out(y)`, and
/// `emit(y)` finishes it. `round` is null for a one-band frame, which
/// then runs with no latch.
///
/// Order: the band first computes its bottom rows (the ones the band below
/// needs first) and arrives at their latch, then streams its other rows
/// top-down, arriving at its top latch as soon as its top rows are in. It
/// waits on a latch only when a vertical window first reaches past its
/// own rows, and every band arrives at both its latches before its first
/// wait, so the waits cannot form a cycle.
///
/// The line buffer is a ring of `taps + kBlock - 1` rows holding the
/// band's rows that are not published: the slot of source row ry is
/// ry % (taps + kBlock - 1). The windows of a row block together span a
/// contiguous clamped row range of at most that many rows, so the rows a
/// block reads never collide in the ring, and a row streamed in overwrites
/// exactly the one that just left every window. This is the §III.B
/// circular line buffer with the modulo made explicit (the hardware keeps
/// a rotating head index instead; same rows, same values).
template <class Front, class Out, class Emit>
void stream_band(std::vector<Band>& bands, int b, exec::BandRound* round,
                 int height, const GaussianKernel& kernel, Front&& front,
                 Out&& out, Emit&& emit) {
  Band& me = bands[static_cast<std::size_t>(b)];
  Band* above = b > 0 ? &bands[static_cast<std::size_t>(b - 1)] : nullptr;
  Band* below = b + 1 < static_cast<int>(bands.size())
                    ? &bands[static_cast<std::size_t>(b + 1)]
                    : nullptr;
  const int w = me.width;
  const int radius = kernel.radius();
  const int taps = kernel.taps();
  const float* wts = kernel.weights().data();
  const int slots = taps + kBlock - 1;

  if (round != nullptr) {
    // Fault site "exec.bands.publish": a band that fails before it
    // publishes any halo row.
    fault::inject("exec.bands.publish");
  }
  me.top.resize(static_cast<std::size_t>(me.top_end - me.begin) *
                static_cast<std::size_t>(w));
  me.bottom.resize(static_cast<std::size_t>(me.end - me.bottom_begin) *
                   static_cast<std::size_t>(w));
  for (int r = me.bottom_begin; r < me.end; ++r) front(r, me.row(r));
  if (below != nullptr) round->arrive(b);

  Rows ring(static_cast<std::size_t>(slots) * static_cast<std::size_t>(w));
  auto hrow = [&](int r) -> float* {
    if (r < me.begin) return above->row(r);
    if (r >= me.end) return below->row(r);
    if (me.is_published(r)) return me.row(r);
    return ring.data() +
           static_cast<std::size_t>(r % slots) * static_cast<std::size_t>(w);
  };

  int next = me.begin;
  bool top_published = above == nullptr;
  auto consume_to = [&](int last) {
    for (last = std::min(last, me.bottom_begin - 1); next <= last; ++next) {
      front(next, hrow(next));
    }
    if (!top_published && next >= std::min(me.top_end, me.bottom_begin)) {
      round->arrive(b - 1);
      top_published = true;
    }
  };

  bool above_open = above == nullptr;
  bool below_open = below == nullptr;
  std::vector<const float*> window(static_cast<std::size_t>(slots));
  // Row pointers of source rows y - radius, y - radius + 1, ... (`count`
  // of them), clamp-to-edge over the frame: the hoisted vertical clamp,
  // exactly as the row-range vertical pass builds it.
  auto load_window = [&](int y, int count) {
    const int first = y - radius;
    if (!above_open && first < me.begin) {
      round->wait(b - 1);
      above_open = true;
    }
    if (!below_open && first + count - 1 >= me.end) {
      round->wait(b);
      below_open = true;
    }
    for (int i = 0; i < count; ++i) {
      window[static_cast<std::size_t>(i)] =
          hrow(clamp_index(first + i, height));
    }
  };

  // Per block of output rows, stream in the source rows its windows add,
  // then run the vertical pass. The rows a whole block does not fill go
  // one at a time.
  int y = me.begin;
  for (; y + kBlock <= me.end; y += kBlock) {
    consume_to(y + kBlock - 1 + radius);
    load_window(y, slots);
    float* rows[kBlock];
    for (int r = 0; r < kBlock; ++r) rows[r] = out(y + r);
    vpass_float_row_block_simd(window.data(), rows, wts, taps, w);
    for (int r = 0; r < kBlock; ++r) emit(y + r);
  }
  for (; y < me.end; ++y) {
    consume_to(y + radius);
    load_window(y, taps);
    vpass_float_row_simd(window.data(), out(y), wts, taps, w);
    emit(y);
  }
}

/// Blur-only band worker: the front of a source row is its horizontal
/// blur; the vertical pass writes straight into `dst`.
void fused_blur_band(const img::ImageF& src, img::ImageF& dst,
                     const GaussianKernel& kernel, std::vector<Band>& bands,
                     int b, exec::BandRound* round) {
  const int w = src.width();
  const int radius = kernel.radius();
  const float* wts = kernel.weights().data();
  // The source row being blurred, padded by `radius` edge replicas on each
  // side so the horizontal pass needs no border code.
  std::vector<float> padded(static_cast<std::size_t>(w + 2 * radius));
  auto front = [&](int r, float* hrow) {
    const float* row = &src.at_unchecked(0, r);
    std::copy(row, row + w, padded.begin() + radius);
    replicate_edges(padded.data(), radius, w);
    hpass_float_row_simd(padded.data(), hrow, wts, kernel.taps(), w);
  };
  auto out = [&](int y) { return &dst.at_unchecked(0, y); };
  stream_band(bands, b, round, src.height(), kernel, front, out, [](int) {});
}

/// Full-pipeline band worker: as fused_blur_band, but each source row
/// first runs the point-wise front stages (normalize + encode, luminance:
/// one front_row pass), and each emitted row runs the back stages
/// (masking, adjust) after the vertical pass. The normalized rows the
/// masking still needs live in a (radius + kBlock)-row ring: the rows a block of output rows still
/// needs, [y, y + kBlock - 1 + radius], are always the most recently
/// streamed radius + kBlock rows, so ascending streaming order keeps
/// exactly the live ones resident. The band's bottom rows are computed
/// first, so their normalized values wait in their own buffer until the
/// band emits them.
void fused_tonemap_band(const img::ImageF& hdr, img::ImageF& dst,
                        const PipelineOptions& opt,
                        const GaussianKernel& kernel, float scale,
                        std::vector<Band>& bands, int b,
                        exec::BandRound* round) {
  const Band& me = bands[static_cast<std::size_t>(b)];
  const int w = hdr.width();
  const int c = hdr.channels();
  const int radius = kernel.radius();
  const float* wts = kernel.weights().data();
  const FrontStep step{scale, opt.normalization_scale > 0.0f,
                       opt.display_gamma != 1.0f, 1.0f / opt.display_gamma};
  const std::size_t row_samples =
      static_cast<std::size_t>(w) * static_cast<std::size_t>(c);

  const int norm_rows = radius + kBlock;
  Rows norm_ring(static_cast<std::size_t>(norm_rows) * row_samples);
  Rows bottom_norm(static_cast<std::size_t>(me.end - me.bottom_begin) *
                   row_samples);
  auto norm_slot = [&](int ny) {
    if (ny >= me.bottom_begin) {
      return bottom_norm.data() +
             static_cast<std::size_t>(ny - me.bottom_begin) * row_samples;
    }
    return norm_ring.data() +
           static_cast<std::size_t>(ny % norm_rows) * row_samples;
  };

  // The luminance row, padded by `radius` edge replicas on each side.
  std::vector<float> intensity(static_cast<std::size_t>(w + 2 * radius));
  // The blurred mask rows of one block.
  std::vector<float> mask_rows(static_cast<std::size_t>(kBlock) *
                               static_cast<std::size_t>(w));

  auto front = [&](int r, float* hrow) {
    front_row(&hdr.at_unchecked(0, r), norm_slot(r), intensity.data() + radius,
              static_cast<std::size_t>(w), c, step);
    replicate_edges(intensity.data(), radius, w);
    hpass_float_row_simd(intensity.data(), hrow, wts, kernel.taps(), w);
  };
  auto mask = [&](int y) {
    return mask_rows.data() +
           static_cast<std::size_t>(y % kBlock) * static_cast<std::size_t>(w);
  };
  const BrightnessContrast adjust{opt.brightness, opt.contrast};
  auto emit = [&](int y) {
    masking_row(norm_slot(y), mask(y), &dst.at_unchecked(0, y), w, c,
                &adjust);
  };
  stream_band(bands, b, round, hdr.height(), kernel, front, mask, emit);
}

} // namespace

img::ImageF blur_fused_stream(const img::ImageF& src,
                              const GaussianKernel& kernel, int threads) {
  TMHLS_REQUIRE(src.channels() == 1, "blur expects a 1-channel image");
  const int w = src.width();
  const int h = src.height();
  const int bands = exec::band_count(threads, h, kernel.radius());

  img::ImageF dst(w, h, 1);
  if (bands > 1) {
    std::vector<Band> plan = plan_bands(h, w, bands, kernel.radius());
    if (exec::run_bands(bands, [&](int b, exec::BandRound& round) {
          fused_blur_band(src, dst, kernel, plan, b, &round);
        })) {
      return dst;
    }
  }
  std::vector<Band> one = plan_bands(h, w, 1, kernel.radius());
  fused_blur_band(src, dst, kernel, one, 0, nullptr);
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
  const int w = hdr.width();
  const int h = hdr.height();
  const int c = hdr.channels();
  const int bands = exec::band_count(opt.threads, h, kernel.radius());
  const std::size_t row_samples =
      static_cast<std::size_t>(w) * static_cast<std::size_t>(c);

  // Frame-max normalisation must see every sample before the first row can
  // be normalized: the one barrier of the band round. Same reduction as
  // normalize_to_max — max is order-insensitive, so reducing per band and
  // then over the bands gives the bits of one pass over all samples.
  const bool by_max = !(opt.normalization_scale > 0.0f);
  FusedToneMapResult result;
  result.input_max = by_max ? 0.0f : opt.normalization_scale;
  const char* const no_light = "normalize_to_max: image has no positive sample";

  // The output is acquired unwritten: the bands write every sample. When
  // the frame has no positive sample the bands return before writing and
  // the REQUIRE below throws, so an unwritten plane is never returned.
  if (bands > 1) {
    result.output = img::ImageF(w, h, c, img::uninitialized);
    std::vector<Band> plan = plan_bands(h, w, bands, kernel.radius());
    std::vector<float> band_max(static_cast<std::size_t>(bands), 0.0f);
    const bool ran = exec::run_bands(bands, [&](int b, exec::BandRound& round) {
      if (by_max) {
        const Band& band = plan[static_cast<std::size_t>(b)];
        band_max[static_cast<std::size_t>(b)] = max_sample_row(
            &hdr.at_unchecked(0, band.begin),
            static_cast<std::size_t>(band.end - band.begin) * row_samples);
        round.arrive_and_wait([&] {
          for (const float m : band_max) {
            result.input_max = std::max(result.input_max, m);
          }
        });
        if (!(result.input_max > 0.0f)) return;
      }
      fused_tonemap_band(hdr, result.output, opt, kernel, result.input_max,
                         plan, b, &round);
    });
    if (ran) {
      TMHLS_REQUIRE(result.input_max > 0.0f, no_light);
      return result;
    }
  }

  if (by_max) {
    result.input_max = max_sample_row(hdr.samples().data(),
                                      hdr.samples().size());
    TMHLS_REQUIRE(result.input_max > 0.0f, no_light);
  }
  if (result.output.empty()) {
    result.output = img::ImageF(w, h, c, img::uninitialized);
  }
  std::vector<Band> one = plan_bands(h, w, 1, kernel.radius());
  fused_tonemap_band(hdr, result.output, opt, kernel, result.input_max, one,
                     0, nullptr);
  return result;
}

} // namespace tmhls::tonemap
