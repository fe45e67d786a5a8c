#include "tonemap/blur.hpp"

#include <vector>

#include "common/error.hpp"
#include "tonemap/blur_passes.hpp"

namespace tmhls::tonemap {

using detail::clamp_index;

img::ImageF blur_separable_float(const img::ImageF& src,
                                 const GaussianKernel& kernel) {
  TMHLS_REQUIRE(src.channels() == 1, "blur expects a 1-channel image");
  const int h = src.height();
  // The direct form is the row-range primitives over the full image:
  // horizontal pass (random access in x), then vertical pass (strided
  // access in y — the pattern that defeats the naive hardware offload).
  img::ImageF tmp(src.width(), h, 1);
  img::ImageF dst(src.width(), h, 1);
  blur_hpass_float_rows(src, tmp, kernel, 0, h);
  blur_vpass_float_rows(tmp, dst, kernel, 0, h);
  return dst;
}

img::ImageF blur_streaming_float(const img::ImageF& src,
                                 const GaussianKernel& kernel) {
  TMHLS_REQUIRE(src.channels() == 1, "blur expects a 1-channel image");
  const int w = src.width();
  const int h = src.height();
  const int radius = kernel.radius();
  const int taps = kernel.taps();
  const auto& wts = kernel.weights();

  // Horizontal pass through a shift register of `taps` pixels. For output
  // pixel x we need inputs [x-radius, x+radius]; the register holds them
  // once input pixel x+radius has streamed in. Edge clamping is realised by
  // pre-loading the register with the row's first pixel and by holding the
  // last pixel while draining — exactly what the hardware does.
  img::ImageF tmp(w, h, 1);
  std::vector<float> shift(static_cast<std::size_t>(taps));
  for (int y = 0; y < h; ++y) {
    // Pre-fill: register centred on x = 0 (clamped left neighbours).
    for (int i = 0; i < taps; ++i) {
      shift[static_cast<std::size_t>(i)] =
          src.at_unchecked(clamp_index(i - radius, w), y);
    }
    for (int x = 0; x < w; ++x) {
      float acc = 0.0f;
      for (int i = 0; i < taps; ++i) {
        acc += wts[static_cast<std::size_t>(i)] *
               shift[static_cast<std::size_t>(i)];
      }
      tmp.at_unchecked(x, y) = acc;
      // Stream in the next pixel (clamped at the right edge).
      for (int i = 0; i + 1 < taps; ++i) {
        shift[static_cast<std::size_t>(i)] =
            shift[static_cast<std::size_t>(i + 1)];
      }
      shift[static_cast<std::size_t>(taps - 1)] =
          src.at_unchecked(clamp_index(x + radius + 1, w), y);
    }
  }

  // Vertical pass through a circular line buffer of `taps` rows. Row r of
  // the buffer holds input row (base + r); output row y reads rows
  // [y-radius, y+radius] clamped.
  img::ImageF dst(w, h, 1);
  std::vector<std::vector<float>> lines(
      static_cast<std::size_t>(taps),
      std::vector<float>(static_cast<std::size_t>(w)));
  // Pre-fill with rows centred on y = 0.
  for (int i = 0; i < taps; ++i) {
    const int sy = clamp_index(i - radius, h);
    auto row = tmp.row(sy);
    std::copy(row.begin(), row.end(), lines[static_cast<std::size_t>(i)].begin());
  }
  int head = 0; // index of the oldest row (y - radius)
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      float acc = 0.0f;
      for (int i = 0; i < taps; ++i) {
        const int slot = (head + i) % taps;
        acc += wts[static_cast<std::size_t>(i)] *
               lines[static_cast<std::size_t>(slot)][static_cast<std::size_t>(x)];
      }
      dst.at_unchecked(x, y) = acc;
    }
    // The oldest row is replaced by the next incoming row (clamped bottom).
    const int next_row = clamp_index(y + radius + 1, h);
    auto row = tmp.row(next_row);
    std::copy(row.begin(), row.end(),
              lines[static_cast<std::size_t>(head)].begin());
    head = (head + 1) % taps;
  }
  return dst;
}

FixedBlurConfig FixedBlurConfig::paper() {
  const fixed::FixedFormat fmt(16, 2, fixed::Round::half_up,
                               fixed::Overflow::saturate);
  return FixedBlurConfig{fmt, fmt};
}

img::ImageF blur_streaming_fixed(const img::ImageF& src,
                                 const GaussianKernel& kernel,
                                 const FixedBlurConfig& cfg) {
  TMHLS_REQUIRE(src.channels() == 1, "blur expects a 1-channel image");
  const int w = src.width();
  const int h = src.height();
  const int radius = kernel.radius();
  const int taps = kernel.taps();

  // The datapath arithmetic (kernel ROM, the ap_fixed-accumulator MAC,
  // the output requantisation) lives in FixedBlurPlan — one source of
  // truth for the fixed datapath. This function keeps
  // the *streaming structure*: shift register and circular line buffer.
  const FixedBlurPlan plan(kernel, cfg);
  const std::vector<std::int64_t>& wq = plan.weights();

  // Quantise the whole input once — the float-to-fixed conversion at the
  // accelerator's AXI boundary.
  std::vector<std::int64_t> qsrc(src.pixel_count());
  plan.quantise_rows(src, qsrc, 0, h);
  auto qat = [&](int x, int y) {
    return qsrc[static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
                static_cast<std::size_t>(x)];
  };

  // Horizontal pass, shift register of raw values.
  std::vector<std::int64_t> hout(src.pixel_count());
  std::vector<std::int64_t> shift_reg(static_cast<std::size_t>(taps));
  for (int y = 0; y < h; ++y) {
    for (int i = 0; i < taps; ++i) {
      shift_reg[static_cast<std::size_t>(i)] =
          qat(clamp_index(i - radius, w), y);
    }
    for (int x = 0; x < w; ++x) {
      std::int64_t acc = 0;
      for (int i = 0; i < taps; ++i) {
        acc = plan.mac(acc, wq[static_cast<std::size_t>(i)],
                       shift_reg[static_cast<std::size_t>(i)]);
      }
      hout[static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
           static_cast<std::size_t>(x)] = plan.acc_to_data(acc);
      for (int i = 0; i + 1 < taps; ++i) {
        shift_reg[static_cast<std::size_t>(i)] =
            shift_reg[static_cast<std::size_t>(i + 1)];
      }
      shift_reg[static_cast<std::size_t>(taps - 1)] =
          qat(clamp_index(x + radius + 1, w), y);
    }
  }

  // Vertical pass, circular line buffer of raw values.
  img::ImageF dst(w, h, 1);
  auto hrow = [&](int y) {
    return hout.data() + static_cast<std::size_t>(clamp_index(y, h)) *
                             static_cast<std::size_t>(w);
  };
  std::vector<std::vector<std::int64_t>> lines(
      static_cast<std::size_t>(taps),
      std::vector<std::int64_t>(static_cast<std::size_t>(w)));
  for (int i = 0; i < taps; ++i) {
    const std::int64_t* row = hrow(i - radius);
    std::copy(row, row + w, lines[static_cast<std::size_t>(i)].begin());
  }
  int head = 0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      std::int64_t acc = 0;
      for (int i = 0; i < taps; ++i) {
        const int slot = (head + i) % taps;
        acc = plan.mac(acc, wq[static_cast<std::size_t>(i)],
                       lines[static_cast<std::size_t>(slot)]
                            [static_cast<std::size_t>(x)]);
      }
      dst.at_unchecked(x, y) = plan.to_float(plan.acc_to_data(acc));
    }
    const std::int64_t* row = hrow(y + radius + 1);
    std::copy(row, row + w, lines[static_cast<std::size_t>(head)].begin());
    head = (head + 1) % taps;
  }
  return dst;
}

std::size_t line_buffer_bytes(int width, int taps, int bits_per_elem) {
  TMHLS_REQUIRE(width > 0 && taps > 0 && bits_per_elem > 0,
                "line_buffer_bytes: positive arguments required");
  const std::size_t bits = static_cast<std::size_t>(width) *
                           static_cast<std::size_t>(taps) *
                           static_cast<std::size_t>(bits_per_elem);
  return (bits + 7) / 8;
}

} // namespace tmhls::tonemap
