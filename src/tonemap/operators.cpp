#include "tonemap/operators.hpp"

#include "common/error.hpp"
#include "common/math.hpp"
#include "tonemap/pow_kernel.hpp"

namespace tmhls::tonemap {

void normalize_max_row(const float* in, float* out, std::size_t n,
                       float max_v) {
  for (std::size_t i = 0; i < n; ++i) out[i] = in[i] / max_v;
}

void normalize_scale_row(const float* in, float* out, std::size_t n,
                         float scale) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = clamp(in[i] / scale, 0.0f, 1.0f);
  }
}

void display_encode_row(const float* in, float* out, std::size_t n,
                        float inv_gamma) {
  pow_row(in, out, n, inv_gamma);
}

void masking_row(const float* in, const float* mask, float* out, int width,
                 int channels, const BrightnessContrast* adjust) {
  TMHLS_REQUIRE(channels >= 1 && channels <= 4,
                "masking_row: channels must be in [1, 4]");
  masking_pow_row(in, mask, out, static_cast<std::size_t>(width), channels,
                  adjust);
}

img::ImageF normalize_to_max(const img::ImageF& src, float* max_out) {
  TMHLS_REQUIRE(!src.empty(), "normalize_to_max: empty image");
  auto si = src.samples();
  const float max_v = max_sample_row(si.data(), si.size());
  TMHLS_REQUIRE(max_v > 0.0f, "normalize_to_max: image has no positive sample");
  img::ImageF out(src.width(), src.height(), src.channels());
  normalize_max_row(si.data(), out.samples().data(), si.size(), max_v);
  if (max_out != nullptr) *max_out = max_v;
  return out;
}

img::ImageF display_encode(const img::ImageF& in, float gamma) {
  TMHLS_REQUIRE(gamma > 0.0f, "display_encode: gamma must be positive");
  img::ImageF out(in.width(), in.height(), in.channels());
  auto si = in.samples();
  display_encode_row(si.data(), out.samples().data(), si.size(),
                     1.0f / gamma);
  return out;
}

img::ImageF nonlinear_masking(const img::ImageF& in, const img::ImageF& mask) {
  TMHLS_REQUIRE(mask.channels() == 1, "nonlinear_masking: mask must be 1-channel");
  TMHLS_REQUIRE(in.width() == mask.width() && in.height() == mask.height(),
                "nonlinear_masking: size mismatch");
  img::ImageF out(in.width(), in.height(), in.channels());
  for (int y = 0; y < in.height(); ++y) {
    masking_row(&in.at_unchecked(0, y), &mask.at_unchecked(0, y),
                &out.at_unchecked(0, y), in.width(), in.channels());
  }
  return out;
}

img::ImageF brightness_contrast(const img::ImageF& in, float brightness,
                                float contrast) {
  TMHLS_REQUIRE(contrast > 0.0f, "brightness_contrast: contrast must be > 0");
  img::ImageF out(in.width(), in.height(), in.channels());
  const auto si = in.samples();
  const auto so = out.samples();
  for (std::size_t i = 0; i < si.size(); ++i) {
    so[i] = clamp((si[i] - 0.5f) * contrast + 0.5f + brightness, 0.0f, 1.0f);
  }
  return out;
}

} // namespace tmhls::tonemap
