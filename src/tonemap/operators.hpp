// The point-wise stages of the paper's tone-mapping pipeline (Fig 1):
// image normalization, non-linear masking (Moroney, CIC 2000) and the
// brightness/contrast adjustments. These always run on the processing
// system (PS) — only the Gaussian blur is accelerated.
//
// The powers in display encoding and masking are not libm: they run the
// deterministic vectorized kernel of tonemap/pow_kernel.hpp (max-abs error
// <= 2e-7 against std::pow on [0, 1]), which gives identical bits on every
// path, thread count and ISA.
#pragma once

#include "image/image.hpp"
#include "tonemap/pow_kernel.hpp"

namespace tmhls::tonemap {

/// Step 1 — "each pixel inside the input image is normalized with respect
/// to their maximum value": divide every sample by the global maximum.
/// Returns the normalised image; `max_out`, when non-null, receives the
/// maximum found (needed to report the scale). A non-positive maximum
/// throws InvalidArgument (the image carries no light).
img::ImageF normalize_to_max(const img::ImageF& src, float* max_out = nullptr);

/// Display encoding: out = in^(1/gamma) with inputs clamped to >= 0, the
/// power evaluated by pow_row (tonemap/pow_kernel.hpp).
/// Part of step 1 in this pipeline: Moroney's non-linear masking (step 3)
/// is defined on display-referred data, so the normalised linear-light
/// image is gamma-encoded before the mask is built. gamma = 1 is the
/// identity.
img::ImageF display_encode(const img::ImageF& in, float gamma);

/// Step 3 — non-linear masking. Each output sample is the input raised to
/// a per-pixel exponent driven by the blurred intensity mask:
///
///     gamma(x, y) = 2 ^ ((mask(x, y) - 0.5) / 0.5)
///     out(x, y, c) = in(x, y, c) ^ gamma(x, y)
///
/// Dark neighbourhoods (mask < 0.5) get gamma < 1 and brighten; bright
/// neighbourhoods darken — "dark zones will become brighter while bright
/// zones will become darker" (§II). This is Moroney's local color
/// correction with the mask inversion folded into the exponent's sign.
/// `in` may have 1..4 channels; `mask` must be 1-channel and same size.
/// Both 2^(...) and the power are evaluated by the pow_kernel.hpp kernel,
/// not libm.
img::ImageF nonlinear_masking(const img::ImageF& in, const img::ImageF& mask);

/// Step 4 — brightness and contrast adjustment "to improve quality":
///     out = clamp((in - 0.5) * contrast + 0.5 + brightness, 0, 1)
img::ImageF brightness_contrast(const img::ImageF& in, float brightness,
                                float contrast);

// Row-span forms of the point-wise stages. The whole-plane functions above
// and the staged pipeline (stages::normalize) are loops over these; the
// fused streaming engine (fused_stream.cpp) applies masking_row as rows
// leave its line buffers, and runs its front (normalize, encode,
// luminance) as one front_row pass (pow_kernel.hpp), which
// tests/pow_kernel_test.cpp pins bit for bit to these rows followed by
// img::luminance_row. The frame maximum is max_sample_row
// (pow_kernel.hpp). `in` and `out` may alias (every operation is
// element-wise). `n` counts samples (pixels x channels).

/// normalize_to_max's inner loop: out[i] = in[i] / max_v.
void normalize_max_row(const float* in, float* out, std::size_t n,
                       float max_v);

/// The external-scale normalisation of stages::normalize:
/// out[i] = clamp(in[i] / scale, 0, 1).
void normalize_scale_row(const float* in, float* out, std::size_t n,
                         float scale);

/// display_encode's inner loop: out[i] = max(in[i], 0) ^ inv_gamma (the
/// caller precomputes inv_gamma = 1 / gamma, as display_encode does),
/// i.e. pow_row.
void display_encode_row(const float* in, float* out, std::size_t n,
                        float inv_gamma);

/// nonlinear_masking's inner loop over one interleaved row of `width`
/// pixels with 1-4 `channels` samples each; `mask` holds the row's `width`
/// 1-channel mask values. One vector pass (masking_pow_row in
/// pow_kernel.hpp) evaluates gamma = 2^((clamp(mask, 0, 1) - 0.5) / 0.5)
/// once per pixel, repeats it for the pixel's samples in registers and
/// stores out = max(in, 0) ^ gamma. With `adjust` non-null the same pass
/// applies brightness_contrast's step before the store, with its bits (the
/// fused engine's back end; the staged pipeline runs the two stages as
/// their own passes).
void masking_row(const float* in, const float* mask, float* out, int width,
                 int channels, const BrightnessContrast* adjust = nullptr);

} // namespace tmhls::tonemap
