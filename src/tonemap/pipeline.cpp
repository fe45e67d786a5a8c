#include "tonemap/pipeline.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math.hpp"
#include "tonemap/frame_engine.hpp"

namespace tmhls::tonemap {

GaussianKernel PipelineOptions::kernel() const {
  if (radius > 0) return GaussianKernel(sigma, radius);
  return GaussianKernel(sigma);
}

ExecutionSelection PipelineOptions::execution() const {
  ExecutionSelection s;
  s.backend = backend.empty() ? "separable_float" : backend;
  s.use_fixed = (datapath == Datapath::fixed_point);
  return s;
}

exec::ExecutionPlan PipelineOptions::plan(int width, int height) const {
  exec::PlanRequest request;
  request.width = width;
  request.height = height;
  request.backend = execution().backend;
  request.datapath = datapath;
  request.threads = threads;
  request.fixed = fixed;
  return exec::plan(request, kernel());
}

exec::PipelineExecutor PipelineOptions::make_executor(int width,
                                                      int height) const {
  return plan(width, height).make_executor();
}

exec::PipelineExecutor PipelineOptions::make_executor() const {
  return make_executor(1024, 768);
}

namespace stages {

namespace {

void require_dst_shape(const img::ImageF& dst, int width, int height,
                       int channels, const char* stage) {
  TMHLS_REQUIRE(dst.width() == width && dst.height() == height &&
                    dst.channels() == channels,
                std::string(stage) + "_into: destination must be " +
                    std::to_string(width) + "x" + std::to_string(height) +
                    "x" + std::to_string(channels));
}

} // namespace

void normalize_into(const img::ImageF& hdr, const PipelineOptions& opt,
                    img::ImageF& dst, float* applied_scale) {
  TMHLS_REQUIRE(!hdr.empty(), "normalize: empty image");
  require_dst_shape(dst, hdr.width(), hdr.height(), hdr.channels(),
                    "normalize");
  const auto si = hdr.samples();
  const auto so = dst.samples();
  // normalize_to_max's scan and REQUIRE (or the external scale), then the
  // row ops, writing into dst instead of a fresh plane — bit-identical.
  float scale = opt.normalization_scale;
  const bool by_max = !(scale > 0.0f);
  if (by_max) {
    scale = max_sample_row(si.data(), si.size());
    TMHLS_REQUIRE(scale > 0.0f,
                  "normalize_to_max: image has no positive sample");
  }
  const bool encode = opt.display_gamma != 1.0f;
  TMHLS_REQUIRE(!encode || opt.display_gamma > 0.0f,
                "display_encode: gamma must be positive");
  const float inv_gamma = 1.0f / opt.display_gamma;
  // Row by row, as the fused engine streams them, so each row is encoded
  // (in place — the row ops allow in == out) while it is still in cache.
  const std::size_t row = static_cast<std::size_t>(hdr.width()) *
                          static_cast<std::size_t>(hdr.channels());
  for (std::size_t off = 0; off < si.size(); off += row) {
    if (by_max) {
      normalize_max_row(si.data() + off, so.data() + off, row, scale);
    } else {
      normalize_scale_row(si.data() + off, so.data() + off, row, scale);
    }
    if (encode) {
      display_encode_row(so.data() + off, so.data() + off, row, inv_gamma);
    }
  }
  if (applied_scale != nullptr) *applied_scale = scale;
}

void intensity_into(const img::ImageF& normalized, img::ImageF& dst) {
  TMHLS_REQUIRE(normalized.channels() == 1 || normalized.channels() >= 3,
                "luminance needs 1 or >=3 channels");
  require_dst_shape(dst, normalized.width(), normalized.height(), 1,
                    "intensity");
  for (int y = 0; y < normalized.height(); ++y) {
    img::luminance_row(&normalized.at_unchecked(0, y), &dst.at_unchecked(0, y),
                       normalized.width(), normalized.channels());
  }
}

void mask_into(const img::ImageF& intensity, const GaussianKernel& kernel,
               const exec::PipelineExecutor& executor, img::ImageF& dst) {
  require_dst_shape(dst, intensity.width(), intensity.height(), 1, "mask");
  dst = executor.blur(intensity, kernel);
}

void masking_into(const img::ImageF& normalized, const img::ImageF& mask,
                  img::ImageF& dst) {
  TMHLS_REQUIRE(mask.channels() == 1,
                "nonlinear_masking: mask must be 1-channel");
  TMHLS_REQUIRE(normalized.width() == mask.width() &&
                    normalized.height() == mask.height(),
                "nonlinear_masking: size mismatch");
  require_dst_shape(dst, normalized.width(), normalized.height(),
                    normalized.channels(), "masking");
  for (int y = 0; y < normalized.height(); ++y) {
    masking_row(&normalized.at_unchecked(0, y), &mask.at_unchecked(0, y),
                &dst.at_unchecked(0, y), normalized.width(),
                normalized.channels());
  }
}

void adjust_into(const img::ImageF& masked, const PipelineOptions& opt,
                 img::ImageF& dst) {
  TMHLS_REQUIRE(opt.contrast > 0.0f,
                "brightness_contrast: contrast must be > 0");
  require_dst_shape(dst, masked.width(), masked.height(), masked.channels(),
                    "adjust");
  const auto si = masked.samples();
  brightness_contrast_row(si.data(), dst.samples().data(), si.size(),
                          opt.brightness, opt.contrast);
}

img::ImageF normalize(const img::ImageF& hdr, const PipelineOptions& opt,
                      float* applied_scale) {
  TMHLS_REQUIRE(!hdr.empty(), "normalize: empty image");
  img::ImageF normalized(hdr.width(), hdr.height(), hdr.channels());
  normalize_into(hdr, opt, normalized, applied_scale);
  return normalized;
}

img::ImageF intensity(const img::ImageF& normalized) {
  img::ImageF out(normalized.width(), normalized.height(), 1);
  intensity_into(normalized, out);
  return out;
}

img::ImageF mask(const img::ImageF& intensity, const GaussianKernel& kernel,
                 const exec::PipelineExecutor& executor) {
  return executor.blur(intensity, kernel);
}

img::ImageF masking(const img::ImageF& normalized, const img::ImageF& mask) {
  img::ImageF out(normalized.width(), normalized.height(),
                  normalized.channels());
  masking_into(normalized, mask, out);
  return out;
}

img::ImageF adjust(const img::ImageF& masked, const PipelineOptions& opt) {
  img::ImageF out(masked.width(), masked.height(), masked.channels());
  adjust_into(masked, opt, out);
  return out;
}

} // namespace stages

PipelineResult tone_map(const img::ImageF& hdr, const PipelineOptions& opt) {
  TMHLS_REQUIRE(!hdr.empty(), "tone_map: empty image");
  return tone_map(hdr, opt, opt.make_executor(hdr.width(), hdr.height()));
}

PipelineResult tone_map(const img::ImageF& hdr, const PipelineOptions& opt,
                        const exec::PipelineExecutor& executor) {
  TMHLS_REQUIRE(!hdr.empty(), "tone_map: empty image");
  const GaussianKernel kernel = opt.kernel();

  PipelineResult r;
  r.normalized = stages::normalize(hdr, opt, &r.input_max);
  r.intensity = stages::intensity(r.normalized);
  r.mask = stages::mask(r.intensity, kernel, executor);
  r.masked = stages::masking(r.normalized, r.mask);
  r.output = stages::adjust(r.masked, opt);
  return r;
}

img::ImageF tone_map_image(const img::ImageF& hdr,
                           const PipelineOptions& opt) {
  TMHLS_REQUIRE(!hdr.empty(), "tone_map_image: empty image");
  return FrameEngine(opt, hdr.width(), hdr.height()).run(hdr);
}

} // namespace tmhls::tonemap
