#include "tonemap/pipeline.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math.hpp"
#include "exec/registry.hpp"
#include "tonemap/frame_engine.hpp"

namespace tmhls::tonemap {

GaussianKernel PipelineOptions::kernel() const {
  if (radius > 0) return GaussianKernel(sigma, radius);
  return GaussianKernel(sigma);
}

Datapath datapath_from_string(const std::string& name) {
  if (name == "float" || name == "float32") return Datapath::float32;
  if (name == "fixed" || name == "fixed_point") return Datapath::fixed_point;
  throw InvalidArgument("unknown datapath: " + name +
                        " (expected float or fixed)");
}

exec::PipelineExecutor PipelineOptions::plan(int width, int height) const {
  TMHLS_REQUIRE(width > 0 && height > 0,
                "PipelineOptions::plan: frame dimensions must be positive");
  const exec::BackendRegistry& registry = exec::BackendRegistry::global();
  const GaussianKernel k = kernel();
  exec::ExecutorOptions eo;
  eo.threads = threads;
  eo.use_fixed = datapath == Datapath::fixed_point;
  eo.fixed = fixed;

  if (backend == "auto") {
    // fused_stream has no tap bound: it runs every float request.
    if (!eo.use_fixed) {
      return exec::PipelineExecutor(registry.resolve("fused_stream"), eo);
    }
    exec::PipelineExecutor hls(registry.resolve("hlscode"), eo);
    if (hls.backend().can_run(k, hls.options())) return hls;
    return exec::PipelineExecutor(registry.resolve("streaming_fixed"), eo);
  }

  // An empty name is the golden model of the requested datapath.
  const std::string name =
      !backend.empty() ? backend
                       : (eo.use_fixed ? "streaming_fixed" : "separable_float");
  std::shared_ptr<const exec::Backend> named = registry.resolve(name);
  // A fixed-only backend named with an unspecified datapath runs its only
  // datapath, so `--backend streaming_fixed` alone just works.
  if (datapath == Datapath::unspecified &&
      !named->capabilities().float_datapath) {
    eo.use_fixed = true;
  }
  exec::PipelineExecutor executor(std::move(named), eo);
  if (!executor.backend().can_run(k, executor.options())) {
    const std::string on =
        eo.use_fixed ? "fixed-point datapath (data " +
                           fixed.data.to_string() + ", accumulator " +
                           fixed.accumulator.to_string() + ")"
                     : std::string("float datapath");
    throw InvalidArgument("backend " + name + " cannot run a " +
                          std::to_string(k.taps()) + "-tap kernel on the " +
                          on + "; choose another backend or datapath");
  }
  return executor;
}

namespace stages {

img::ImageF normalize(const img::ImageF& hdr, const PipelineOptions& opt,
                      float* applied_scale) {
  TMHLS_REQUIRE(!hdr.empty(), "normalize: empty image");
  img::ImageF normalized(hdr.width(), hdr.height(), hdr.channels());
  const auto si = hdr.samples();
  const auto so = normalized.samples();
  // normalize_to_max's scan and REQUIRE (or the external scale), then the
  // row ops, writing into one fresh plane — bit-identical.
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
  return normalized;
}

img::ImageF intensity(const img::ImageF& normalized) {
  img::ImageF out(normalized.width(), normalized.height(), 1);
  TMHLS_REQUIRE(normalized.channels() == 1 || normalized.channels() >= 3,
                "luminance needs 1 or >=3 channels");
  for (int y = 0; y < normalized.height(); ++y) {
    img::luminance_row(&normalized.at_unchecked(0, y), &out.at_unchecked(0, y),
                       normalized.width(), normalized.channels());
  }
  return out;
}

img::ImageF mask(const img::ImageF& intensity, const GaussianKernel& kernel,
                 const exec::PipelineExecutor& executor) {
  return executor.blur(intensity, kernel);
}

img::ImageF masking(const img::ImageF& normalized, const img::ImageF& mask) {
  return nonlinear_masking(normalized, mask);
}

img::ImageF adjust(const img::ImageF& masked, const PipelineOptions& opt) {
  return brightness_contrast(masked, opt.brightness, opt.contrast);
}

} // namespace stages

PipelineResult tone_map(const img::ImageF& hdr, const PipelineOptions& opt) {
  TMHLS_REQUIRE(!hdr.empty(), "tone_map: empty image");
  return tone_map(hdr, opt, opt.plan(hdr.width(), hdr.height()));
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
