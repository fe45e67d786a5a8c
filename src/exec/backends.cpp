#include "exec/backends.hpp"

#include "common/error.hpp"
#include "exec/registry.hpp"
#include "hlscode/blur_kernels.hpp"
#include "tonemap/blur_passes.hpp"
#include "tonemap/fused_stream.hpp"

namespace tmhls::exec {

namespace {

void require_single_thread(const Backend& backend, const BlurContext& ctx) {
  TMHLS_REQUIRE(ctx.threads == 1,
                std::string(backend.name()) +
                    " backend does not support tiled multi-threading");
}

} // namespace

BackendCapabilities SeparableFloatBackend::capabilities() const {
  BackendCapabilities caps;
  caps.float_datapath = true;
  caps.data_bits = 32;
  return caps;
}

img::ImageF SeparableFloatBackend::run_blur(
    const img::ImageF& intensity, const tonemap::GaussianKernel& kernel,
    const BlurContext& ctx) const {
  require_single_thread(*this, ctx);
  return tonemap::blur_separable_float(intensity, kernel);
}

BackendCapabilities SeparableSimdBackend::capabilities() const {
  BackendCapabilities caps;
  caps.float_datapath = true;
  caps.data_bits = 32;
  caps.simd_lanes = tonemap::kSimdDefaultLanes;
  return caps;
}

img::ImageF SeparableSimdBackend::run_blur(
    const img::ImageF& intensity, const tonemap::GaussianKernel& kernel,
    const BlurContext& ctx) const {
  require_single_thread(*this, ctx);
  TMHLS_REQUIRE(intensity.channels() == 1, "blur expects a 1-channel image");
  const int h = intensity.height();
  img::ImageF tmp(intensity.width(), h, 1);
  img::ImageF dst(intensity.width(), h, 1);
  tonemap::blur_hpass_float_rows_simd(intensity, tmp, kernel, 0, h);
  tonemap::blur_vpass_float_rows_simd(tmp, dst, kernel, 0, h);
  return dst;
}

BackendCapabilities StreamingFixedBackend::capabilities() const {
  BackendCapabilities caps;
  caps.fixed_datapath = true;
  caps.streaming = true;
  caps.data_bits = tonemap::FixedBlurConfig::paper().data.width();
  return caps;
}

img::ImageF StreamingFixedBackend::run_blur(
    const img::ImageF& intensity, const tonemap::GaussianKernel& kernel,
    const BlurContext& ctx) const {
  require_single_thread(*this, ctx);
  return tonemap::blur_streaming_fixed(intensity, kernel, ctx.fixed);
}

BackendCapabilities FusedStreamBackend::capabilities() const {
  BackendCapabilities caps;
  caps.float_datapath = true;
  caps.streaming = true; // line-buffer working set, no full-frame tmp plane
  caps.tiled_threads = true;
  // The whole five-stage pipeline can ride this backend's streaming sweep
  // (tonemap::tone_map_fused), deleting the inter-stage plane traffic —
  // what estimate_pipeline_cost credits this flag for.
  caps.fused_pipeline = true;
  caps.data_bits = 32;
  caps.simd_lanes = tonemap::kSimdDefaultLanes;
  return caps;
}

img::ImageF FusedStreamBackend::run_blur(const img::ImageF& intensity,
                                         const tonemap::GaussianKernel& kernel,
                                         const BlurContext& ctx) const {
  return tonemap::blur_fused_stream(intensity, kernel, ctx.band_count());
}

BackendCapabilities HlsCodeBackend::capabilities() const {
  BackendCapabilities caps;
  caps.float_datapath = true;
  caps.fixed_datapath = true;
  caps.streaming = true;
  caps.synthesizable = true;
  caps.data_bits = 32; // the float datapath
  caps.dual_fixed_data_bits =
      tonemap::FixedBlurConfig::paper().data.width(); // the Pixel16 one
  caps.max_taps = hlscode::kMaxTaps; // the synthesizable static bound
  return caps;
}

bool HlsCodeBackend::can_run(const tonemap::GaussianKernel& kernel,
                             const BlurContext& ctx) const {
  if (!Backend::can_run(kernel, ctx)) return false;
  if (!ctx.use_fixed) return true;
  const tonemap::FixedBlurConfig paper = tonemap::FixedBlurConfig::paper();
  return ctx.fixed.data == paper.data &&
         ctx.fixed.accumulator == paper.accumulator;
}

img::ImageF HlsCodeBackend::run_blur(const img::ImageF& intensity,
                                     const tonemap::GaussianKernel& kernel,
                                     const BlurContext& ctx) const {
  require_single_thread(*this, ctx);
  TMHLS_REQUIRE(kernel.taps() <= hlscode::kMaxTaps,
                "hlscode backend: kernel exceeds the synthesizable static "
                "bound kMaxTaps");
  if (ctx.use_fixed) {
    // The synthesizable fixed datapath is the paper's Pixel16 format.
    TMHLS_REQUIRE(ctx.fixed.data == tonemap::FixedBlurConfig::paper().data &&
                      ctx.fixed.accumulator ==
                          tonemap::FixedBlurConfig::paper().accumulator,
                  "hlscode backend: fixed datapath is ap_fixed<16,2> only");
    return hlscode::run_blur_fixed(intensity, kernel);
  }
  return hlscode::run_blur_float(intensity, kernel);
}

void register_builtin_backends(BackendRegistry& registry) {
  registry.register_backend("separable_float", [] {
    return std::make_shared<const SeparableFloatBackend>();
  });
  registry.register_backend("separable_simd", [] {
    return std::make_shared<const SeparableSimdBackend>();
  });
  registry.register_backend("streaming_fixed", [] {
    return std::make_shared<const StreamingFixedBackend>();
  });
  registry.register_backend(
      "hlscode", [] { return std::make_shared<const HlsCodeBackend>(); });
  registry.register_backend("fused_stream", [] {
    return std::make_shared<const FusedStreamBackend>();
  });
}

} // namespace tmhls::exec
