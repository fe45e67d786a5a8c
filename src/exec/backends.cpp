#include "exec/backends.hpp"

#include "common/error.hpp"
#include "hlscode/blur_kernels.hpp"
#include "tonemap/blur_passes.hpp"
#include "tonemap/fused_stream.hpp"

namespace tmhls::exec {

namespace {

void require_single_thread(const Backend& backend,
                           const ExecutorOptions& options) {
  TMHLS_REQUIRE(options.threads == 1,
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
    const ExecutorOptions& options) const {
  require_single_thread(*this, options);
  return tonemap::blur_separable_float(intensity, kernel);
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
    const ExecutorOptions& options) const {
  require_single_thread(*this, options);
  return tonemap::blur_streaming_fixed(intensity, kernel, options.fixed);
}

BackendCapabilities FusedStreamBackend::capabilities() const {
  BackendCapabilities caps;
  caps.float_datapath = true;
  caps.streaming = true; // line-buffer working set, no full-frame tmp plane
  caps.tiled_threads = true;
  // The whole five-stage pipeline can ride this backend's streaming sweep
  // (tonemap::tone_map_fused), deleting the inter-stage plane traffic.
  caps.fused_pipeline = true;
  caps.data_bits = 32;
  caps.simd_lanes = tonemap::blur_row_simd_lanes();
  return caps;
}

img::ImageF FusedStreamBackend::run_blur(const img::ImageF& intensity,
                                         const tonemap::GaussianKernel& kernel,
                                         const ExecutorOptions& options) const {
  return tonemap::blur_fused_stream(intensity, kernel, options.threads);
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
                             const ExecutorOptions& options) const {
  if (!Backend::can_run(kernel, options)) return false;
  if (!options.use_fixed) return true;
  const tonemap::FixedBlurConfig paper = tonemap::FixedBlurConfig::paper();
  return options.fixed.data == paper.data &&
         options.fixed.accumulator == paper.accumulator;
}

img::ImageF HlsCodeBackend::run_blur(const img::ImageF& intensity,
                                     const tonemap::GaussianKernel& kernel,
                                     const ExecutorOptions& options) const {
  require_single_thread(*this, options);
  TMHLS_REQUIRE(can_run(kernel, options),
                "hlscode backend: kernels up to kMaxTaps taps only, and a "
                "fixed datapath in ap_fixed<16,2> only");
  if (options.use_fixed) return hlscode::run_blur_fixed(intensity, kernel);
  return hlscode::run_blur_float(intensity, kernel);
}

} // namespace tmhls::exec
