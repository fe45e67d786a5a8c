// The four execution backends:
//
//   SeparableFloatBackend — the original CPU form (direct neighbour
//       indexing), the paper's "SW source code" baseline.
//   StreamingFixedBackend — the §III.C restructured form with the
//       ap_fixed-modelled datapath.
//   HlsCodeBackend        — routes through the synthesizable hlscode
//       streaming kernels (blur_pass_* / gaussian_blur_top_*), so the
//       sources Vivado HLS would compile are exercised by the real
//       pipeline, in either datapath.
//   FusedStreamBackend    — the fused sliding-window engine
//       (tonemap::blur_fused_stream): both blur passes in one sweep per
//       frame through a taps-row line buffer, the SIMD row passes of
//       blur_passes.hpp, no full-frame intermediate plane. Float datapath,
//       bit-identical to the separable form at every thread count.
//
// Only the fused engine runs multi-threaded (halo-recomputing row bands,
// bit-identical to single-threaded); the other backends are the golden
// reference and the paper artifacts and run on one thread. The
// §III.B line-buffer model itself, tonemap::blur_streaming_float, stays
// a golden model rather than a backend: the fused engine is its
// production form.
#pragma once

#include "exec/backend.hpp"

namespace tmhls::exec {

class SeparableFloatBackend final : public Backend {
public:
  const char* name() const override { return "separable_float"; }
  BackendCapabilities capabilities() const override;
  img::ImageF run_blur(const img::ImageF& intensity,
                       const tonemap::GaussianKernel& kernel,
                       const ExecutorOptions& options) const override;
};

class StreamingFixedBackend final : public Backend {
public:
  const char* name() const override { return "streaming_fixed"; }
  BackendCapabilities capabilities() const override;
  img::ImageF run_blur(const img::ImageF& intensity,
                       const tonemap::GaussianKernel& kernel,
                       const ExecutorOptions& options) const override;
};

class FusedStreamBackend final : public Backend {
public:
  const char* name() const override { return "fused_stream"; }
  BackendCapabilities capabilities() const override;
  img::ImageF run_blur(const img::ImageF& intensity,
                       const tonemap::GaussianKernel& kernel,
                       const ExecutorOptions& options) const override;
};

class HlsCodeBackend final : public Backend {
public:
  const char* name() const override { return "hlscode"; }
  BackendCapabilities capabilities() const override;
  img::ImageF run_blur(const img::ImageF& intensity,
                       const tonemap::GaussianKernel& kernel,
                       const ExecutorOptions& options) const override;
  /// Adds the synthesizable restriction the capability struct cannot
  /// express: the fixed datapath exists only in the paper's ap_fixed<16,2>
  /// formats.
  bool can_run(const tonemap::GaussianKernel& kernel,
               const ExecutorOptions& options) const override;
};

} // namespace tmhls::exec
