// The execution-backend abstraction: *where and how* the pipeline's
// accelerated stage (the Gaussian mask blur) runs, separated from *what*
// it computes — the algorithm/schedule split that AnyHLS and the Halide
// heterogeneous-DSL line of work apply to HLS targets, applied here to the
// host pipeline. As in AnyHLS, the schedule is one value: ExecutorOptions
// ({threads, use_fixed, fixed}), which tonemap::PipelineOptions::plan
// decides once and every backend hook takes as is.
//
// A Backend owns one implementation strategy of the blur (direct separable,
// streaming line-buffer, fixed-point streaming, or the synthesizable
// hlscode kernels) and reports static capabilities plus a can_run hook,
// so callers (PipelineExecutor, accel::ToneMappingSystem) select and
// reason about implementations without switching on an enum.
#pragma once

#include "image/image.hpp"
#include "tonemap/blur.hpp"
#include "tonemap/kernel.hpp"

namespace tmhls::exec {

/// Static properties of a backend implementation, queried by the executor
/// (thread clamping), the accel layer (datapath width for DMA/BRAM sizing)
/// and tools (listing).
struct BackendCapabilities {
  /// Supports the 32-bit float datapath.
  bool float_datapath = false;
  /// Supports a fixed-point datapath (quantised at the boundary).
  bool fixed_datapath = false;
  /// Raster-order streaming access pattern (line buffer / shift register),
  /// i.e. the FPGA-friendly §III.B form.
  bool streaming = false;
  /// Routes through the synthesizable hlscode kernels (the sources Vivado
  /// HLS would compile), not only a golden model.
  bool synthesizable = false;
  /// Supports the multi-threaded tiled (row-band) execution mode.
  bool tiled_threads = false;
  /// The backend can execute the WHOLE five-stage tone-mapping pipeline
  /// fused into its streaming sweep (tonemap::tone_map_fused): the
  /// point-wise stages ride the blur pass, so one pipeline invocation
  /// touches DRAM only for the input and output planes. Without it, the
  /// staged pipeline materialises every intermediate plane through memory
  /// between stages. tonemap::FrameEngine takes the fused route on it.
  bool fused_pipeline = false;
  /// Datapath element width in bits (32 for float, the data format width
  /// for fixed-point backends); what the accel layer sizes DMA transfers
  /// and BRAM line buffers with.
  int data_bits = 32;
  /// Element width of the fixed datapath for dual-datapath backends
  /// (data_bits then describes the float one); 0 when not applicable or
  /// when data_bits already describes the fixed datapath.
  int dual_fixed_data_bits = 0;
  /// Output pixels computed per SIMD vector by the implementation's inner
  /// loops; 1 for scalar implementations.
  int simd_lanes = 1;
  /// Largest kernel tap count the implementation supports (a static bound
  /// such as the synthesizable kernels' kMaxTaps); 0 means unbounded.
  int max_taps = 0;
};

/// The execution parameters of one blur: what PipelineOptions::plan
/// decides and every Backend hook takes.
struct ExecutorOptions {
  /// Worker threads for the tiled mode. Must be >= 1. PipelineExecutor
  /// clamps it to 1 for backends without tiled_threads; called directly,
  /// such backends refuse any other value.
  int threads = 1;
  /// For backends supporting both datapaths (hlscode): run the fixed-point
  /// one. Ignored by backends whose datapath is fixed by identity.
  bool use_fixed = false;
  /// Fixed-point formats, used by fixed-datapath backends.
  tonemap::FixedBlurConfig fixed = tonemap::FixedBlurConfig::paper();
};

/// One execution strategy for the Gaussian mask blur.
class Backend {
public:
  virtual ~Backend() = default;

  /// Registry name, e.g. "streaming_fixed".
  virtual const char* name() const = 0;

  virtual BackendCapabilities capabilities() const = 0;

  /// Blur a 1-channel intensity plane. Must be bit-identical across thread
  /// counts for backends with tiled_threads.
  virtual img::ImageF run_blur(const img::ImageF& intensity,
                               const tonemap::GaussianKernel& kernel,
                               const ExecutorOptions& options) const = 0;

  /// Whether this backend can execute a blur of `kernel` under `options`.
  /// The default checks the datapath the options select and the kernel
  /// against the capability struct (fixed/float datapath, max_taps);
  /// backends with restrictions the struct cannot express (e.g. hlscode's
  /// paper-format-only fixed datapath) override. PipelineOptions::plan
  /// gates on this hook, for "auto" and named backends alike.
  virtual bool can_run(const tonemap::GaussianKernel& kernel,
                       const ExecutorOptions& options) const;
};

} // namespace tmhls::exec
