// The complete tone-mapping pipeline of Fig 1: normalization -> Gaussian
// blur (of the intensity plane) -> non-linear masking -> brightness &
// contrast adjustments. This is the *functional* pipeline; the platform/
// accel layers decide where each stage executes and at what cost.
//
// PipelineOptions::plan is the one place execution is decided: it turns
// the backend / datapath / threads request into the exec::PipelineExecutor
// that runs the blur, the way the paper picks its design once from the
// Table II sweep and then simply runs it. The reserved backend "auto" is a
// fixed capability rule:
//   float datapath (unspecified or float) — fused_stream at the requested
//       threads (the fastest engine on this host, and the only threaded one);
//   fixed datapath — hlscode when it can run the kernel and formats (the
//       paper's formats, taps <= kMaxTaps), else streaming_fixed.
// Plans choose scheduling, never bits: every float plan blurs
// byte-identically to separable_float at one thread.
//
// The pipeline is exposed at two granularities:
//   * tone_map() — the staged one-call-per-frame form (a thin composition),
//     the golden reference on separable_float;
//   * stages::*  — the five explicit stage functions it composes, which
//     the benches and probes also time one by one.
// Consumers that run many frames go through tonemap::FrameEngine
// (frame_engine.hpp), which plans once and picks the fused or the staged
// route per plan.
#pragma once

#include <optional>
#include <string>

#include "exec/executor.hpp"
#include "image/image.hpp"
#include "tonemap/blur.hpp"
#include "tonemap/kernel.hpp"
#include "tonemap/operators.hpp"

namespace tmhls::tonemap {

/// The numeric-datapath request PipelineOptions::plan resolves.
/// `unspecified` follows the backend: float for float-capable backends,
/// fixed for fixed-only ones (so naming streaming_fixed alone just works);
/// an explicit value the backend cannot run is an error at plan time.
enum class Datapath {
  unspecified,
  float32,     ///< the 32-bit float datapath
  fixed_point, ///< the fixed-point datapath (formats from the options)
};

/// Parse "float" / "fixed" (also accepts "float32" / "fixed_point");
/// throws InvalidArgument otherwise.
Datapath datapath_from_string(const std::string& name);

/// Pipeline configuration. Defaults reproduce the paper's workload.
struct PipelineOptions {
  /// Gaussian mask scale. sigma = 16 with radius = 3*sigma = 48 gives the
  /// 97-tap kernel used by all paper-reproduction experiments.
  double sigma = 16.0;
  /// Kernel radius; 0 selects ceil(3 * sigma).
  int radius = 0;
  /// Execution backend by registry name (e.g. "hlscode"); empty selects
  /// the golden model of the requested datapath — separable_float, or
  /// streaming_fixed for fixed_point. The reserved name "auto" applies the
  /// capability rule in the file comment.
  std::string backend;
  /// Datapath of the selected backend. plan() snaps `unspecified` to the
  /// backend's only datapath for fixed-only backends (and rejects a
  /// datapath the backend cannot run).
  Datapath datapath = Datapath::unspecified;
  /// Worker threads (row bands) of the fused engine; backends without the
  /// tiled_threads capability run single-threaded.
  int threads = 1;
  /// Fixed-point formats (used only by fixed-datapath backends).
  FixedBlurConfig fixed = FixedBlurConfig::paper();
  /// Display gamma applied within step 1 (normalisation): the non-linear
  /// masking operates on display-referred values (Moroney, CIC 2000).
  /// 1.0 disables the encoding.
  float display_gamma = 2.2f;
  /// External normalisation scale. 0 (default) normalises by the frame's
  /// own maximum (the paper's single-image behaviour); a positive value
  /// divides by that scale instead (clamping at 1), which video pipelines
  /// use to keep the mapping temporally stable across frames.
  float normalization_scale = 0.0f;
  /// Step-4 adjustments.
  float brightness = 0.05f;
  float contrast = 1.15f;

  /// The kernel implied by sigma/radius.
  GaussianKernel kernel() const;

  /// Decide execution for a frame of the given geometry: resolve the
  /// backend ("" and "auto" as above), the datapath and the threads, and
  /// return the executor that runs the blur — the ONE place every layer
  /// (CLI and FrameEngine, which serve, stream and video run through) gets
  /// its execution decision. Throws InvalidArgument on a non-positive
  /// geometry, threads < 1, an unknown backend, or a named backend that
  /// cannot run the kernel on the requested datapath and formats.
  exec::PipelineExecutor plan(int width, int height) const;

  /// Field-wise equality. Equal options produce bit-identical pipelines
  /// (every field participates in the output), so this is the reuse test
  /// serving layers apply before running a job through a cached session
  /// instead of building a new one. Two options that plan the same
  /// execution but spell it differently (e.g. "" vs "separable_float")
  /// compare unequal — a conservative answer that can only cost a
  /// rebuild, never bit-identity.
  bool operator==(const PipelineOptions&) const = default;
};

/// All intermediate artefacts of one pipeline run, for inspection, tests
/// and the experiments (e.g. the mask image, or the normalised input that
/// is the accelerator's actual input).
struct PipelineResult {
  img::ImageF normalized;  ///< step-1 output (input scaled into [0, 1])
  img::ImageF intensity;   ///< luminance plane fed to the blur
  img::ImageF mask;        ///< blurred intensity (the accelerated function's output)
  img::ImageF masked;      ///< step-3 output before adjustments
  img::ImageF output;      ///< final display-referred image in [0, 1]
  float input_max = 0.0f;  ///< normalisation scale that was applied
};

/// The pipeline's five stages as explicit functions. tone_map() is the
/// composition normalize -> intensity -> mask -> masking -> adjust.
namespace stages {

/// Stage 1 — normalisation (+ display encoding). A positive
/// opt.normalization_scale divides by that scale (clamping at 1);
/// otherwise the frame's own maximum is used. `applied_scale`, when
/// non-null, receives the scale that was applied. Then the display gamma
/// encoding (opt.display_gamma; 1 = identity).
img::ImageF normalize(const img::ImageF& hdr, const PipelineOptions& opt,
                      float* applied_scale = nullptr);

/// Stage 2 — the luminance plane the mask blur consumes.
img::ImageF intensity(const img::ImageF& normalized);

/// Stage 3 — the mask: the Gaussian blur of the intensity plane, delegated
/// to `executor` (the accelerated stage; the only non-point-wise one).
img::ImageF mask(const img::ImageF& intensity, const GaussianKernel& kernel,
                 const exec::PipelineExecutor& executor);

/// Stage 4 — non-linear masking of the normalised image by the mask.
img::ImageF masking(const img::ImageF& normalized, const img::ImageF& mask);

/// Stage 5 — brightness/contrast adjustment (opt.brightness, opt.contrast).
img::ImageF adjust(const img::ImageF& masked, const PipelineOptions& opt);

// Destination-plane forms. Each writes its result into `dst`, which must
// already carry the stage's output geometry (same width x height as the
// input; normalize/masking/adjust keep the input's channel count,
// intensity produces 1 channel). The value-returning forms above are thin
// allocate-then-write-into wrappers over these, so the two spellings are
// bit-identical by construction — and under a plane-pool scope
// (img::PlanePool) the wrapper's allocation is itself a recycled pool
// plane, which is how a warm serving job writes every stage into storage
// the pool already owns.

/// normalize() into a caller-owned plane of hdr's geometry.
void normalize_into(const img::ImageF& hdr, const PipelineOptions& opt,
                    img::ImageF& dst, float* applied_scale = nullptr);

/// intensity() into a caller-owned 1-channel plane.
void intensity_into(const img::ImageF& normalized, img::ImageF& dst);

/// mask() into a caller-owned 1-channel plane: the blur is delegated to
/// `executor` (whose result plane lands in `dst` by move, releasing
/// dst's previous buffer to its pool — backends own their output
/// allocation, and under a pool scope that allocation recycles too).
void mask_into(const img::ImageF& intensity, const GaussianKernel& kernel,
               const exec::PipelineExecutor& executor, img::ImageF& dst);

/// masking() into a caller-owned plane of normalized's geometry.
void masking_into(const img::ImageF& normalized, const img::ImageF& mask,
                  img::ImageF& dst);

/// adjust() into a caller-owned plane of masked's geometry.
void adjust_into(const img::ImageF& masked, const PipelineOptions& opt,
                 img::ImageF& dst);

} // namespace stages

/// Run the full pipeline on a linear-light HDR image (1..4 channels).
/// The mask stage is delegated to the executor implied by `opt`. A thin
/// wrapper over the stage functions above.
PipelineResult tone_map(const img::ImageF& hdr, const PipelineOptions& opt = {});

/// As above but with a caller-owned executor (persistent across frames);
/// `opt`'s backend/threads fields are ignored in favour of `executor`.
PipelineResult tone_map(const img::ImageF& hdr, const PipelineOptions& opt,
                        const exec::PipelineExecutor& executor);

/// Convenience wrapper returning only the final image: one FrameEngine run
/// planned for hdr's geometry, so a plan that resolves to the fused engine
/// ("auto" included) streams the frame instead of materialising the
/// intermediate planes. Bit-identical to tone_map(hdr, opt).output.
img::ImageF tone_map_image(const img::ImageF& hdr,
                           const PipelineOptions& opt = {});

} // namespace tmhls::tonemap
