// The one pow / exp2 kernel of the point-wise stages (display encoding and
// non-linear masking), and the vector row passes around it: the fused
// engine's front (normalize, encode, luminance in one pass) and the
// frame-max scan. It is not libm: log2 and exp2 are built from range
// reduction and fixed-order polynomials in float, the way hardware tone
// mappers evaluate these curves, and every operation is an IEEE-754 basic
// operation (add, sub, mul, div, compare, convert, bitwise) evaluated
// lane-wise in a fixed order. The build forbids FMA contraction
// (-ffp-contract=off), so the result of every sample depends only on its
// inputs — not on the vector width, the ISA the dispatcher picked, how
// many vectors the build keeps in flight, the position in the row or
// whether the sample went through the padded tail.
// That is what keeps every tone-mapping path (staged, fused at any thread
// count, video, service, streams) bit-identical to the golden model.
//
// Accuracy against std::pow evaluated in double and rounded to float:
//   - max-abs error <= 2e-7 for x in [0, 1] and y in [1/2.2, 2] (the
//     display-referred domain of both stages);
//   - relative error grows with |y * log2 x| (the float product carries the
//     rounding of the exponent into the result): <= 8 ulp while the result
//     is >= 2^-8, <= 64 ulp down to results of 2^-80.
// tests/pow_kernel_test.cpp pins both bounds and the special cases.
//
// The analytic models (op_counts' pow_calls/exp2_calls and
// platform::CpuModel::pow_call) are unchanged: they model the paper's Zynq
// ARM running libm, not this host kernel.
#pragma once

#include <cstddef>

namespace tmhls::tonemap {

/// out[i] = max(x[i], 0) ^ y for one shared exponent y (positive, finite).
/// Exact special cases: 0 -> 0, 1 -> 1, +Inf -> +Inf, NaN -> NaN; denormal
/// inputs are rescaled and give finite results. `x` and `out` may alias
/// exactly (element-wise).
void pow_row(const float* x, float* out, std::size_t n, float y);

/// out[i] = 2 ^ t[i]: +Inf above 128, 0 below -151, denormal results
/// correctly rounded, NaN -> NaN. `t` and `out` may alias exactly.
void exp2_row(const float* t, float* out, std::size_t n);

/// The brightness/contrast step a masking pass can apply before its store:
/// r -> clamp((r - 0.5) * contrast + 0.5 + brightness, 0, 1).
struct BrightnessContrast {
  float brightness = 0.0f;
  float contrast = 1.0f;
};

/// The kernel of operators.hpp masking_row (1-4 `channels`): the bits of
/// exp2_row of each pixel's exponent, pow_row of each of its samples and,
/// with `adjust` non-null, the scalar clamp. `x` and `out` may alias.
void masking_pow_row(const float* x, const float* mask, float* out,
                     std::size_t width, int channels,
                     const BrightnessContrast* adjust);

/// What the fused engine's front does to each sample before its
/// luminance: divide by `scale`, clamp the quotient to [0, 1] when
/// `clamp` (the external scale), then raise it to `inv_gamma` when
/// `encode` (display_gamma != 1).
struct FrontStep {
  float scale = 1.0f;
  bool clamp = false;
  bool encode = false;
  float inv_gamma = 1.0f;
};

/// The point-wise front of the fused engine for one source row of `width`
/// pixels of 1, 3 or 4 `channels`, in one vector pass: `out` receives the
/// bits of operators.hpp normalize_max_row (with `clamp`,
/// normalize_scale_row) then, with `encode`, display_encode_row;
/// `luminance` the `width` values of img::luminance_row of `out`. `x` and
/// `out` may alias exactly; `luminance` aliases neither.
void front_row(const float* x, float* out, float* luminance,
               std::size_t width, int channels, const FrontStep& step);

/// The frame maximum normalize_to_max divides by: the fold
/// m = (m < x[i] ? x[i] : m) from m = +0, i.e. the largest positive
/// sample (NaN never wins), or +0 when there is none. That value does not
/// depend on the fold order, so the scan runs as kSampleVectors vector
/// folds.
float max_sample_row(const float* x, std::size_t n);

/// Lanes of the build the functions above run: 16, 8 or 4.
int pow_kernel_lanes();

namespace detail {

/// The kernel compiled for one instruction set. Every table computes the
/// same bits; the public functions above run the widest one the CPU has.
struct PowKernels {
  int lanes;
  void (*pow_shared)(const float* x, float* out, std::size_t n, float y);
  void (*exp2)(const float* t, float* out, std::size_t n);
  void (*masking)(const float* x, const float* mask, float* out,
                  std::size_t width, int channels,
                  const BrightnessContrast* adjust);
  void (*front)(const float* x, float* out, float* luminance,
                std::size_t width, int channels, const FrontStep& step);
  float (*max)(const float* x, std::size_t n);
};

/// The vectors a block keeps in flight, the same on every build:
/// sample vectors per pow_shared/exp2/max block, pixel vectors per
/// masking block (each pixel vector is `channels` sample vectors). A
/// front block keeps kSampleVectors / channels pixel vectors.
constexpr int kSampleVectors = 8;
constexpr int kPixelVectors = 2;

/// Portable 4-lane generic-vector build (SSE2 / NEON registers).
const PowKernels& pow_kernels_generic();

/// The same source compiled 8 lanes wide for AVX2; nullptr when the build
/// target is not x86-64 or the CPU lacks AVX2.
const PowKernels* pow_kernels_avx2();

/// The same source compiled 16 lanes wide for AVX-512F; nullptr when the
/// build target is not x86-64 or the CPU lacks AVX-512F.
const PowKernels* pow_kernels_avx512();

} // namespace detail

} // namespace tmhls::tonemap
