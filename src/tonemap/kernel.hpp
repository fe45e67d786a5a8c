// Gaussian convolution kernels for the separable blur (§II.A step 2).
//
// "The number of adjacent pixels and the weights of the multiplications are
// determined by width and magnitude of a Gaussian distribution." The kernel
// is one-dimensional because the 2D Gaussian is separable into a horizontal
// and a vertical pass.
#pragma once

#include <cstdint>
#include <vector>

#include "fixed/fixed_format.hpp"

namespace tmhls::tonemap {

/// Largest kernel radius a GaussianKernel accepts: the wire's largest frame
/// dimension (transport::wire::kMaxDimension), beyond which every extra tap
/// only re-reads clamped border pixels. Bounds what one request can make a
/// shard allocate and compute.
inline constexpr int kMaxRadius = 4096;

/// A normalised 1D Gaussian kernel: weights[radius + k] for k in
/// [-radius, radius], summing to 1.
class GaussianKernel {
public:
  /// Build from a standard deviation; radius defaults to ceil(3*sigma),
  /// covering 99.7% of the distribution's mass. Throws InvalidArgument
  /// unless sigma is finite and positive and the radius is at most
  /// kMaxRadius.
  explicit GaussianKernel(double sigma);

  /// Build with an explicit radius (taps = 2*radius + 1). Throws
  /// InvalidArgument unless sigma is finite and positive and radius is in
  /// [1, kMaxRadius].
  GaussianKernel(double sigma, int radius);

  double sigma() const { return sigma_; }
  int radius() const { return radius_; }
  /// Number of taps, 2*radius + 1.
  int taps() const { return static_cast<int>(weights_.size()); }

  /// Normalised float weights (sum exactly renormalised to 1 in double).
  const std::vector<float>& weights() const { return weights_; }

  /// Weight at offset k in [-radius, radius].
  float weight(int k) const;

  /// Kernel weights quantised into a fixed-point format, as raw integer
  /// patterns — what the hardware datapath ROM would hold. Tail weights
  /// may quantise to zero for narrow formats; that loss is part of the
  /// fixed-point accuracy trade-off being measured.
  std::vector<std::int64_t> quantised_weights(
      const fixed::FixedFormat& fmt) const;

  /// Sum of the quantised weights, as a real value (ideally close to 1).
  double quantised_weight_sum(const fixed::FixedFormat& fmt) const;

private:
  double sigma_;
  int radius_;
  std::vector<float> weights_;
};

} // namespace tmhls::tonemap
