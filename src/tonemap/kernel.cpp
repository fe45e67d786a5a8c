#include "tonemap/kernel.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"

namespace tmhls::tonemap {

namespace {

void require_finite_sigma(double sigma) {
  TMHLS_REQUIRE(std::isfinite(sigma) && sigma > 0.0,
                "kernel sigma must be finite and positive");
}

/// ceil(3 * sigma), checked against kMaxRadius before the cast to int.
int default_radius(double sigma) {
  require_finite_sigma(sigma);
  const double radius = std::ceil(3.0 * sigma);
  TMHLS_REQUIRE(radius <= kMaxRadius,
                "kernel radius ceil(3 * sigma) exceeds kMaxRadius (" +
                    std::to_string(kMaxRadius) + ")");
  return static_cast<int>(radius);
}

} // namespace

GaussianKernel::GaussianKernel(double sigma)
    : GaussianKernel(sigma, default_radius(sigma)) {}

GaussianKernel::GaussianKernel(double sigma, int radius)
    : sigma_(sigma), radius_(radius) {
  require_finite_sigma(sigma);
  TMHLS_REQUIRE(radius >= 1 && radius <= kMaxRadius,
                "kernel radius must be in [1, " + std::to_string(kMaxRadius) +
                    "], got " + std::to_string(radius));
  weights_.resize(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0.0;
  for (int k = -radius; k <= radius; ++k) {
    const double v = std::exp(-(static_cast<double>(k) * k) /
                              (2.0 * sigma * sigma));
    weights_[static_cast<std::size_t>(k + radius)] = static_cast<float>(v);
    sum += v;
  }
  for (float& w : weights_) {
    w = static_cast<float>(static_cast<double>(w) / sum);
  }
}

float GaussianKernel::weight(int k) const {
  TMHLS_REQUIRE(k >= -radius_ && k <= radius_, "kernel offset out of range");
  return weights_[static_cast<std::size_t>(k + radius_)];
}

std::vector<std::int64_t> GaussianKernel::quantised_weights(
    const fixed::FixedFormat& fmt) const {
  std::vector<std::int64_t> q;
  q.reserve(weights_.size());
  for (float w : weights_) {
    q.push_back(fmt.raw_from_double(static_cast<double>(w)));
  }
  return q;
}

double GaussianKernel::quantised_weight_sum(
    const fixed::FixedFormat& fmt) const {
  double sum = 0.0;
  for (std::int64_t raw : quantised_weights(fmt)) {
    sum += fmt.raw_to_double(raw);
  }
  return sum;
}

} // namespace tmhls::tonemap
