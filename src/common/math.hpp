// Small math helpers used across modules. Header-only.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace tmhls {

/// Clamp `v` into [lo, hi]. Like std::clamp but constexpr-friendly on floats.
template <typename T>
constexpr T clamp(T v, T lo, T hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Linear interpolation between a (t=0) and b (t=1).
template <typename T>
constexpr T lerp(T a, T b, T t) {
  return a + t * (b - a);
}

/// True if `v` is a power of two (v > 0).
constexpr bool is_pow2(std::int64_t v) { return v > 0 && (v & (v - 1)) == 0; }

/// Ceiling integer division for non-negative operands.
constexpr std::int64_t ceil_div(std::int64_t num, std::int64_t den) {
  return (num + den - 1) / den;
}

/// Round up to the next multiple of `m` (m > 0).
constexpr std::int64_t round_up(std::int64_t v, std::int64_t m) {
  return ceil_div(v, m) * m;
}

/// log2 of an integer, rounded up; log2_ceil(1) == 0.
constexpr int log2_ceil(std::int64_t v) {
  int bits = 0;
  std::int64_t pow = 1;
  while (pow < v) {
    pow <<= 1;
    ++bits;
  }
  return bits;
}

/// Relative closeness test for floating-point comparisons in tests/models.
inline bool approx_equal(double a, double b, double rel_tol = 1e-9,
                         double abs_tol = 1e-12) {
  const double diff = std::abs(a - b);
  if (diff <= abs_tol) return true;
  return diff <= rel_tol * std::max(std::abs(a), std::abs(b));
}

/// Convert decibels to a linear power ratio and back.
inline double db_to_ratio(double db) { return std::pow(10.0, db / 10.0); }
inline double ratio_to_db(double ratio) { return 10.0 * std::log10(ratio); }

/// Nearest-rank percentile of a sample set: p in [0, 1] (0.5 = median,
/// 0.99 = p99; throws InvalidArgument outside that range — note the
/// fraction scale, not 0..100). Takes the values by copy and sorts them;
/// 0 for an empty set. The one definition tmhls_cli's serve and client
/// latency tables share, so their p50/p99 columns cannot drift apart.
inline double percentile(std::vector<double> values, double p) {
  TMHLS_REQUIRE(p >= 0.0 && p <= 1.0,
                "percentile: p must be a fraction in [0, 1]");
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  return values[static_cast<std::size_t>(idx + 0.5)];
}

} // namespace tmhls
