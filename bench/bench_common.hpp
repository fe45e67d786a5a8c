// Shared helpers for the paper-reproduction benches: the canonical system
// (ZC702 platform + paper workload), paper reference values from Table II /
// §IV and consistent table printing.
#pragma once

#include <iostream>
#include <string>

#include "accel/design.hpp"
#include "accel/system.hpp"
#include "common/table.hpp"
#include "platform/zynq.hpp"

namespace tmhls::benchkit {

/// The system every paper bench evaluates: ZC702-class Zynq platform and
/// the 1024x1024 / 79-tap workload.
inline accel::ToneMappingSystem paper_system() {
  return accel::ToneMappingSystem(zynq::ZynqPlatform::zc702(),
                                  accel::Workload::paper());
}

/// Table II reference values (seconds).
struct PaperTiming {
  double blur_s;
  double total_s;
};

inline PaperTiming paper_timing(accel::Design d) {
  switch (d) {
    case accel::Design::sw_source: return {7.29, 26.66};
    case accel::Design::marked_hw: return {176.00, 195.28};
    case accel::Design::sequential_access: return {17.02, 35.34};
    case accel::Design::hls_pragmas: return {0.79, 19.10};
    case accel::Design::fixed_point: return {0.42, 19.27};
  }
  return {0.0, 0.0};
}

/// §IV.C headline energies (joules).
inline double paper_total_energy(accel::Design d) {
  switch (d) {
    case accel::Design::sw_source: return 30.0;
    case accel::Design::fixed_point: return 23.0;
    default: return 0.0; // not reported numerically in the text
  }
}

/// Print a section header.
inline void print_header(const std::string& title) {
  std::cout << '\n' << std::string(72, '=') << '\n'
            << title << '\n'
            << std::string(72, '=') << "\n\n";
}

/// Percentage deviation of measured from paper, rendered as e.g. "+3.1 %".
inline std::string deviation(double measured, double paper) {
  if (paper == 0.0) return "-";
  const double pct = 100.0 * (measured - paper) / paper;
  // Built up step-wise: the one-expression concatenation trips a GCC 12
  // -Wrestrict false positive (PR105651).
  std::string out = pct >= 0 ? "+" : "";
  out += format_fixed(pct, 1);
  out += " %";
  return out;
}

} // namespace tmhls::benchkit
