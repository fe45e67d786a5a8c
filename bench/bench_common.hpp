// Shared helpers for the paper-reproduction benches: the canonical system
// (ZC702 platform + paper workload), paper reference values from Table II /
// §IV, consistent table printing, and the one-record-per-line JSON format
// the perf trajectory accumulates in.
#pragma once

#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "accel/design.hpp"
#include "accel/system.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "platform/zynq.hpp"

namespace tmhls::benchkit {

/// One flat JSON measurement record, emitted as a single line (JSONL) so
/// runs of different benches concatenate into one machine-readable stream:
///   {"bench":"backend_throughput","backend":"fused_stream",...}
/// Keys appear in insertion order; string values are escaped minimally
/// (quotes and backslashes — bench names and backend names need no more).
///
/// Record schema (enforced by tools/check_bench_jsonl.py, which runs as a
/// ctest self-check and over the JSONL artifacts in CI):
///   * one record per line; each record is a flat JSON object — values
///     are strings, ints or doubles, never nested containers;
///   * the FIRST key is "bench", a non-empty string naming the emitter
///     ("backend_throughput", "serving", ...);
///   * every numeric value is finite — a NaN/Inf measurement must be
///     fixed or omitted at the emitter, not smuggled into the stream
///     (operator<< would print `nan`, which is not JSON at all);
///   * per-bench required keys are listed in check_bench_jsonl.py; keep
///     that list in sync when a bench's fields change.
class JsonRecord {
public:
  explicit JsonRecord(const std::string& bench) { field("bench", bench); }

  JsonRecord& field(const std::string& key, const std::string& value) {
    separator();
    out_ << '"' << escape(key) << "\":\"" << escape(value) << '"';
    return *this;
  }
  JsonRecord& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonRecord& field(const std::string& key, double value) {
    separator();
    // Full round-trip precision: these records feed cross-PR regression
    // analysis, where the default 6 significant digits silently truncate.
    const auto old_precision = out_.precision(
        std::numeric_limits<double>::max_digits10);
    out_ << '"' << escape(key) << "\":" << value;
    out_.precision(old_precision);
    return *this;
  }
  JsonRecord& field(const std::string& key, int value) {
    separator();
    out_ << '"' << escape(key) << "\":" << value;
    return *this;
  }

  /// The complete record, one line, no trailing newline.
  std::string str() const {
    // Step-wise concatenation: the one-expression form trips a GCC 12
    // -Wrestrict false positive (PR105651).
    std::string out = "{";
    out += out_.str();
    out += '}';
    return out;
  }

  /// Write the record line to `os` (stdout by default).
  void emit(std::ostream& os = std::cout) const { os << str() << '\n'; }

private:
  void separator() {
    if (!first_) out_ << ',';
    first_ = false;
  }
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }
  std::ostringstream out_;
  bool first_ = true;
};

/// Append a common::StatsSnapshot to a record as "<scope>.<key>" fields —
/// the single serializer between the layers' stats structs and the JSONL
/// stream (the CLI's table twin is common::render_stats_table). Counters
/// are written as integer-valued doubles, gauges at full precision.
inline void append_stats(JsonRecord& record,
                         const common::StatsSnapshot& snapshot) {
  for (const common::StatsEntry& entry : snapshot.entries) {
    record.field(snapshot.scope + "." + entry.key, entry.value);
  }
}

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

/// Print a section header. Benches that emit JSONL records on stdout pass
/// std::cerr so the record stream stays machine-parseable.
inline void print_header(const std::string& title,
                         std::ostream& os = std::cout) {
  os << '\n' << std::string(72, '=') << '\n'
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
