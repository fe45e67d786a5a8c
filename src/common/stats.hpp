// common::StatsSnapshot — the one key/value interface every layer's
// statistics flow through. The stack grew four stats structs
// (serve::ServiceStats, transport::ServerStats, stream's
// SessionManagerStats, img::PoolStats), each with
// its own hand-rolled CLI table and bench-JSONL spelling; snapshot()
// adapters in each layer now flatten them into this form, so the CLI
// renders every layer with one serializer (render_stats_table) and the
// benches append them to JSONL records with one helper. The typed structs
// stay the programmatic API — this is the *reporting* projection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tmhls::common {

/// One reported statistic. Counters carry integral = true and render
/// without a fractional part; gauges render with full precision.
struct StatsEntry {
  std::string key;
  double value = 0.0;
  bool integral = false;
};

/// An ordered key/value snapshot of one component's statistics. Entry
/// order is the declaration order of the source struct — stable across
/// runs, so diffs of rendered tables line up.
struct StatsSnapshot {
  /// Component name the entries belong to (e.g. "service", "server",
  /// "service.shard0") — the table's first column and the JSONL key
  /// prefix.
  std::string scope;
  std::vector<StatsEntry> entries;

  /// Append a monotonic counter (rendered as an integer).
  void counter(const std::string& key, std::uint64_t value);
  /// Append a gauge (rendered with full precision).
  void gauge(const std::string& key, double value);
  /// The entry with this key, or nullptr. Linear scan — snapshots are
  /// small and render-once.
  const StatsEntry* find(const std::string& key) const;
};

/// Render snapshots as one aligned text table (scope | key | value), the
/// CLI's uniform stats footer. Counters print without a fractional part;
/// gauges with six significant decimals.
std::string render_stats_table(const std::vector<StatsSnapshot>& snapshots);

} // namespace tmhls::common
