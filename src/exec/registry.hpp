// The fixed table of execution backends: the Table II design forms the
// host keeps, plus the production form of the §III.B line buffer —
// separable_float (the "SW source" baseline), streaming_fixed and hlscode
// (the HLS forms) and fused_stream. Tools resolve the user's --backend
// string through it. The name "auto" is not in the table:
// tonemap::PipelineOptions::plan resolves it by a fixed capability rule
// instead of naming one.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/backend.hpp"

namespace tmhls::exec {

class BackendRegistry {
public:
  /// Resolve a backend by name; throws InvalidArgument listing the known
  /// names when `name` is unknown.
  std::shared_ptr<const Backend> resolve(const std::string& name) const;

  /// The backend names, sorted.
  std::vector<std::string> names() const;

  /// The process-wide table: fused_stream, hlscode, separable_float,
  /// streaming_fixed (one shared, immutable instance each).
  static const BackendRegistry& global();

private:
  BackendRegistry();

  /// Sorted by name.
  std::vector<std::shared_ptr<const Backend>> backends_;
};

} // namespace tmhls::exec
