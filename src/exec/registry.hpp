// Name-indexed registry of execution backends. The global() registry is
// pre-seeded with the five built-in implementations; tools resolve the
// user's --backend string through it, and new strategies (GPU, remote,
// cached) plug in by registering a factory. The name "auto" is reserved:
// exec::plan resolves it by a fixed capability rule instead of naming one.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/backend.hpp"

namespace tmhls::exec {

class BackendRegistry {
public:
  /// Creates one (shared, immutable) backend instance on first resolve.
  using Factory = std::function<std::shared_ptr<const Backend>()>;

  /// Register `factory` under `name`; throws InvalidArgument if the name
  /// is already taken.
  void register_backend(const std::string& name, Factory factory);

  /// True if `name` is registered.
  bool contains(const std::string& name) const;

  /// Resolve a backend by name; throws InvalidArgument listing the
  /// registered names when `name` is unknown.
  std::shared_ptr<const Backend> resolve(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  /// The process-wide registry, pre-seeded with the built-in backends:
  /// separable_float, separable_simd, streaming_fixed, hlscode,
  /// fused_stream.
  static BackendRegistry& global();

private:
  struct Entry {
    Factory factory;
    mutable std::shared_ptr<const Backend> instance;
  };
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, Entry>> entries_;
};

/// Register the five built-in backends into `registry` (idempotent on the
/// names: throws if one is already present). global() calls this once.
void register_builtin_backends(BackendRegistry& registry);

} // namespace tmhls::exec
