#include "exec/registry.hpp"

#include "common/error.hpp"
#include "exec/backends.hpp"

namespace tmhls::exec {

BackendRegistry::BackendRegistry()
    : backends_{std::make_shared<const FusedStreamBackend>(),
                std::make_shared<const HlsCodeBackend>(),
                std::make_shared<const SeparableFloatBackend>(),
                std::make_shared<const StreamingFixedBackend>()} {}

std::shared_ptr<const Backend> BackendRegistry::resolve(
    const std::string& name) const {
  for (const auto& backend : backends_) {
    if (name == backend->name()) return backend;
  }
  std::string known;
  for (const std::string& n : names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw InvalidArgument("unknown backend: " + name + " (known: " + known +
                        ")");
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const auto& backend : backends_) out.emplace_back(backend->name());
  return out;
}

const BackendRegistry& BackendRegistry::global() {
  static const BackendRegistry registry;
  return registry;
}

} // namespace tmhls::exec
