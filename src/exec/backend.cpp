#include "exec/backend.hpp"

namespace tmhls::exec {

bool Backend::can_run(const tonemap::GaussianKernel& kernel,
                      const ExecutorOptions& options) const {
  const BackendCapabilities caps = capabilities();
  if (options.use_fixed ? !caps.fixed_datapath : !caps.float_datapath) {
    return false;
  }
  return caps.max_taps == 0 || kernel.taps() <= caps.max_taps;
}

} // namespace tmhls::exec
