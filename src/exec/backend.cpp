#include "exec/backend.hpp"

#include "common/error.hpp"

namespace tmhls::exec {

BlurCost Backend::estimate_cost(int width, int height,
                                const tonemap::GaussianKernel& kernel,
                                const ExecutorOptions& options) const {
  TMHLS_REQUIRE(width > 0 && height > 0,
                "estimate_cost: dimensions must be positive");
  const BackendCapabilities caps = capabilities();
  // Element width of the datapath this call configures: fixed-only
  // backends run at the configured format; dual-datapath backends at their
  // fixed width when the options select it.
  int elem_bits = caps.data_bits;
  if (caps.fixed_datapath && !caps.float_datapath) {
    elem_bits = options.fixed.data.width();
  } else if (options.use_fixed && caps.dual_fixed_data_bits > 0) {
    elem_bits = caps.dual_fixed_data_bits;
  }
  BlurCost cost;
  cost.macs = 2.0 * static_cast<double>(kernel.taps()) *
              static_cast<double>(width) * static_cast<double>(height);
  const std::size_t plane_bytes = static_cast<std::size_t>(width) *
                                  static_cast<std::size_t>(height) *
                                  (static_cast<std::size_t>(elem_bits) / 8u);
  if (caps.streaming) {
    cost.buffer_bytes =
        tonemap::line_buffer_bytes(width, kernel.taps(), elem_bits);
    // Source read + destination write; intermediate rows never leave the
    // line buffer.
    cost.traffic_bytes = 2 * plane_bytes;
  } else {
    // Direct form keeps the whole intermediate plane...
    cost.buffer_bytes = plane_bytes;
    // ...which the second pass writes and re-reads through memory.
    cost.traffic_bytes = 4 * plane_bytes;
  }
  return cost;
}

bool Backend::can_run(const tonemap::GaussianKernel& kernel,
                      const ExecutorOptions& options) const {
  const BackendCapabilities caps = capabilities();
  if (options.use_fixed ? !caps.fixed_datapath : !caps.float_datapath) {
    return false;
  }
  return caps.max_taps == 0 || kernel.taps() <= caps.max_taps;
}

} // namespace tmhls::exec
