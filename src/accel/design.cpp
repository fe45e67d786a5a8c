#include "accel/design.hpp"

#include "common/error.hpp"
#include "exec/registry.hpp"

namespace tmhls::accel {

namespace {

/// Capabilities of the backend functionally realising a design; how the
/// accel layer learns datapath widths without switching on BlurKind.
exec::BackendCapabilities design_capabilities(Design d) {
  return exec::BackendRegistry::global().resolve(backend_name(d))
      ->capabilities();
}

} // namespace

const std::vector<Design>& all_designs() {
  static const std::vector<Design> kAll = {
      Design::sw_source, Design::marked_hw, Design::sequential_access,
      Design::hls_pragmas, Design::fixed_point};
  return kAll;
}

const std::vector<Design>& charted_designs() {
  static const std::vector<Design> kCharted = {
      Design::sw_source, Design::sequential_access, Design::hls_pragmas,
      Design::fixed_point};
  return kCharted;
}

const char* display_name(Design d) {
  switch (d) {
    case Design::sw_source: return "SW source code";
    case Design::marked_hw: return "Marked HW function";
    case Design::sequential_access: return "Sequential memory accesses";
    case Design::hls_pragmas: return "HLS pragmas";
    case Design::fixed_point: return "FlP to FxP conversion";
  }
  return "?";
}

const char* short_name(Design d) {
  switch (d) {
    case Design::sw_source: return "sw_source";
    case Design::marked_hw: return "marked_hw";
    case Design::sequential_access: return "sequential_access";
    case Design::hls_pragmas: return "hls_pragmas";
    case Design::fixed_point: return "fixed_point";
  }
  return "?";
}

bool runs_on_pl(Design d) { return d != Design::sw_source; }

const char* backend_name(Design d) {
  switch (d) {
    case Design::sw_source:
    case Design::marked_hw:
    case Design::sequential_access:
    case Design::hls_pragmas:
      // Float datapath: the original CPU form with direct neighbour
      // indexing is the golden reference; the streaming restructuring
      // (tonemap::blur_streaming_float) is numerically identical to it, so
      // all float designs produce the same pixels.
      return "separable_float";
    case Design::fixed_point:
      return "streaming_fixed";
  }
  return "?";
}

Workload Workload::paper() { return Workload{}; }

tonemap::PipelineOptions Workload::pipeline_options(Design design) const {
  tonemap::PipelineOptions opt;
  opt.sigma = sigma;
  opt.radius = radius;
  opt.brightness = brightness;
  opt.contrast = contrast;
  opt.fixed = fixed;
  // The datapath stays unspecified: plan() runs each backend's own.
  opt.backend = backend_name(design);
  return opt;
}

hls::Loop build_blur_loop(Design design, const Workload& w) {
  TMHLS_REQUIRE(runs_on_pl(design), "sw_source has no hardware loop");
  const int taps = w.taps();
  hls::Loop loop;
  loop.name = "gaussian_blur";
  loop.trip_count = 2 * w.pixels(); // horizontal + vertical pass

  switch (design) {
    case Design::marked_hw: {
      // Naive offload: every neighbouring pixel is fetched from external
      // memory with a single-beat bus read; the result written back the
      // same way. No local buffers, no pipelining.
      loop.ops = {
          {hls::OpKind::ddr_random_read, taps},
          {hls::OpKind::fmul, taps},
          {hls::OpKind::fadd, taps - 1},
          {hls::OpKind::int_op, taps},
          {hls::OpKind::ddr_random_write, 1},
      };
      loop.recurrence_op = hls::OpKind::fadd;
      loop.recurrence_length = taps - 1;
      loop.pragmas.access = hls::AccessPattern::random;
      break;
    }
    case Design::sequential_access: {
      // Restructured (Fig 4): pixels stream sequentially into a BRAM line
      // buffer; the convolution reads on-chip. Still unpipelined.
      loop.ops = {
          {hls::OpKind::fmul, taps},
          {hls::OpKind::fadd, taps - 1},
          {hls::OpKind::int_op, taps},
      };
      hls::ArraySpec buf;
      buf.name = "line_buffer";
      buf.elements = static_cast<std::int64_t>(taps) * w.width;
      buf.element_bits = design_capabilities(design).data_bits;
      buf.read_ports = 1; // second BRAM port reserved for the line writer
      buf.elems_per_word = 1;
      buf.partitions = 1;
      buf.reads_per_iter = taps;
      buf.writes_per_iter = 1;
      loop.arrays = {buf};
      loop.recurrence_op = hls::OpKind::fadd;
      loop.recurrence_length = taps - 1;
      loop.pragmas.access = hls::AccessPattern::sequential;
      break;
    }
    case Design::hls_pragmas: {
      // + #pragma HLS PIPELINE on the pixel loop (tap loop fully unrolled
      // into the body, collapsing the accumulation recurrence into a tree)
      // and #pragma HLS ARRAY_PARTITION cyclic on the line buffer. The II
      // becomes port-limited: ceil(taps / (partitions * ports)).
      loop.ops = {
          {hls::OpKind::fmul, taps},
          {hls::OpKind::fadd, taps - 1},
          {hls::OpKind::int_op, taps},
      };
      hls::ArraySpec buf;
      buf.name = "line_buffer";
      buf.elements = static_cast<std::int64_t>(taps) * w.width;
      buf.element_bits = design_capabilities(design).data_bits;
      buf.read_ports = 1;
      buf.elems_per_word = 1;
      buf.partitions = w.partition_factor;
      buf.reads_per_iter = taps;
      buf.writes_per_iter = 1;
      loop.arrays = {buf};
      loop.recurrence_op = hls::OpKind::fadd;
      loop.recurrence_length = 0; // reduction tree: no loop-carried chain
      loop.pragmas.pipeline = {true, 1};
      loop.pragmas.partition = {hls::PartitionMode::cyclic,
                                w.partition_factor};
      loop.pragmas.access = hls::AccessPattern::sequential;
      break;
    }
    case Design::fixed_point: {
      // + ap_fixed<16,2> datapath: integer MACs, and two 16-bit pixels per
      // 32-bit BRAM word ("memory bandwidth by local memory blocks
      // reshaping"), doubling read bandwidth and halving the II.
      const int data_bits = w.fixed.data.width();
      const int word_bits = 32;
      loop.ops = {
          {hls::OpKind::fixed_mul, taps},
          {hls::OpKind::fixed_add, taps - 1},
          {hls::OpKind::int_op, taps},
      };
      hls::ArraySpec buf;
      buf.name = "line_buffer";
      buf.elements = static_cast<std::int64_t>(taps) * w.width;
      buf.element_bits = data_bits;
      buf.read_ports = 1;
      buf.elems_per_word = std::max(1, word_bits / data_bits);
      buf.partitions = w.partition_factor;
      buf.reads_per_iter = taps;
      buf.writes_per_iter = 1;
      loop.arrays = {buf};
      loop.recurrence_op = hls::OpKind::fixed_add;
      loop.recurrence_length = 0;
      loop.pragmas.pipeline = {true, 1};
      loop.pragmas.partition = {hls::PartitionMode::cyclic,
                                w.partition_factor};
      loop.pragmas.access = hls::AccessPattern::sequential;
      break;
    }
    case Design::sw_source:
      break; // unreachable: guarded above
  }
  return loop;
}

std::int64_t dma_bytes(Design design, const Workload& w) {
  switch (design) {
    case Design::sw_source:
    case Design::marked_hw:
      return 0; // no DMA mover involved
    case Design::sequential_access:
    case Design::hls_pragmas:
    case Design::fixed_point: {
      // Two passes, each streaming the full plane in and out. The backend's
      // capabilities say *which* datapath the design uses; fixed-point
      // designs take the element width from the workload's configured
      // format (matching build_blur_loop), float designs from the backend.
      const exec::BackendCapabilities caps = design_capabilities(design);
      const int elem_bits =
          caps.fixed_datapath ? w.fixed.data.width() : caps.data_bits;
      const std::int64_t bytes_per_elem = (elem_bits + 7) / 8;
      return 2 * 2 * w.pixels() * bytes_per_elem;
    }
  }
  return 0;
}

} // namespace tmhls::accel
