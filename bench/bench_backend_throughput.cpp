// Frames/sec of every registered execution backend, swept over thread
// counts for backends with the tiled multi-threaded capability, on the
// paper's 97-tap workload (sigma 16 -> radius 48). Emits one
// benchkit::JsonRecord line per measurement (JSONL on stdout) so the perf
// trajectory accumulates machine-readably — plus a human table.
//
// Every record carries speedup_vs_separable_float: the single-thread
// separable_float baseline of the same geometry divided by this
// measurement, i.e. the host-side analogue of the paper's Table II
// "speedup over SW source code" column. speedup_vs_separable_simd is the
// same ratio against the single-thread separable_simd baseline — the
// fastest plane-at-a-time form, i.e. the bar the fused streaming engine
// has to clear. bytes_per_pixel is the backend's modelled full-plane
// memory traffic per pixel (exec::BlurCost::traffic_bytes): streaming
// backends touch src + dst once each, non-streaming forms also write and
// re-read the intermediate plane — the bandwidth side of the comparison,
// independent of this machine's timer noise.
//
//   bench_backend_throughput [--size N] [--height N] [--reps R]
//                            [--max-threads T] [--sweep]
//
// The main workload is size x height (default 3*size/4 — the paper's 4:3
// frame, 1024x768 at --size 1024). --sweep adds lane-eligibility width
// sweeps w in {31, 32, 33, 512, 1024} at height 96: widths below, at and
// just past the SIMD lane/radius boundaries, where the vector path's
// border handling and scalar tails dominate.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "common/args.hpp"
#include "common/table.hpp"
#include "exec/executor.hpp"
#include "exec/registry.hpp"
#include "imageio/synthetic.hpp"
#include "tonemap/kernel.hpp"

namespace {

using namespace tmhls;

double seconds_per_blur(const exec::PipelineExecutor& executor,
                        const img::ImageF& plane,
                        const tonemap::GaussianKernel& kernel, int reps) {
  using clock = std::chrono::steady_clock;
  executor.blur(plane, kernel); // warm-up
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    const img::ImageF out = executor.blur(plane, kernel);
    const auto t1 = clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    // Touch the result so the blur cannot be elided.
    if (out.at_unchecked(0, 0) < -1.0f) std::cout << "";
    if (best == 0.0 || s < best) best = s;
  }
  return best;
}

struct Geometry {
  int width = 0;
  int height = 0;
};

} // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv, {"sweep"});
    const int size = args.get_int("size", 512);
    const int height = args.get_int("height", std::max(1, 3 * size / 4));
    const int reps = args.get_int("reps", 3);
    const int max_threads = args.get_int("max-threads", 8);
    TMHLS_REQUIRE(size > 0 && height > 0 && reps > 0 && max_threads >= 1,
                  "size, height, reps and max-threads must be positive");

    // The paper-reproduction pipeline's 97-tap mask kernel.
    const tonemap::GaussianKernel kernel(16.0, 48);

    std::vector<Geometry> geometries = {{size, height}};
    if (args.has("sweep")) {
      for (int w : {31, 32, 33, 512, 1024}) {
        geometries.push_back({w, 96});
      }
    }

    // Human-readable output goes to stderr: stdout carries only the JSONL
    // records, so `bench_backend_throughput >> perf.jsonl` stays parseable.
    benchkit::print_header(
        "Backend throughput, " + std::to_string(kernel.taps()) + " taps",
        std::cerr);

    TextTable table({"backend", "width", "height", "threads", "ms/frame",
                     "fps", "speedup", "vs sep_float", "vs sep_simd",
                     "B/px"});
    const exec::BackendRegistry& registry = exec::BackendRegistry::global();
    for (const Geometry& g : geometries) {
      const img::ImageF plane = img::luminance(io::generate_hdr_scene(
          io::SceneKind::window_interior, g.width, g.height, 2018));

      // The single-thread separable_float and separable_simd baselines
      // every record of this geometry is normalised against.
      const double baseline_s = seconds_per_blur(
          exec::PipelineExecutor("separable_float"), plane, kernel, reps);
      const double simd_baseline_s = seconds_per_blur(
          exec::PipelineExecutor("separable_simd"), plane, kernel, reps);

      for (const std::string& name : registry.names()) {
        const auto backend = registry.resolve(name);
        const exec::BackendCapabilities caps = backend->capabilities();
        if (caps.max_taps > 0 && kernel.taps() > caps.max_taps) continue;
        std::vector<int> thread_counts = {1};
        if (caps.tiled_threads) {
          for (int t = 2; t <= max_threads; t *= 2) thread_counts.push_back(t);
        }
        const double bytes_per_pixel =
            static_cast<double>(
                backend->estimate_cost(g.width, g.height, kernel)
                    .traffic_bytes) /
            (static_cast<double>(g.width) * static_cast<double>(g.height));
        double single_thread_s = 0.0;
        for (int threads : thread_counts) {
          exec::ExecutorOptions opts;
          opts.threads = threads;
          const exec::PipelineExecutor executor(backend, opts);
          double s;
          if (name == "separable_float" && threads == 1) {
            s = baseline_s;
          } else if (name == "separable_simd" && threads == 1) {
            s = simd_baseline_s;
          } else {
            s = seconds_per_blur(executor, plane, kernel, reps);
          }
          if (threads == 1) single_thread_s = s;
          const double speedup = single_thread_s > 0.0 ? single_thread_s / s
                                                       : 0.0;
          const double vs_sep = s > 0.0 ? baseline_s / s : 0.0;
          const double vs_simd = s > 0.0 ? simd_baseline_s / s : 0.0;
          table.add_row({name, std::to_string(g.width),
                         std::to_string(g.height), std::to_string(threads),
                         format_fixed(s * 1e3, 2), format_fixed(1.0 / s, 2),
                         format_fixed(speedup, 2), format_fixed(vs_sep, 2),
                         format_fixed(vs_simd, 2),
                         format_fixed(bytes_per_pixel, 1)});
          benchkit::JsonRecord record("backend_throughput");
          record.field("backend", name)
              .field("threads", threads)
              .field("width", g.width)
              .field("height", g.height)
              .field("taps", kernel.taps())
              .field("seconds_per_frame", s)
              .field("fps", 1.0 / s)
              .field("speedup_vs_single_thread", speedup)
              .field("speedup_vs_separable_float", vs_sep)
              .field("speedup_vs_separable_simd", vs_simd)
              .field("bytes_per_pixel", bytes_per_pixel)
              .emit();
        }
      }
    }
    std::cerr << '\n' << table.render();
    return 0;
  } catch (const tmhls::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
