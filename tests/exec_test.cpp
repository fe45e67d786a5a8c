// Tests for the execution-backend layer: registry resolution of the four
// backends, the row-band decomposition, bit-identity of both builds of the
// SIMD row passes with the scalar passes (the host-side analogue of the
// §III.B claim that restructuring changes the schedule, not the pixels),
// the interior/border split of the pass primitives against an unsplit
// reference, the HlsCodeBackend's bit-exact equivalence with the golden
// models, the backends' capability hook (can_run), and the executor
// plumbing the pipeline and CLI ride on.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/backends.hpp"
#include "exec/executor.hpp"
#include "exec/registry.hpp"
#include "exec/tiled.hpp"
#include "hlscode/blur_kernels.hpp"
#include "tonemap/blur.hpp"
#include "tonemap/blur_passes.hpp"
#include "tonemap/kernel.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::exec {
namespace {

img::ImageF random_plane(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  img::ImageF im(w, h, 1);
  for (float& v : im.samples()) v = static_cast<float>(rng.uniform());
  return im;
}

img::ImageF random_hdr(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  img::ImageF im(w, h, 3);
  for (float& v : im.samples()) {
    v = static_cast<float>(rng.uniform() * 100.0 + 1e-3);
  }
  return im;
}

::testing::AssertionResult bit_identical(const img::ImageF& a,
                                         const img::ImageF& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  auto sa = a.samples();
  auto sb = b.samples();
  if (std::memcmp(sa.data(), sb.data(), sa.size_bytes()) != 0) {
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (sa[i] != sb[i]) {
        return ::testing::AssertionFailure()
               << "first difference at sample " << i << ": " << sa[i]
               << " vs " << sb[i];
      }
    }
    return ::testing::AssertionFailure() << "bit pattern difference (NaN?)";
  }
  return ::testing::AssertionSuccess();
}

// --- Registry ------------------------------------------------------------

TEST(RegistryTest, TheFourBackendsResolveByName) {
  const BackendRegistry& registry = BackendRegistry::global();
  const std::vector<std::string> expected = {
      "fused_stream", "hlscode", "separable_float", "streaming_fixed"};
  EXPECT_EQ(registry.names(), expected);
  for (const std::string& name : expected) {
    const auto backend = registry.resolve(name);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->name(), name);
  }
  // The line-buffer golden model is not a backend: fused_stream is its
  // production form. "auto" is PipelineOptions::plan's rule, not a table
  // entry.
  EXPECT_THROW(registry.resolve("streaming_float"), InvalidArgument);
  EXPECT_THROW(registry.resolve("auto"), InvalidArgument);
}

TEST(RegistryTest, ResolveReturnsSharedInstance) {
  const BackendRegistry& registry = BackendRegistry::global();
  EXPECT_EQ(registry.resolve("hlscode"), registry.resolve("hlscode"));
}

TEST(RegistryTest, UnknownNameThrowsListingKnownNames) {
  try {
    BackendRegistry::global().resolve("gpu");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("streaming_fixed"),
              std::string::npos);
  }
}

TEST(RegistryTest, CapabilitiesMatchBackendContracts) {
  const BackendRegistry& registry = BackendRegistry::global();
  EXPECT_FALSE(
      registry.resolve("separable_float")->capabilities().streaming);
  EXPECT_TRUE(registry.resolve("fused_stream")->capabilities().streaming);
  // Only the fused engine runs multi-threaded.
  for (const std::string& name : registry.names()) {
    EXPECT_EQ(registry.resolve(name)->capabilities().tiled_threads,
              name == "fused_stream")
        << name;
  }
  EXPECT_TRUE(
      registry.resolve("streaming_fixed")->capabilities().fixed_datapath);
  EXPECT_EQ(registry.resolve("streaming_fixed")->capabilities().data_bits,
            16);
  const BackendCapabilities hls = registry.resolve("hlscode")->capabilities();
  EXPECT_TRUE(hls.synthesizable);
  EXPECT_TRUE(hls.float_datapath);
  EXPECT_TRUE(hls.fixed_datapath);
  EXPECT_FALSE(hls.tiled_threads);
  // Dual datapath: 32-bit float plus the 16-bit Pixel16 fixed path.
  EXPECT_EQ(hls.data_bits, 32);
  EXPECT_EQ(hls.dual_fixed_data_bits, 16);
  // The synthesizable kernels carry their static tap bound; the others are
  // unbounded.
  EXPECT_EQ(hls.max_taps, hlscode::kMaxTaps);
  EXPECT_EQ(registry.resolve("separable_float")->capabilities().max_taps, 0);
  // SIMD lane width: the fused engine reports the width of the row build
  // the dispatcher picked (the AVX2 clone where the CPU has it), scalar
  // implementations report 1.
  const tonemap::detail::BlurRowKernels* avx2 =
      tonemap::detail::blur_row_kernels_avx2();
  EXPECT_EQ(registry.resolve("fused_stream")->capabilities().simd_lanes,
            avx2 != nullptr ? avx2->lanes
                            : tonemap::detail::blur_row_kernels_generic()
                                  .lanes);
  EXPECT_EQ(registry.resolve("separable_float")->capabilities().simd_lanes,
            1);
}

// --- Row-band decomposition ----------------------------------------------

TEST(TiledTest, RowBandsPartitionContiguously) {
  for (int rows : {1, 7, 17, 33}) {
    for (int bands : {1, 2, 4, 7}) {
      if (bands > rows) continue;
      int covered = 0;
      for (int b = 0; b < bands; ++b) {
        const RowBand r = row_band(rows, bands, b);
        EXPECT_EQ(r.begin, covered);
        EXPECT_GE(r.end - r.begin, rows / bands);
        EXPECT_LE(r.end - r.begin, rows / bands + 1);
        covered = r.end;
      }
      EXPECT_EQ(covered, rows);
    }
  }
}

TEST(TiledTest, SingleThreadBackendsRejectThreadedContexts) {
  // The executor clamps threads for backends without tiled_threads; a
  // direct caller handing them a threaded context is refused, not
  // silently run on one thread.
  const img::ImageF src = random_plane(41, 29, 5);
  const tonemap::GaussianKernel kernel(3.0, 9);
  ExecutorOptions threaded;
  threaded.threads = 4;
  for (const char* name : {"separable_float", "streaming_fixed", "hlscode"}) {
    EXPECT_THROW(
        BackendRegistry::global().resolve(name)->run_blur(src, kernel,
                                                          threaded),
        InvalidArgument)
        << name;
  }
}

// --- SIMD row passes ------------------------------------------------------

// Every build of the SIMD row passes: the portable one and, where the CPU
// has it, the AVX2 clone. Each must match the scalar passes bit for bit.
std::vector<const tonemap::detail::BlurRowKernels*> simd_row_builds() {
  std::vector<const tonemap::detail::BlurRowKernels*> builds = {
      &tonemap::detail::blur_row_kernels_generic()};
  if (tonemap::detail::blur_row_kernels_avx2() != nullptr) {
    builds.push_back(tonemap::detail::blur_row_kernels_avx2());
  }
  return builds;
}

/// Run one build's horizontal row pass over every row of `src`.
img::ImageF simd_hpass(const tonemap::detail::BlurRowKernels& build,
                       const img::ImageF& src,
                       const tonemap::GaussianKernel& kernel) {
  img::ImageF dst(src.width(), src.height(), 1);
  for (int y = 0; y < src.height(); ++y) {
    build.hpass(&src.at_unchecked(0, y), &dst.at_unchecked(0, y),
                kernel.weights().data(), kernel.taps(), kernel.radius(),
                src.width());
  }
  return dst;
}

/// Run one build's vertical row pass over every row of `tmp`, hoisting the
/// clamp into per-tap row pointers as the scalar pass does.
img::ImageF simd_vpass(const tonemap::detail::BlurRowKernels& build,
                       const img::ImageF& tmp,
                       const tonemap::GaussianKernel& kernel) {
  img::ImageF dst(tmp.width(), tmp.height(), 1);
  std::vector<const float*> rows(static_cast<std::size_t>(kernel.taps()));
  for (int y = 0; y < tmp.height(); ++y) {
    for (int i = 0; i < kernel.taps(); ++i) {
      rows[static_cast<std::size_t>(i)] = &tmp.at_unchecked(
          0, tonemap::detail::clamp_index(y - kernel.radius() + i,
                                          tmp.height()));
    }
    build.vpass(rows.data(), &dst.at_unchecked(0, y),
                kernel.weights().data(), kernel.taps(), tmp.width());
  }
  return dst;
}

// Geometries stressing the vector path's edges: width below the lane
// count, one either side of both lane widths, radius >= width (interior
// empty, all border), and a bulk case with interior, tail and borders.
struct SimdGeometry {
  int w;
  int h;
  int radius;
};
constexpr SimdGeometry kSimdGeometries[] = {
    {1, 1, 2},  {3, 5, 4},   {5, 4, 9},   {7, 9, 2},  {8, 8, 3},
    {9, 5, 3},  {31, 7, 10}, {32, 6, 10}, {33, 9, 40}, {64, 33, 5},
};

TEST(SimdPassTest, EveryBuildMatchesScalarPasses) {
  for (const tonemap::detail::BlurRowKernels* build : simd_row_builds()) {
    std::uint64_t seed = 211;
    for (const SimdGeometry& g : kSimdGeometries) {
      const img::ImageF src = random_plane(g.w, g.h, seed++);
      const tonemap::GaussianKernel kernel(g.radius / 3.0 + 0.5, g.radius);
      img::ImageF scalar_h(g.w, g.h, 1);
      tonemap::blur_hpass_float_rows(src, scalar_h, kernel, 0, g.h);
      EXPECT_TRUE(bit_identical(simd_hpass(*build, src, kernel), scalar_h))
          << "hpass " << g.w << "x" << g.h << " lanes=" << build->lanes;
      img::ImageF scalar_v(g.w, g.h, 1);
      tonemap::blur_vpass_float_rows(scalar_h, scalar_v, kernel, 0, g.h);
      EXPECT_TRUE(bit_identical(simd_vpass(*build, scalar_h, kernel),
                                scalar_v))
          << "vpass " << g.w << "x" << g.h << " lanes=" << build->lanes;
    }
  }
}

// --- Interior/border split vs the unsplit reference ----------------------

// The pre-split form of the passes: per-pixel clamp on every tap. The
// production passes must match it bit for bit on randomized geometries —
// the property that the split is a pure restructuring.
img::ImageF unsplit_hpass(const img::ImageF& src,
                          const tonemap::GaussianKernel& kernel) {
  img::ImageF dst(src.width(), src.height(), 1);
  const auto& wts = kernel.weights();
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      float acc = 0.0f;
      for (int i = 0; i < kernel.taps(); ++i) {
        int sx = x - kernel.radius() + i;
        sx = sx < 0 ? 0 : (sx >= src.width() ? src.width() - 1 : sx);
        acc += wts[static_cast<std::size_t>(i)] * src.at_unchecked(sx, y);
      }
      dst.at_unchecked(x, y) = acc;
    }
  }
  return dst;
}

img::ImageF unsplit_vpass(const img::ImageF& tmp,
                          const tonemap::GaussianKernel& kernel) {
  img::ImageF dst(tmp.width(), tmp.height(), 1);
  const auto& wts = kernel.weights();
  for (int y = 0; y < tmp.height(); ++y) {
    for (int x = 0; x < tmp.width(); ++x) {
      float acc = 0.0f;
      for (int i = 0; i < kernel.taps(); ++i) {
        int sy = y - kernel.radius() + i;
        sy = sy < 0 ? 0 : (sy >= tmp.height() ? tmp.height() - 1 : sy);
        acc += wts[static_cast<std::size_t>(i)] * tmp.at_unchecked(x, sy);
      }
      dst.at_unchecked(x, y) = acc;
    }
  }
  return dst;
}

TEST(SplitPassPropertyTest, SplitPassesMatchUnsplitReferenceRandomized) {
  Rng rng(2018);
  for (int trial = 0; trial < 25; ++trial) {
    const int w = static_cast<int>(rng.uniform_int(1, 50));
    const int h = static_cast<int>(rng.uniform_int(1, 20));
    const int radius = static_cast<int>(rng.uniform_int(1, 30));
    const double sigma = rng.uniform(0.5, 12.0);
    const tonemap::GaussianKernel kernel(sigma, radius);
    const img::ImageF src =
        random_plane(w, h, 1000 + static_cast<std::uint64_t>(trial));

    const img::ImageF href = unsplit_hpass(src, kernel);
    img::ImageF hsplit(w, h, 1);
    tonemap::blur_hpass_float_rows(src, hsplit, kernel, 0, h);
    ASSERT_TRUE(bit_identical(hsplit, href))
        << "hpass trial " << trial << ": " << w << "x" << h << " r="
        << radius;

    const img::ImageF vref = unsplit_vpass(href, kernel);
    img::ImageF vsplit(w, h, 1);
    tonemap::blur_vpass_float_rows(href, vsplit, kernel, 0, h);
    ASSERT_TRUE(bit_identical(vsplit, vref))
        << "vpass trial " << trial << ": " << w << "x" << h << " r="
        << radius;

    for (const tonemap::detail::BlurRowKernels* build : simd_row_builds()) {
      ASSERT_TRUE(bit_identical(simd_hpass(*build, src, kernel), href))
          << "simd hpass trial " << trial << " lanes=" << build->lanes;
      ASSERT_TRUE(bit_identical(simd_vpass(*build, href, kernel), vref))
          << "simd vpass trial " << trial << " lanes=" << build->lanes;
    }
  }
}

// --- HlsCodeBackend golden equivalence -----------------------------------

TEST(HlsCodeBackendTest, FloatDatapathMatchesStreamingFloatGolden) {
  const img::ImageF src = random_plane(37, 23, 13);
  const tonemap::GaussianKernel kernel(2.0, 6);
  const HlsCodeBackend backend;
  EXPECT_TRUE(bit_identical(backend.run_blur(src, kernel, ExecutorOptions{}),
                            tonemap::blur_streaming_float(src, kernel)));
}

TEST(HlsCodeBackendTest, FixedDatapathMatchesStreamingFixedGolden) {
  const img::ImageF src = random_plane(37, 23, 17);
  const tonemap::GaussianKernel kernel(2.0, 6);
  const HlsCodeBackend backend;
  ExecutorOptions options;
  options.use_fixed = true;
  EXPECT_TRUE(bit_identical(
      backend.run_blur(src, kernel, options),
      tonemap::blur_streaming_fixed(src, kernel,
                                    tonemap::FixedBlurConfig::paper())));
}

TEST(HlsCodeBackendTest, RejectsKernelsBeyondStaticBound) {
  const img::ImageF src = random_plane(8, 8, 1);
  const tonemap::GaussianKernel kernel(40.0, 120); // 241 taps > kMaxTaps
  EXPECT_THROW(HlsCodeBackend().run_blur(src, kernel, ExecutorOptions{}),
               InvalidArgument);
}

TEST(HlsCodeBackendTest, RejectsNonPaperFixedFormats) {
  const img::ImageF src = random_plane(8, 8, 1);
  const tonemap::GaussianKernel kernel(1.0, 3);
  ExecutorOptions options;
  options.use_fixed = true;
  options.fixed.data = fixed::FixedFormat(24, 4);
  EXPECT_THROW(HlsCodeBackend().run_blur(src, kernel, options),
               InvalidArgument);
}

// --- Backend hooks: cost and capability ----------------------------------

TEST(CostHookTest, ScalesWithGeometryAndDatapath) {
  const tonemap::GaussianKernel kernel(2.0, 6);
  const BackendRegistry& registry = BackendRegistry::global();
  const BlurCost fc =
      registry.resolve("streaming_fixed")->estimate_cost(64, 32, kernel);
  EXPECT_DOUBLE_EQ(fc.macs, 2.0 * 13 * 64 * 32);
  // Streaming working set is the 16-bit line buffer; the direct form keeps
  // a full 32-bit plane.
  EXPECT_EQ(fc.buffer_bytes, tonemap::line_buffer_bytes(64, 13, 16));
  EXPECT_EQ(registry.resolve("separable_float")
                ->estimate_cost(64, 32, kernel)
                .buffer_bytes,
            static_cast<std::size_t>(64) * 32 * 4);
}

TEST(CanRunTest, HlscodeBoundsTapsAndFixedFormats) {
  // The backend half of the rule PipelineOptions::plan applies (the plan
  // table in planner_test covers every backend x datapath): hlscode's
  // synthesizable static tap bound and its paper-format-only fixed
  // datapath, which the capability struct cannot express.
  const auto hls = BackendRegistry::global().resolve("hlscode");
  const tonemap::GaussianKernel small(1.0, 3);
  const tonemap::GaussianKernel huge(40.0, 120); // 241 taps > kMaxTaps
  ExecutorOptions fixed_options;
  fixed_options.use_fixed = true;
  EXPECT_TRUE(hls->can_run(small, ExecutorOptions{}));
  EXPECT_FALSE(hls->can_run(huge, ExecutorOptions{}));
  EXPECT_TRUE(hls->can_run(small, fixed_options));
  fixed_options.fixed.accumulator = fixed::FixedFormat(24, 4);
  EXPECT_FALSE(hls->can_run(small, fixed_options));
}

// --- Pipeline integration (what the CLI's --backend/--threads hit) --------

TEST(PipelineBackendTest, HlscodeBackendBitIdenticalToSeparableFloat) {
  const img::ImageF hdr = random_hdr(31, 19, 23);
  tonemap::PipelineOptions golden;
  golden.sigma = 2.0;
  golden.radius = 6;
  tonemap::PipelineOptions hls = golden;
  hls.backend = "hlscode";
  EXPECT_TRUE(bit_identical(tonemap::tone_map(hdr, hls).output,
                            tonemap::tone_map(hdr, golden).output));
}

TEST(PipelineBackendTest, HlscodeFixedBitIdenticalToStreamingFixed) {
  const img::ImageF hdr = random_hdr(31, 19, 29);
  tonemap::PipelineOptions golden;
  golden.sigma = 2.0;
  golden.radius = 6;
  golden.backend = "streaming_fixed";
  tonemap::PipelineOptions hls = golden;
  hls.backend = "hlscode";
  hls.datapath = tonemap::Datapath::fixed_point;
  EXPECT_TRUE(bit_identical(tonemap::tone_map(hdr, hls).output,
                            tonemap::tone_map(hdr, golden).output));
}

TEST(PipelineBackendTest, PersistentExecutorMatchesPerCallExecutor) {
  const img::ImageF hdr = random_hdr(21, 21, 41);
  tonemap::PipelineOptions opt;
  opt.sigma = 1.5;
  opt.radius = 4;
  opt.backend = "fused_stream";
  opt.threads = 2;
  const exec::PipelineExecutor executor = opt.plan(hdr.width(), hdr.height());
  EXPECT_TRUE(bit_identical(tonemap::tone_map(hdr, opt, executor).output,
                            tonemap::tone_map(hdr, opt).output));
}

TEST(PipelineBackendTest, AutoBackendBitIdenticalToSeparableFloat) {
  // All float-datapath backends are bit-identical, so whatever "auto"
  // picks for a float request must reproduce the separable_float output
  // exactly.
  const img::ImageF hdr = random_hdr(33, 21, 47);
  tonemap::PipelineOptions golden;
  golden.sigma = 2.0;
  golden.radius = 6;
  tonemap::PipelineOptions autosel = golden;
  autosel.backend = "auto";
  EXPECT_TRUE(bit_identical(tonemap::tone_map(hdr, autosel).output,
                            tonemap::tone_map(hdr, golden).output));
}

TEST(PipelineBackendTest, AutoBackendHonoursFixedDatapathRequest) {
  // With --fixed, "auto" must select among the fixed-datapath backends,
  // which are bit-identical to the streaming_fixed golden model in the
  // paper's formats.
  const img::ImageF hdr = random_hdr(33, 21, 53);
  tonemap::PipelineOptions golden;
  golden.sigma = 2.0;
  golden.radius = 6;
  golden.backend = "streaming_fixed";
  golden.datapath = tonemap::Datapath::fixed_point;
  tonemap::PipelineOptions autosel = golden;
  autosel.backend = "auto";
  EXPECT_TRUE(bit_identical(tonemap::tone_map(hdr, autosel).output,
                            tonemap::tone_map(hdr, golden).output));
}

TEST(PipelineBackendTest, UnknownBackendNameThrows) {
  const img::ImageF hdr = random_hdr(8, 8, 43);
  tonemap::PipelineOptions opt;
  opt.backend = "quantum";
  EXPECT_THROW(tonemap::tone_map(hdr, opt), InvalidArgument);
}

} // namespace
} // namespace tmhls::exec
