// Tests for the execution-backend layer: registry resolution of the five
// built-in backends, the row-band decomposition, bit-identity of the SIMD
// backend with the golden path (the host-side
// analogue of the §III.B claim that restructuring changes the schedule,
// not the pixels), the interior/border split of the pass primitives
// against an unsplit reference, the HlsCodeBackend's bit-exact equivalence
// with the golden models, the calibrated cost model with automatic backend
// selection, and the executor plumbing the pipeline and CLI ride on.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/backends.hpp"
#include "exec/cost_model.hpp"
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

TEST(RegistryTest, AllFiveBuiltinsRegisteredAndResolvable) {
  const BackendRegistry& registry = BackendRegistry::global();
  for (const char* name : {"separable_float", "separable_simd",
                           "streaming_fixed", "hlscode", "fused_stream"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    const auto backend = registry.resolve(name);
    ASSERT_NE(backend, nullptr);
    EXPECT_STREQ(backend->name(), name);
  }
  EXPECT_EQ(registry.names().size(), 5u);
  // The line-buffer golden model is not a backend: fused_stream is its
  // production form.
  EXPECT_FALSE(registry.contains("streaming_float"));
}

TEST(RegistryTest, AutoNameIsReserved) {
  BackendRegistry registry;
  EXPECT_THROW(registry.register_backend(
                   "auto",
                   [] { return std::make_shared<const HlsCodeBackend>(); }),
               InvalidArgument);
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

TEST(RegistryTest, DuplicateRegistrationThrows) {
  BackendRegistry registry;
  register_builtin_backends(registry);
  EXPECT_THROW(register_builtin_backends(registry), InvalidArgument);
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
  // SIMD lane width: the vectorized backend reports its compiled width,
  // scalar implementations report 1.
  const BackendCapabilities simd =
      registry.resolve("separable_simd")->capabilities();
  EXPECT_TRUE(simd.float_datapath);
  EXPECT_FALSE(simd.streaming);
  EXPECT_EQ(simd.simd_lanes, tonemap::kSimdDefaultLanes);
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
  BlurContext threaded;
  threaded.threads = 4;
  for (const char* name : {"separable_float", "separable_simd",
                           "streaming_fixed", "hlscode"}) {
    EXPECT_THROW(
        BackendRegistry::global().resolve(name)->run_blur(src, kernel,
                                                          threaded),
        InvalidArgument)
        << name;
  }
}

// --- SIMD backend bit-identity -------------------------------------------

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

TEST(SimdBitIdentityTest, BackendMatchesSeparableFloatAcrossGeometries) {
  const auto backend = BackendRegistry::global().resolve("separable_simd");
  std::uint64_t seed = 101;
  for (const SimdGeometry& g : kSimdGeometries) {
    const img::ImageF src = random_plane(g.w, g.h, seed++);
    const tonemap::GaussianKernel kernel(g.radius / 3.0 + 0.5, g.radius);
    const img::ImageF golden = tonemap::blur_separable_float(src, kernel);
    EXPECT_TRUE(
        bit_identical(backend->run_blur(src, kernel, BlurContext{}), golden))
        << g.w << "x" << g.h << " radius=" << g.radius;
  }
}

TEST(SimdPassTest, BothLaneWidthsMatchScalarPasses) {
  for (int lanes : {tonemap::kSimdLanes4, tonemap::kSimdLanes8}) {
    std::uint64_t seed = 211;
    for (const SimdGeometry& g : kSimdGeometries) {
      const img::ImageF src = random_plane(g.w, g.h, seed++);
      const tonemap::GaussianKernel kernel(g.radius / 3.0 + 0.5, g.radius);
      img::ImageF scalar_h(g.w, g.h, 1);
      img::ImageF simd_h(g.w, g.h, 1);
      tonemap::blur_hpass_float_rows(src, scalar_h, kernel, 0, g.h);
      tonemap::blur_hpass_float_rows_simd(src, simd_h, kernel, 0, g.h,
                                          lanes);
      EXPECT_TRUE(bit_identical(simd_h, scalar_h))
          << "hpass " << g.w << "x" << g.h << " lanes=" << lanes;
      img::ImageF scalar_v(g.w, g.h, 1);
      img::ImageF simd_v(g.w, g.h, 1);
      tonemap::blur_vpass_float_rows(scalar_h, scalar_v, kernel, 0, g.h);
      tonemap::blur_vpass_float_rows_simd(scalar_h, simd_v, kernel, 0, g.h,
                                          lanes);
      EXPECT_TRUE(bit_identical(simd_v, scalar_v))
          << "vpass " << g.w << "x" << g.h << " lanes=" << lanes;
    }
  }
}

TEST(SimdPassTest, RejectsUnsupportedLaneWidths) {
  const img::ImageF src = random_plane(8, 8, 5);
  img::ImageF dst(8, 8, 1);
  const tonemap::GaussianKernel kernel(1.0, 3);
  EXPECT_THROW(
      tonemap::blur_hpass_float_rows_simd(src, dst, kernel, 0, 8, 3),
      InvalidArgument);
  EXPECT_THROW(
      tonemap::blur_vpass_float_rows_simd(src, dst, kernel, 0, 8, 16),
      InvalidArgument);
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

    for (int lanes : {tonemap::kSimdLanes4, tonemap::kSimdLanes8}) {
      img::ImageF hsimd(w, h, 1);
      tonemap::blur_hpass_float_rows_simd(src, hsimd, kernel, 0, h, lanes);
      ASSERT_TRUE(bit_identical(hsimd, href))
          << "simd hpass trial " << trial << " lanes=" << lanes;
      img::ImageF vsimd(w, h, 1);
      tonemap::blur_vpass_float_rows_simd(href, vsimd, kernel, 0, h, lanes);
      ASSERT_TRUE(bit_identical(vsimd, vref))
          << "simd vpass trial " << trial << " lanes=" << lanes;
    }
  }
}

// --- HlsCodeBackend golden equivalence -----------------------------------

TEST(HlsCodeBackendTest, FloatDatapathMatchesStreamingFloatGolden) {
  const img::ImageF src = random_plane(37, 23, 13);
  const tonemap::GaussianKernel kernel(2.0, 6);
  const HlsCodeBackend backend;
  EXPECT_TRUE(bit_identical(backend.run_blur(src, kernel, BlurContext{}),
                            tonemap::blur_streaming_float(src, kernel)));
}

TEST(HlsCodeBackendTest, FixedDatapathMatchesStreamingFixedGolden) {
  const img::ImageF src = random_plane(37, 23, 17);
  const tonemap::GaussianKernel kernel(2.0, 6);
  const HlsCodeBackend backend;
  BlurContext ctx;
  ctx.use_fixed = true;
  EXPECT_TRUE(bit_identical(
      backend.run_blur(src, kernel, ctx),
      tonemap::blur_streaming_fixed(src, kernel,
                                    tonemap::FixedBlurConfig::paper())));
}

TEST(HlsCodeBackendTest, RejectsKernelsBeyondStaticBound) {
  const img::ImageF src = random_plane(8, 8, 1);
  const tonemap::GaussianKernel kernel(40.0, 120); // 241 taps > kMaxTaps
  EXPECT_THROW(HlsCodeBackend().run_blur(src, kernel, BlurContext{}),
               InvalidArgument);
}

TEST(HlsCodeBackendTest, RejectsNonPaperFixedFormats) {
  const img::ImageF src = random_plane(8, 8, 1);
  const tonemap::GaussianKernel kernel(1.0, 3);
  BlurContext ctx;
  ctx.use_fixed = true;
  ctx.fixed.data = fixed::FixedFormat(24, 4);
  EXPECT_THROW(HlsCodeBackend().run_blur(src, kernel, ctx), InvalidArgument);
}

// --- Executor ------------------------------------------------------------

TEST(ExecutorTest, ClampsThreadsForBackendsWithoutTiledCapability) {
  ExecutorOptions opts;
  opts.threads = 8;
  EXPECT_EQ(PipelineExecutor("hlscode", opts).effective_threads(), 1);
  EXPECT_EQ(PipelineExecutor("separable_simd", opts).effective_threads(), 1);
  EXPECT_EQ(PipelineExecutor("fused_stream", opts).effective_threads(), 8);
}

TEST(ExecutorTest, CostHookScalesWithGeometryAndDatapath) {
  const tonemap::GaussianKernel kernel(2.0, 6);
  const PipelineExecutor fixed("streaming_fixed");
  const PipelineExecutor sep("separable_float");
  const BlurCost fc = fixed.estimate_cost(64, 32, kernel);
  EXPECT_DOUBLE_EQ(fc.macs, 2.0 * 13 * 64 * 32);
  // Streaming working set is the 16-bit line buffer; the direct form keeps
  // a full 32-bit plane.
  EXPECT_EQ(fc.buffer_bytes, tonemap::line_buffer_bytes(64, 13, 16));
  EXPECT_EQ(sep.estimate_cost(64, 32, kernel).buffer_bytes,
            static_cast<std::size_t>(64) * 32 * 4);
}

// --- Cost model + automatic backend selection -----------------------------

TEST(CostModelTest, ParsesThroughputJsonlSkippingForeignRecords) {
  std::istringstream in(
      "{\"bench\":\"other_bench\",\"value\":3}\n"
      "not json at all\n"
      "{\"bench\":\"backend_throughput\",\"backend\":\"separable_simd\","
      "\"threads\":1,\"width\":1024,\"height\":768,\"taps\":97,"
      "\"seconds_per_frame\":0.02,\"fps\":50,"
      "\"speedup_vs_separable_float\":5.5}\n");
  const auto records = parse_throughput_jsonl(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].backend, "separable_simd");
  EXPECT_EQ(records[0].threads, 1);
  EXPECT_EQ(records[0].width, 1024);
  EXPECT_EQ(records[0].height, 768);
  EXPECT_EQ(records[0].taps, 97);
  EXPECT_DOUBLE_EQ(records[0].seconds_per_frame, 0.02);
}

TEST(CostModelTest, CalibrationReplacesPriorWithBestSingleThreadRecord) {
  CostModel model;
  EXPECT_GT(model.macs_per_second("separable_float"), 0.0); // prior
  EXPECT_EQ(model.macs_per_second("gpu_imaginary"), 0.0);   // unknown
  ThroughputRecord slow;
  slow.backend = "separable_float";
  slow.threads = 1;
  slow.width = 100;
  slow.height = 100;
  slow.taps = 10;
  slow.seconds_per_frame = 0.2; // 1e6 MACs/s
  ThroughputRecord fast = slow;
  fast.seconds_per_frame = 0.1; // 2e6 MACs/s: the best observed wins
  ThroughputRecord threaded = slow;
  threaded.threads = 4; // ignored: the model is per-thread
  threaded.seconds_per_frame = 0.001;
  EXPECT_EQ(model.calibrate({slow, fast, threaded}), 1);
  EXPECT_DOUBLE_EQ(model.macs_per_second("separable_float"),
                   2.0 * 10 * 100 * 100 / 0.1);
}

TEST(CostModelTest, EstimateCostCarriesCalibratedWallTime) {
  const tonemap::GaussianKernel kernel(2.0, 6);
  const auto backend = BackendRegistry::global().resolve("fused_stream");
  BlurContext single;
  const BlurCost c1 = backend->estimate_cost(640, 480, kernel, single);
  // The built-in priors make every builtin's estimate concrete.
  ASSERT_GT(c1.seconds, 0.0);
  BlurContext quad;
  quad.threads = 4;
  const BlurCost c4 = backend->estimate_cost(640, 480, kernel, quad);
  EXPECT_DOUBLE_EQ(c4.seconds, c1.seconds / 4.0);
  EXPECT_DOUBLE_EQ(c4.macs, c1.macs);
}

TEST(CanRunTest, ChecksDatapathTapsAndFixedFormats) {
  const BackendRegistry& registry = BackendRegistry::global();
  const tonemap::GaussianKernel small(1.0, 3);
  const tonemap::GaussianKernel huge(40.0, 120); // 241 taps > kMaxTaps
  BlurContext float_ctx;
  BlurContext fixed_ctx;
  fixed_ctx.use_fixed = true;
  // Float request: float-datapath backends only.
  EXPECT_TRUE(registry.resolve("separable_simd")->can_run(small, float_ctx));
  EXPECT_FALSE(
      registry.resolve("streaming_fixed")->can_run(small, float_ctx));
  // Fixed request: fixed-datapath backends only.
  EXPECT_TRUE(registry.resolve("streaming_fixed")->can_run(small, fixed_ctx));
  EXPECT_FALSE(
      registry.resolve("separable_float")->can_run(small, fixed_ctx));
  // The synthesizable static tap bound.
  EXPECT_FALSE(registry.resolve("hlscode")->can_run(huge, float_ctx));
  EXPECT_TRUE(registry.resolve("separable_simd")->can_run(huge, float_ctx));
  // hlscode's fixed datapath exists only in the paper's formats.
  EXPECT_TRUE(registry.resolve("hlscode")->can_run(small, fixed_ctx));
  BlurContext widened = fixed_ctx;
  widened.fixed.accumulator = fixed::FixedFormat(24, 4);
  EXPECT_FALSE(registry.resolve("hlscode")->can_run(small, widened));
  EXPECT_TRUE(registry.resolve("streaming_fixed")->can_run(small, widened));
}

TEST(AutoSelectionTest, PicksCapableBackendPerRequest) {
  const tonemap::GaussianKernel kernel(16.0, 48);
  ExecutorOptions opts;
  const auto chosen = select_auto_backend(1024, 768, kernel, opts);
  ASSERT_NE(chosen, nullptr);
  EXPECT_TRUE(chosen->capabilities().float_datapath);
  EXPECT_TRUE(chosen->can_run(kernel, BlurContext{}));
  // A fixed-datapath request must never land on a float-only backend.
  ExecutorOptions fixed_opts;
  fixed_opts.use_fixed = true;
  const auto fixed_choice =
      select_auto_backend(1024, 768, kernel, fixed_opts);
  ASSERT_NE(fixed_choice, nullptr);
  EXPECT_TRUE(fixed_choice->capabilities().fixed_datapath);
}

TEST(AutoSelectionTest, ThrowsWhenNoBackendIsCapable) {
  // A registry with only a float backend cannot serve a fixed request.
  BackendRegistry registry;
  registry.register_backend("separable_float", [] {
    return std::make_shared<const SeparableFloatBackend>();
  });
  ExecutorOptions opts;
  opts.use_fixed = true;
  EXPECT_THROW(select_auto_backend(64, 64, tonemap::GaussianKernel(1.0, 3),
                                   opts, registry),
               InvalidArgument);
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
  const exec::PipelineExecutor executor = opt.make_executor();
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

TEST(PipelineBackendTest, FixedDatapathOnFloatOnlyBackendThrows) {
  // `--fixed --backend separable_simd` must fail loudly, not silently
  // produce float output.
  tonemap::PipelineOptions opt;
  opt.datapath = tonemap::Datapath::fixed_point;
  opt.backend = "separable_simd";
  EXPECT_THROW(opt.make_executor(), InvalidArgument);
  opt.backend = "hlscode"; // dual datapath: fine
  EXPECT_NO_THROW(opt.make_executor());
}

} // namespace
} // namespace tmhls::exec
