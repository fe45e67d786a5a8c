// Tests for PipelineOptions::plan, the one place execution is decided: the
// rule as one table over backend x datapath x kernel x fixed formats x
// threads (the "auto" capability rule, the golden model behind an empty
// backend, named-backend capability checks, the thread clamp), and
// bit-identity of the blur every plan configures with the separable_float
// reference.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hlscode/blur_kernels.hpp"
#include "tonemap/kernel.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::tonemap {
namespace {

img::ImageF random_plane(int w, int h, std::uint64_t seed, int channels = 1) {
  Rng rng(seed);
  img::ImageF im(w, h, channels);
  for (float& v : im.samples()) v = static_cast<float>(rng.uniform());
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
    return ::testing::AssertionFailure() << "bit pattern difference";
  }
  return ::testing::AssertionSuccess();
}

PipelineOptions options_for(const std::string& backend, Datapath datapath,
                            int threads = 1) {
  PipelineOptions opt;
  opt.sigma = 2.0;
  opt.radius = 6; // 13 taps: every backend capable
  opt.backend = backend;
  opt.datapath = datapath;
  opt.threads = threads;
  return opt;
}

// ---- The rule, as one table ---------------------------------------------

constexpr Datapath kUnspec = Datapath::unspecified;
constexpr Datapath kFloat = Datapath::float32;
constexpr Datapath kFixed = Datapath::fixed_point;

/// One table row: a backend and datapath request, and the plan expected
/// for each of the four {kernel, formats} cells — {13 taps, paper},
/// {13 taps, widened accumulator}, {241 taps, paper}, {241 taps, widened}.
/// A cell reads "backend/float", "backend/fixed" or "throws"
/// (InvalidArgument). Threads: fused_stream runs the requested count, every
/// other backend one.
struct PlanRow {
  const char* backend;
  Datapath datapath;
  std::array<const char*, 4> expect;
};

const std::vector<PlanRow>& plan_table() {
  static const char* const kThrows = "throws";
  static const std::vector<PlanRow> kTable = {
      // "": the golden model of the requested datapath.
      {"", kUnspec, {"separable_float/float", "separable_float/float",
                     "separable_float/float", "separable_float/float"}},
      {"", kFloat, {"separable_float/float", "separable_float/float",
                    "separable_float/float", "separable_float/float"}},
      {"", kFixed, {"streaming_fixed/fixed", "streaming_fixed/fixed",
                    "streaming_fixed/fixed", "streaming_fixed/fixed"}},
      // "auto": fused_stream on float; hlscode, else streaming_fixed.
      {"auto", kUnspec, {"fused_stream/float", "fused_stream/float",
                         "fused_stream/float", "fused_stream/float"}},
      {"auto", kFloat, {"fused_stream/float", "fused_stream/float",
                        "fused_stream/float", "fused_stream/float"}},
      {"auto", kFixed, {"hlscode/fixed", "streaming_fixed/fixed",
                        "streaming_fixed/fixed", "streaming_fixed/fixed"}},
      // Named backends run if their capabilities allow, else throw.
      {"fused_stream", kUnspec, {"fused_stream/float", "fused_stream/float",
                                 "fused_stream/float", "fused_stream/float"}},
      {"fused_stream", kFloat, {"fused_stream/float", "fused_stream/float",
                                "fused_stream/float", "fused_stream/float"}},
      {"fused_stream", kFixed, {kThrows, kThrows, kThrows, kThrows}},
      {"hlscode", kUnspec, {"hlscode/float", "hlscode/float", kThrows,
                            kThrows}},
      {"hlscode", kFloat, {"hlscode/float", "hlscode/float", kThrows,
                           kThrows}},
      {"hlscode", kFixed, {"hlscode/fixed", kThrows, kThrows, kThrows}},
      {"separable_float", kUnspec,
       {"separable_float/float", "separable_float/float",
        "separable_float/float", "separable_float/float"}},
      {"separable_float", kFloat,
       {"separable_float/float", "separable_float/float",
        "separable_float/float", "separable_float/float"}},
      {"separable_float", kFixed, {kThrows, kThrows, kThrows, kThrows}},
      // A fixed-only backend follows its only datapath when unspecified.
      {"streaming_fixed", kUnspec,
       {"streaming_fixed/fixed", "streaming_fixed/fixed",
        "streaming_fixed/fixed", "streaming_fixed/fixed"}},
      {"streaming_fixed", kFloat, {kThrows, kThrows, kThrows, kThrows}},
      {"streaming_fixed", kFixed,
       {"streaming_fixed/fixed", "streaming_fixed/fixed",
        "streaming_fixed/fixed", "streaming_fixed/fixed"}},
      {"no_such_backend", kUnspec, {kThrows, kThrows, kThrows, kThrows}},
      {"no_such_backend", kFloat, {kThrows, kThrows, kThrows, kThrows}},
      {"no_such_backend", kFixed, {kThrows, kThrows, kThrows, kThrows}},
  };
  return kTable;
}

TEST(PlanTableTest, EveryRowPlansItsBackendDatapathAndThreads) {
  ASSERT_GT(GaussianKernel(40.0, 120).taps(), hlscode::kMaxTaps);
  FixedBlurConfig widened = FixedBlurConfig::paper();
  widened.accumulator = fixed::FixedFormat(24, 4);
  for (const PlanRow& row : plan_table()) {
    for (int cell = 0; cell < 4; ++cell) {
      for (int threads : {1, 4}) {
        PipelineOptions opt = options_for(row.backend, row.datapath, threads);
        if (cell >= 2) {
          opt.sigma = 40.0;
          opt.radius = 120; // 241 taps > kMaxTaps
        }
        if (cell % 2 == 1) opt.fixed = widened;
        const std::string expect = row.expect[static_cast<std::size_t>(cell)];
        const std::string where = std::string("backend '") + row.backend +
                                  "' datapath " +
                                  std::to_string(static_cast<int>(
                                      row.datapath)) +
                                  " cell " + std::to_string(cell) +
                                  " threads " + std::to_string(threads);
        if (expect == "throws") {
          EXPECT_THROW(opt.plan(64, 64), InvalidArgument) << where;
          continue;
        }
        const exec::PipelineExecutor p = opt.plan(64, 64);
        const std::string name = expect.substr(0, expect.find('/'));
        EXPECT_EQ(p.backend().name(), name) << where;
        EXPECT_EQ(p.options().use_fixed, expect.ends_with("/fixed")) << where;
        EXPECT_EQ(p.options().threads, name == "fused_stream" ? threads : 1)
            << where;
        EXPECT_EQ(p.options().fixed.accumulator, opt.fixed.accumulator)
            << where;
        opt.threads = 0;
        EXPECT_THROW(opt.plan(64, 64), InvalidArgument) << where;
      }
    }
  }
}

TEST(PlanTableTest, RejectsNonPositiveGeometry) {
  const PipelineOptions opt = options_for("auto", kUnspec);
  EXPECT_THROW(opt.plan(0, 64), InvalidArgument);
  EXPECT_THROW(opt.plan(64, -1), InvalidArgument);
}

TEST(PlanTableTest, CapabilityErrorNamesBackendTapsAndDatapath) {
  PipelineOptions opt = options_for("hlscode", kFloat);
  opt.sigma = 40.0;
  opt.radius = 120;
  try {
    opt.plan(64, 64);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("hlscode"), std::string::npos) << what;
    EXPECT_NE(what.find("241-tap"), std::string::npos) << what;
    EXPECT_NE(what.find("float datapath"), std::string::npos) << what;
  }
}

TEST(PlanTableTest, DatapathParsesAndRejects) {
  EXPECT_EQ(datapath_from_string("float"), Datapath::float32);
  EXPECT_EQ(datapath_from_string("float32"), Datapath::float32);
  EXPECT_EQ(datapath_from_string("fixed"), Datapath::fixed_point);
  EXPECT_EQ(datapath_from_string("fixed_point"), Datapath::fixed_point);
  EXPECT_THROW(datapath_from_string("analog"), InvalidArgument);
}

// ---- Plans choose scheduling, never bits ------------------------------

TEST(PlannerTest, EveryPlanBlursBitIdenticalToSeparableFloat) {
  const img::ImageF plane = random_plane(83, 57, 7);
  const GaussianKernel kernel = options_for("", kUnspec).kernel();
  const img::ImageF reference = options_for("separable_float", kUnspec)
                                    .plan(plane.width(), plane.height())
                                    .blur(plane, kernel);
  for (const char* backend :
       {"", "auto", "separable_float", "fused_stream", "hlscode"}) {
    for (int threads : {1, 2, 3}) {
      const exec::PipelineExecutor p =
          options_for(backend, kUnspec, threads)
              .plan(plane.width(), plane.height());
      EXPECT_TRUE(bit_identical(p.blur(plane, kernel), reference))
          << backend << " at " << threads << " thread(s)";
    }
  }

  // Fixed plans: every rule outcome matches the streaming_fixed golden
  // model in the paper's formats.
  const img::ImageF fixed_reference =
      options_for("streaming_fixed", kUnspec).plan(64, 64).blur(plane, kernel);
  for (const char* backend : {"", "auto", "hlscode"}) {
    EXPECT_TRUE(bit_identical(
        options_for(backend, kFixed).plan(64, 64).blur(plane, kernel),
        fixed_reference))
        << backend;
  }
}

TEST(PlannerTest, EmptyBackendOnFixedDatapathToneMapsLikeStreamingFixed) {
  const img::ImageF hdr = random_plane(31, 19, 11, 3);
  PipelineOptions fixed_request;
  fixed_request.datapath = Datapath::fixed_point;
  PipelineOptions golden;
  golden.backend = "streaming_fixed";
  EXPECT_TRUE(bit_identical(tone_map(hdr, fixed_request).output,
                            tone_map(hdr, golden).output));
}

} // namespace
} // namespace tmhls::tonemap
