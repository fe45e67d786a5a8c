// Tests for exec::plan, the one planning function: the "auto" capability
// rule as a table (float -> fused_stream at the requested threads on every
// geometry; fixed -> hlscode in the paper's formats, streaming_fixed where
// hlscode cannot run), named-backend validation and datapath
// contradictions, and bit-identity of the blur every plan configures with
// the separable_float reference.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/planner.hpp"
#include "hlscode/blur_kernels.hpp"
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

tonemap::GaussianKernel small_kernel() {
  return tonemap::GaussianKernel(2.0, 6); // 13 taps: every backend capable
}

PlanRequest request_for(const std::string& backend, Datapath datapath,
                        int threads = 1) {
  PlanRequest request;
  request.width = 64;
  request.height = 64;
  request.backend = backend;
  request.datapath = datapath;
  request.threads = threads;
  return request;
}

// ---- The "auto" rule ---------------------------------------------------

TEST(PlannerRuleTest, FloatAutoIsFusedStreamAtTheRequestedThreads) {
  const std::vector<std::pair<int, int>> geometries = {
      {1, 1}, {48, 40}, {384, 384}, {512, 384}, {1024, 768}};
  const tonemap::GaussianKernel paper_kernel(16.0, 48);
  for (const auto& [w, h] : geometries) {
    for (int threads : {1, 2, 4}) {
      for (Datapath datapath : {Datapath::unspecified, Datapath::float32}) {
        PlanRequest request = request_for("auto", datapath, threads);
        request.width = w;
        request.height = h;
        const ExecutionPlan p = plan(request, paper_kernel);
        ASSERT_NE(p.backend, nullptr);
        EXPECT_STREQ(p.backend->name(), "fused_stream")
            << w << "x" << h << " threads " << threads;
        EXPECT_EQ(p.threads, threads) << w << "x" << h;
        EXPECT_FALSE(p.use_fixed);
      }
    }
  }
}

TEST(PlannerRuleTest, FixedAutoInPaperFormatsIsHlscode) {
  for (int threads : {1, 4}) {
    const ExecutionPlan p =
        plan(request_for("auto", Datapath::fixed_point, threads),
             tonemap::GaussianKernel(16.0, 48));
    EXPECT_STREQ(p.backend->name(), "hlscode");
    EXPECT_EQ(p.threads, 1); // no tiled_threads capability
    EXPECT_TRUE(p.use_fixed);
  }
}

TEST(PlannerRuleTest, FixedAutoFallsBackToStreamingFixedWhereHlscodeCannot) {
  // A widened accumulator: hlscode's fixed datapath is ap_fixed<16,2> only.
  PlanRequest widened = request_for("auto", Datapath::fixed_point);
  widened.fixed.accumulator = fixed::FixedFormat(24, 4);
  const ExecutionPlan w = plan(widened, small_kernel());
  EXPECT_STREQ(w.backend->name(), "streaming_fixed");
  EXPECT_TRUE(w.use_fixed);
  EXPECT_EQ(w.fixed.accumulator, widened.fixed.accumulator);

  // More taps than the synthesizable static bound.
  const tonemap::GaussianKernel huge(40.0, 120);
  ASSERT_GT(huge.taps(), hlscode::kMaxTaps);
  const ExecutionPlan t =
      plan(request_for("auto", Datapath::fixed_point), huge);
  EXPECT_STREQ(t.backend->name(), "streaming_fixed");
  // The float rule is unaffected by the tap bound.
  EXPECT_STREQ(plan(request_for("auto", Datapath::unspecified), huge)
                   .backend->name(),
               "fused_stream");
}

TEST(PlannerRuleTest, RejectsNonPositiveGeometryAndThreads) {
  PlanRequest request = request_for("auto", Datapath::unspecified);
  request.width = 0;
  EXPECT_THROW(plan(request, small_kernel()), InvalidArgument);
  request.width = 64;
  request.height = -1;
  EXPECT_THROW(plan(request, small_kernel()), InvalidArgument);
  request.height = 64;
  request.threads = 0;
  EXPECT_THROW(plan(request, small_kernel()), InvalidArgument);
}

// ---- Named backends -----------------------------------------------------

TEST(PlannerTest, NamedBackendPlansThatBackendAndClampsThreads) {
  PlanRequest request = request_for("fused_stream", Datapath::unspecified, 3);
  const ExecutionPlan p = plan(request, small_kernel());
  ASSERT_NE(p.backend, nullptr);
  EXPECT_STREQ(p.backend->name(), "fused_stream");
  EXPECT_EQ(p.threads, 3);
  EXPECT_FALSE(p.use_fixed);

  // hlscode has no tiled_threads capability: the plan clamps, the caller
  // never has to know.
  request.backend = "hlscode";
  const ExecutionPlan clamped = plan(request, small_kernel());
  EXPECT_STREQ(clamped.backend->name(), "hlscode");
  EXPECT_EQ(clamped.threads, 1);
}

TEST(PlannerTest, DatapathContradictionsThrowLikeLegacyMakeExecutor) {
  PlanRequest request;
  request.backend = "separable_float";
  request.datapath = Datapath::fixed_point;
  EXPECT_THROW(plan(request, small_kernel()), InvalidArgument);
  request.backend = "streaming_fixed";
  request.datapath = Datapath::float32;
  EXPECT_THROW(plan(request, small_kernel()), InvalidArgument);
  // Unspecified snaps to the backend's only datapath.
  request.datapath = Datapath::unspecified;
  EXPECT_TRUE(plan(request, small_kernel()).use_fixed);
  EXPECT_THROW(plan(PlanRequest{64, 64, "no_such_backend"}, small_kernel()),
               InvalidArgument);
}

TEST(PlannerTest, EmptyBackendNameMeansSeparableFloatOnlyInPipelineOptions) {
  // The planner has no meaning for "": it is an unknown name there...
  EXPECT_THROW(plan(request_for("", Datapath::unspecified), small_kernel()),
               InvalidArgument);
  // ...and PipelineOptions maps it to the golden reference before planning.
  tonemap::PipelineOptions opt;
  ASSERT_TRUE(opt.backend.empty());
  EXPECT_STREQ(opt.plan(64, 64).backend->name(), "separable_float");
}

// ---- Plans choose scheduling, never bits ------------------------------

TEST(PlannerTest, EveryPlanBlursBitIdenticalToSeparableFloat) {
  const tonemap::GaussianKernel kernel = small_kernel();
  const img::ImageF plane = random_plane(83, 57, 7);
  PlanRequest reference_request =
      request_for("separable_float", Datapath::unspecified);
  reference_request.width = plane.width();
  reference_request.height = plane.height();
  const img::ImageF reference =
      plan(reference_request, kernel).make_executor().blur(plane, kernel);
  for (const char* backend :
       {"auto", "separable_float", "fused_stream", "hlscode"}) {
    for (int threads : {1, 2, 3}) {
      PlanRequest request =
          request_for(backend, Datapath::unspecified, threads);
      request.width = plane.width();
      request.height = plane.height();
      const ExecutionPlan p = plan(request, kernel);
      EXPECT_TRUE(
          bit_identical(p.make_executor().blur(plane, kernel), reference))
          << backend << " at " << threads << " thread(s)";
    }
  }

  // Fixed plans: both rule outcomes match the streaming_fixed golden model
  // in the paper's formats.
  const img::ImageF fixed_reference =
      plan(request_for("streaming_fixed", Datapath::unspecified), kernel)
          .make_executor()
          .blur(plane, kernel);
  EXPECT_TRUE(bit_identical(
      plan(request_for("auto", Datapath::fixed_point), kernel)
          .make_executor()
          .blur(plane, kernel),
      fixed_reference));
}

} // namespace
} // namespace tmhls::exec
