// Unit tests for src/common: math helpers, RNG determinism and
// distribution sanity, and text-table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace tmhls {
namespace {

TEST(MathTest, ClampInsideRangeIsIdentity) {
  EXPECT_EQ(clamp(5, 0, 10), 5);
  EXPECT_FLOAT_EQ(clamp(0.25f, 0.0f, 1.0f), 0.25f);
}

TEST(MathTest, ClampSaturatesBothEnds) {
  EXPECT_EQ(clamp(-3, 0, 10), 0);
  EXPECT_EQ(clamp(42, 0, 10), 10);
  EXPECT_FLOAT_EQ(clamp(-0.1f, 0.0f, 1.0f), 0.0f);
  EXPECT_FLOAT_EQ(clamp(1.7f, 0.0f, 1.0f), 1.0f);
}

TEST(MathTest, LerpEndpointsAndMidpoint) {
  EXPECT_DOUBLE_EQ(lerp(2.0, 6.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 6.0, 1.0), 6.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 6.0, 0.5), 4.0);
}

TEST(MathTest, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(-4));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(1023));
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 5), 2);
  EXPECT_EQ(ceil_div(11, 5), 3);
  EXPECT_EQ(ceil_div(0, 5), 0);
  EXPECT_EQ(ceil_div(1, 1), 1);
  EXPECT_EQ(ceil_div(79, 4), 20); // the fixed-point design's II
}

TEST(MathTest, RoundUp) {
  EXPECT_EQ(round_up(13, 8), 16);
  EXPECT_EQ(round_up(16, 8), 16);
  EXPECT_EQ(round_up(0, 8), 0);
}

TEST(MathTest, Log2Ceil) {
  EXPECT_EQ(log2_ceil(1), 0);
  EXPECT_EQ(log2_ceil(2), 1);
  EXPECT_EQ(log2_ceil(3), 2);
  EXPECT_EQ(log2_ceil(1024), 10);
  EXPECT_EQ(log2_ceil(1025), 11);
}

TEST(MathTest, ApproxEqual) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(0.0, 0.0));
  EXPECT_TRUE(approx_equal(1e6, 1e6 * (1.0 + 1e-10)));
}

TEST(MathTest, DbRoundTrip) {
  for (double db : {0.0, 3.0, 10.0, 66.0, -20.0}) {
    EXPECT_NEAR(ratio_to_db(db_to_ratio(db)), db, 1e-9);
  }
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.next_u64() != b.next_u64()) ++differing;
  }
  EXPECT_GT(differing, 30);
}

TEST(RngTest, UniformStaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformMeanIsCentred) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversFullRangeInclusive) {
  Rng rng(10);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(0, 7);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u); // all 8 values hit in 1000 draws
}

TEST(RngTest, UniformIntSingleValue) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(RngTest, UniformIntRejectsBadRange) {
  Rng rng(12);
  EXPECT_THROW(rng.uniform_int(5, 4), InvalidArgument);
}

TEST(RngTest, NormalMomentsAreSane) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, NormalScaledMoments) {
  Rng rng(14);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, NormalRejectsNegativeStddev) {
  Rng rng(15);
  EXPECT_THROW(rng.normal(0.0, -1.0), InvalidArgument);
}

TEST(TableTest, RendersHeaderSeparatorAndRows) {
  TextTable t({"a", "bb"});
  t.add_row({"1", "2"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("| bb"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
  EXPECT_NE(s.find("| 1 "), std::string::npos);
}

TEST(TableTest, ColumnsAlignToWidestCell) {
  TextTable t({"x", "y"});
  t.add_row({"longvalue", "1"});
  t.add_row({"2", "another"});
  const std::string s = t.render();
  // Every rendered line has the same length.
  std::size_t first_len = s.find('\n');
  std::size_t pos = first_len + 1;
  while (pos < s.size()) {
    const std::size_t next = s.find('\n', pos);
    EXPECT_EQ(next - pos, first_len);
    pos = next + 1;
  }
}

TEST(TableTest, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(TableTest, EmptyHeadersThrow) {
  EXPECT_THROW(TextTable t({}), InvalidArgument);
}

TEST(TableTest, RowCountIgnoresSeparators) {
  TextTable t({"a"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(FormatTest, FormatFixedDigits) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(7.0, 0), "7");
  EXPECT_EQ(format_fixed(-1.5, 1), "-1.5");
}

TEST(FormatTest, FormatSpeedup) {
  EXPECT_EQ(format_speedup(17.36, 1), "17.4x");
  EXPECT_EQ(format_speedup(2.0, 0), "2x");
}

TEST(FormatTest, FormatSiPicksScale) {
  EXPECT_NE(format_si(1.5e6).find("M"), std::string::npos);
  EXPECT_NE(format_si(2.5e-3).find("m"), std::string::npos);
  EXPECT_NE(format_si(100e6, 3).find("100 M"), std::string::npos);
}

TEST(ErrorTest, RequireThrowsInvalidArgumentWithMessage) {
  try {
    TMHLS_REQUIRE(false, "the reason");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("the reason"), std::string::npos);
  }
}

TEST(ErrorTest, HierarchyIsCatchableAsError) {
  EXPECT_THROW(throw IoError("x"), Error);
  EXPECT_THROW(throw PlatformError("x"), Error);
  EXPECT_THROW(throw InvalidArgument("x"), Error);
}

namespace argstest {
Args parse(std::vector<const char*> argv,
           std::vector<std::string> flags = {}) {
  return Args(static_cast<int>(argv.size()), argv.data(), std::move(flags));
}
} // namespace argstest

TEST(ArgsTest, PositionalsAndProgram) {
  const Args a = argstest::parse({"prog", "in.hdr", "out.ppm"});
  EXPECT_EQ(a.program(), "prog");
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "in.hdr");
  EXPECT_EQ(a.positional()[1], "out.ppm");
}

TEST(ArgsTest, ValuedOptionsBothForms) {
  const Args a = argstest::parse({"prog", "--sigma", "13", "--radius=39"});
  EXPECT_EQ(a.get_or("sigma", ""), "13");
  EXPECT_EQ(a.get_or("radius", ""), "39");
  EXPECT_DOUBLE_EQ(a.get_double("sigma", 0.0), 13.0);
  EXPECT_EQ(a.get_int("radius", 0), 39);
  EXPECT_NO_THROW(a.reject_unread()); // every option was read
}

TEST(ArgsTest, FlagsNeedNoValue) {
  const Args a = argstest::parse({"prog", "--fixed", "input.hdr"}, {"fixed"});
  EXPECT_THROW(a.reject_unread(), InvalidArgument);
  EXPECT_TRUE(a.has("fixed")); // has() reads a flag
  EXPECT_NO_THROW(a.reject_unread());
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "input.hdr");
}

TEST(ArgsTest, MissingOptionsUseFallbacks) {
  const Args a = argstest::parse({"prog"});
  EXPECT_FALSE(a.has("sigma"));
  EXPECT_EQ(a.get("sigma"), std::nullopt);
  EXPECT_DOUBLE_EQ(a.get_double("sigma", 4.5), 4.5);
  EXPECT_EQ(a.get_or("mode", "auto"), "auto");
}

TEST(ArgsTest, MalformedInputThrows) {
  EXPECT_THROW(argstest::parse({"prog", "--sigma"}), InvalidArgument);
  EXPECT_THROW(argstest::parse({"prog", "--"}), InvalidArgument);
  const Args bad_num = argstest::parse({"prog", "--sigma", "abc"});
  EXPECT_THROW(bad_num.get_double("sigma", 0.0), InvalidArgument);
  EXPECT_THROW(bad_num.get_int("sigma", 0), InvalidArgument);
}

TEST(ArgsTest, UnreadOptionIsRejectedByName) {
  // `--thread 4` where the command reads --threads: a typo, not a no-op.
  const Args a = argstest::parse({"prog", "--thread", "4", "--size", "8"});
  EXPECT_EQ(a.get_int("threads", 1), 1);
  EXPECT_EQ(a.get_int("size", 0), 8);
  try {
    a.reject_unread();
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--thread"), std::string::npos);
    EXPECT_EQ(std::string(e.what()).find("--size"), std::string::npos);
  }
}

} // namespace
} // namespace tmhls
