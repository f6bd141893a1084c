// Unit tests for the support library (rng, stats, cli, table, checks,
// morton keys).
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/morton.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace morph {
namespace {

TEST(Check, PassesOnTrue) { EXPECT_NO_THROW(MORPH_CHECK(1 + 1 == 2)); }

TEST(Check, ThrowsCheckErrorOnFalse) {
  EXPECT_THROW(MORPH_CHECK(false), CheckError);
}

TEST(Check, MessageContainsExpressionAndLocation) {
  try {
    MORPH_CHECK_MSG(2 > 3, "custom context " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 > 3"), std::string::npos);
    EXPECT_NE(what.find("custom context 42"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextRangeInclusiveBounds) {
  Rng r(11);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo |= (v == -3);
    hi |= (v == 3);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliRoughlyMatchesP) {
  Rng r(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.next_bool(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  // The child should not replay the parent's output.
  Rng a2(21);
  (void)a2();  // advance to where split consumed one draw
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child() == a2());
  EXPECT_LT(same, 4);
}

TEST(Rng, RejectsZeroBound) { EXPECT_THROW(Rng(1).next_below(0), CheckError); }

TEST(Stats, MeanBasic) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanEmptyIsZero) { EXPECT_EQ(mean({}), 0.0); }

TEST(Stats, GeomeanBasic) {
  const double xs[] = {1.0, 4.0};
  EXPECT_DOUBLE_EQ(geomean(xs), 2.0);
}

TEST(Stats, GeomeanOfSpeedupsMatchesPaperStyle) {
  // Geometric mean like the paper's 9.3x PTA claim: order-insensitive.
  const double a[] = {2.0, 8.0};
  const double b[] = {8.0, 2.0};
  EXPECT_DOUBLE_EQ(geomean(a), geomean(b));
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const double xs[] = {1.0, 0.0};
  EXPECT_THROW(geomean(xs), CheckError);
}

TEST(Cli, ParsesFlagsAndDefaults) {
  const char* argv[] = {"prog", "--n=42", "--name=mesh", "--verbose",
                        "--ratio=4.2"};
  CliArgs args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_EQ(args.get("name", ""), "mesh");
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 4.2);
  EXPECT_EQ(args.get_int("missing", -7), -7);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, BoolFalseSpellings) {
  const char* argv[] = {"prog", "--a=0", "--b=false", "--c=1"};
  CliArgs args(4, const_cast<char**>(argv));
  EXPECT_FALSE(args.get_bool("a", true));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
}

TEST(Cli, CollectsPositionalArguments) {
  const char* argv[] = {"prog", "diff", "--threshold=0.05", "a.json",
                        "b.json"};
  CliArgs args(5, const_cast<char**>(argv));
  ASSERT_EQ(args.positional().size(), 3u);
  EXPECT_EQ(args.positional()[0], "diff");
  EXPECT_EQ(args.positional()[1], "a.json");
  EXPECT_DOUBLE_EQ(args.get_double("threshold", 0.0), 0.05);
}

TEST(Cli, PositiveIntAcceptsOnlyStrictlyPositiveIntegers) {
  const char* argv[] = {"prog",       "--ok=64",  "--zero=0", "--neg=-3",
                        "--junk=12x", "--empty=", "--word=ten",
                        "--huge=99999999999999999999"};
  CliArgs args(8, const_cast<char**>(argv));
  EXPECT_EQ(args.try_get_int_at_least("ok", 1, 1), 64);
  EXPECT_EQ(args.try_get_int_at_least("absent", 1, 7), 7);  // default passes
  EXPECT_EQ(args.try_get_int_at_least("zero", 1, 1), std::nullopt);
  EXPECT_EQ(args.try_get_int_at_least("neg", 1, 1), std::nullopt);
  EXPECT_EQ(args.try_get_int_at_least("junk", 1, 1), std::nullopt);
  EXPECT_EQ(args.try_get_int_at_least("empty", 1, 1), std::nullopt);
  EXPECT_EQ(args.try_get_int_at_least("word", 1, 1), std::nullopt);
  EXPECT_EQ(args.try_get_int_at_least("huge", 1, 1), std::nullopt);

  // Bound 0, for counts where 0 means auto/off (--workers, --crash-after,
  // ...): zero passes, a negative value must not wrap to a huge unsigned.
  EXPECT_EQ(args.try_get_int_at_least("zero", 0, 5), 0);
  EXPECT_EQ(args.try_get_int_at_least("ok", 0, 5), 64);
  EXPECT_EQ(args.try_get_int_at_least("absent", 0, 5), 5);
  EXPECT_EQ(args.try_get_int_at_least("neg", 0, 5), std::nullopt);
  EXPECT_EQ(args.try_get_int_at_least("junk", 0, 5), std::nullopt);
  EXPECT_EQ(args.try_get_int_at_least("huge", 0, 5), std::nullopt);
}

TEST(Cli, WarnUnknownFlagsSuggestsClosestKnown) {
  const char* argv[] = {"prog", "--host-worker=4", "--scale=2",
                        "--completely-different"};
  CliArgs args(4, const_cast<char**>(argv));
  std::ostringstream err;
  const std::size_t n =
      args.warn_unknown({"host-workers", "scale", "json"}, err);
  EXPECT_EQ(n, 2u);
  const std::string out = err.str();
  EXPECT_NE(out.find("unknown flag --host-worker"), std::string::npos);
  EXPECT_NE(out.find("did you mean --host-workers?"), std::string::npos);
  // Nothing close to --completely-different: no suggestion offered.
  EXPECT_NE(out.find("unknown flag --completely-different"),
            std::string::npos);
  EXPECT_EQ(out.find("--completely-different (did you mean"),
            std::string::npos);
}

TEST(Cli, WarnUnknownIsQuietWhenAllFlagsKnown) {
  const char* argv[] = {"prog", "--scale=2"};
  CliArgs args(2, const_cast<char**>(argv));
  std::ostringstream err;
  EXPECT_EQ(args.warn_unknown({"scale"}, err), 0u);
  EXPECT_TRUE(err.str().empty());
}

TEST(Table, AlignsColumnsAndPadsRows) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Morton, InterleaveSpreadsBits) {
  EXPECT_EQ(morton_interleave(0, 0), 0u);
  EXPECT_EQ(morton_interleave(1, 0), 1u);   // x in even positions
  EXPECT_EQ(morton_interleave(0, 1), 2u);   // y in odd positions
  EXPECT_EQ(morton_interleave(3, 3), 15u);
  EXPECT_EQ(morton_interleave(0xffffffffu, 0),
            0x5555555555555555ULL);
}

TEST(Morton, BoundaryCoordinatesStayInsideTheKeyGrid) {
  // Regression: v == 1.0 used to scale to 1 << 30 (bit 30 set), so the
  // square's far corner and edges landed outside the 60-bit key range
  // every interior point maps to, breaking their key-locality in the
  // layout scan's sort.
  const std::uint32_t top = (1u << 30) - 1;
  EXPECT_EQ(morton_unit(1.0, 1.0), morton_interleave(top, top));
  EXPECT_EQ(morton_unit(1.0, 0.0), morton_interleave(top, 0));
  EXPECT_EQ(morton_unit(0.0, 1.0), morton_interleave(0, top));
  // Out-of-range inputs clamp to the same corner keys.
  EXPECT_EQ(morton_unit(2.0, -1.0), morton_unit(1.0, 0.0));
  // Every key fits the 60-bit grid, boundary included.
  for (double v : {0.0, 0.25, 0.5, 1.0 - 1e-12, 1.0}) {
    EXPECT_LT(morton_unit(v, 1.0 - v), 1ULL << 60);
  }
  // The corner is the maximum of the grid: no interior point exceeds it.
  EXPECT_GE(morton_unit(1.0, 1.0), morton_unit(1.0 - 1e-9, 1.0 - 1e-9));
}

}  // namespace
}  // namespace morph
