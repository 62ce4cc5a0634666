// Tests for src/util: rng, table, cli, check macros.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/check.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace ftspan {
namespace {

// ------------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(10), 10u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(7);
  std::array<int, 8> seen{};
  for (int i = 0; i < 4000; ++i) ++seen[rng.next_below(8)];
  for (const auto count : seen) EXPECT_GT(count, 300);  // ~500 expected
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.next_int(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialHasRightMean) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 50000; ++i) sum += rng.next_exponential(2.0);
  EXPECT_NEAR(sum / 50000, 0.5, 0.02);
}

TEST(Rng, SplitStreamsAreDecorrelated) {
  Rng parent(13);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (child1() == child2());
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitIsDeterministicFromRoot) {
  Rng a(99), b(99);
  Rng ca = a.split(), cb = b.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ca(), cb());
}

TEST(Rng, WorksWithStdShuffle) {
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  Rng rng(1);
  std::shuffle(v.begin(), v.end(), rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

// ----------------------------------------------------------------- Table

TEST(Table, AlignsColumns) {
  Table t({"name", "n"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "23"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | n  |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 23 |"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<long long>(-17)), "-17");
  EXPECT_EQ(Table::num(std::size_t{42}), "42");
}

TEST(Table, CountsRows) {
  Table t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
}

// ------------------------------------------------------------------- Cli

TEST(Cli, ParsesSeparateValue) {
  const char* argv[] = {"prog", "--n", "128"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.get_int("n", 0), 128);
}

TEST(Cli, ParsesEqualsValue) {
  const char* argv[] = {"prog", "--p=0.25"};
  Cli cli(2, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("p", 0.0), 0.25);
}

TEST(Cli, BooleanSwitch) {
  const char* argv[] = {"prog", "--verbose"};
  Cli cli(2, argv);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get("mode", "default"), "default");
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 1.5), 1.5);
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Cli(2, argv), std::invalid_argument);
}

TEST(Cli, MixedFlagsParse) {
  const char* argv[] = {"prog", "--a=1", "--flag", "--b", "2"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("a", 0), 1);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_EQ(cli.get_int("b", 0), 2);
}

TEST(Cli, GetUintAcceptsNonNegative) {
  const char* argv[] = {"prog", "--n", "128", "--zero=0"};
  Cli cli(4, argv);
  EXPECT_EQ(cli.get_uint("n", 0), 128u);
  EXPECT_EQ(cli.get_uint("zero", 7), 0u);
  EXPECT_EQ(cli.get_uint("absent", 42), 42u);
}

TEST(Cli, GetUintRejectsNegative) {
  // Before get_uint, "--n -5" was static_cast to size_t at call sites and
  // wrapped to a huge allocation; it must be a loud error instead.
  const char* argv[] = {"prog", "--n", "-5"};
  Cli cli(3, argv);
  try {
    (void)cli.get_uint("n", 0);
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--n"), std::string::npos) << what;
    EXPECT_NE(what.find("non-negative"), std::string::npos) << what;
  }
}

TEST(Cli, GetUintRejectsGarbage) {
  const char* argv[] = {"prog", "--n", "12abc", "--m", "xyz"};
  Cli cli(5, argv);
  EXPECT_THROW((void)cli.get_uint("n", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_uint("m", 0), std::invalid_argument);
}

TEST(Cli, UnknownFlagNamesTheFirstFlagOutsideTheKnownSet) {
  // A misspelled flag must be reported, not silently ignored: ftspan_cli
  // turns this answer into exit code 2 naming the flag.
  const char* argv[] = {"prog", "--in",    "g", "--modle",
                        "edge", "--treads", "4"};
  const Cli cli(7, argv);
  constexpr std::string_view kKnown[] = {"in", "model", "threads"};
  EXPECT_EQ(cli.unknown_flag(kKnown), std::optional<std::string>("modle"));
  constexpr std::string_view kSpelledAsGiven[] = {"in", "modle", "treads"};
  EXPECT_EQ(cli.unknown_flag(kSpelledAsGiven), std::nullopt);
  const char* bare[] = {"prog"};
  EXPECT_EQ(Cli(1, bare).unknown_flag({}), std::nullopt);
}

// ----------------------------------------------------------------- check

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(FTSPAN_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(FTSPAN_REQUIRE(true, "fine"));
}

TEST(Check, RequireMessageIsPropagated) {
  try {
    FTSPAN_REQUIRE(1 == 2, "numbers disagree");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("numbers disagree"), std::string::npos);
  }
}

// ----------------------------------------------------------------- Timer

TEST(Timer, MeasuresNonNegativeMonotonicTime) {
  Timer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  EXPECT_NEAR(t.millis(), t.seconds() * 1000.0, 50.0);
}

}  // namespace
}  // namespace ftspan
