// Unit tests for string utilities, tables, CLI parsing, env profiles,
// error macros and the stopwatch.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"

namespace scwc {
namespace {

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, SplitSingleToken) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(StringUtil, TrimBothEnds) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(StringUtil, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(StringUtil, ToLower) {
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
}

TEST(StringUtil, FormatFixedRounds) {
  EXPECT_EQ(format_fixed(93.016, 2), "93.02");
  EXPECT_EQ(format_fixed(1.0, 0), "1");
  // -0.125 is exactly representable; printf applies round-half-to-even.
  EXPECT_EQ(format_fixed(-0.125, 2), "-0.12");
}

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t("Title");
  t.set_header({"A", "Blong"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("| A   | Blong |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4     |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, PadsShortRows) {
  TextTable t;
  t.set_header({"A", "B", "C"});
  t.add_row({"x"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| x |"), std::string::npos);
}

TEST(Cli, ParsesSpaceAndEqualsForms) {
  CliParser cli("test");
  cli.add_flag("alpha", "0", "alpha value");
  cli.add_flag("name", "none", "a name");
  const char* argv[] = {"prog", "--alpha", "3", "--name=bob"};
  cli.parse(4, argv);
  EXPECT_EQ(cli.get_int("alpha"), 3);
  EXPECT_EQ(cli.get_string("name"), "bob");
}

TEST(Cli, DefaultsApplyWhenUnset) {
  CliParser cli;
  cli.add_flag("x", "1.5", "x");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("x"), 1.5);
}

TEST(Cli, BooleanSwitchWithoutValue) {
  CliParser cli;
  cli.add_flag("verbose", "false", "verbosity");
  cli.add_flag("n", "1", "count");
  const char* argv[] = {"prog", "--verbose", "--n", "4"};
  cli.parse(4, argv);
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get_int("n"), 4);
}

TEST(Cli, UnknownFlagThrows) {
  CliParser cli;
  cli.add_flag("known", "", "known flag");
  const char* argv[] = {"prog", "--unknown", "1"};
  EXPECT_THROW(cli.parse(3, argv), Error);
}

TEST(Cli, TypeErrorsThrow) {
  CliParser cli;
  cli.add_flag("n", "abc", "not a number");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_THROW((void)cli.get_int("n"), Error);
  EXPECT_THROW((void)cli.get_bool("n"), Error);
}

TEST(Cli, DuplicateFlagRegistrationThrows) {
  CliParser cli;
  cli.add_flag("x", "", "");
  EXPECT_THROW(cli.add_flag("x", "", ""), Error);
}

TEST(Env, ProfilesHaveExpectedNames) {
  EXPECT_EQ(ScaleProfile::named("tiny").name, "tiny");
  EXPECT_EQ(ScaleProfile::named("small").name, "small");
  EXPECT_EQ(ScaleProfile::named("full").name, "full");
  EXPECT_THROW(ScaleProfile::named("bogus"), Error);
}

TEST(Env, FullProfileMatchesPaperConstants) {
  const ScaleProfile full = ScaleProfile::named("full");
  EXPECT_EQ(full.window_steps, 540u);    // Table IV samples
  EXPECT_DOUBLE_EQ(full.sample_hz, 9.0); // 540 samples per 60 s
  EXPECT_EQ(full.max_epochs, 1000u);     // Section V-A
  EXPECT_EQ(full.patience, 100u);        // Section V-A
  EXPECT_EQ(full.cv_folds, 10u);         // Section IV-A
  EXPECT_DOUBLE_EQ(full.jobs_per_class, 1.0);
}

TEST(Env, ProfilesPreserveWindowSemantics) {
  for (const char* name : {"tiny", "small", "full"}) {
    const ScaleProfile p = ScaleProfile::named(name);
    // Every profile's window must still span 60 seconds.
    EXPECT_NEAR(static_cast<double>(p.window_steps) / p.sample_hz, 60.0,
                1e-9)
        << name;
  }
}

TEST(Env, EnvIntFallsBackOnGarbage) {
  ::setenv("SCWC_TEST_INT", "12x", 1);
  EXPECT_EQ(env_int("SCWC_TEST_INT", 5), 5);
  ::setenv("SCWC_TEST_INT", "12", 1);
  EXPECT_EQ(env_int("SCWC_TEST_INT", 5), 12);
  ::unsetenv("SCWC_TEST_INT");
  EXPECT_EQ(env_int("SCWC_TEST_INT", 5), 5);
}

TEST(ErrorMacros, RequireThrowsWithContext) {
  try {
    SCWC_REQUIRE(1 == 2, "numbers disagree");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("numbers disagree"),
              std::string::npos);
    EXPECT_GT(e.line(), 0);
    EXPECT_NE(e.file().find("test_common_util"), std::string::npos);
  }
}

TEST(ErrorMacros, RequirePassesSilently) {
  EXPECT_NO_THROW(SCWC_REQUIRE(true, "fine"));
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  const double t0 = sw.seconds();
  EXPECT_GE(t0, 0.0);
  // Burn a little CPU.
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + static_cast<double>(i);
  EXPECT_GE(sw.seconds(), t0);
  sw.reset();
  EXPECT_LT(sw.seconds(), 1.0);
}

TEST(Stopwatch, LapReadsAndRestarts) {
  Stopwatch sw;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + static_cast<double>(i);
  const double first = sw.lap();
  EXPECT_GT(first, 0.0);
  // lap() restarted the clock: an immediate read is near zero and the next
  // lap measures only its own interval, not the cumulative time.
  EXPECT_LT(sw.seconds(), first + 1.0);
  const double second = sw.lap();
  EXPECT_GE(second, 0.0);
  EXPECT_LT(second, 10.0);
}

}  // namespace
}  // namespace scwc
