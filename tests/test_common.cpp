#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/cache.hpp"
#include "common/constants.hpp"
#include "common/csv.hpp"
#include "common/env.hpp"
#include "common/strings.hpp"
#include "env_guard.hpp"

namespace {

using namespace gnrfet;
using tests::EnvGuard;

TEST(Constants, FermiLimits) {
  EXPECT_NEAR(constants::fermi(0.0), 0.5, 1e-12);
  EXPECT_NEAR(constants::fermi(1.0), 0.0, 1e-15);
  EXPECT_NEAR(constants::fermi(-1.0), 1.0, 1e-15);
  // f(x) + f(-x) = 1.
  for (double x : {0.01, 0.05, 0.2}) {
    EXPECT_NEAR(constants::fermi(x) + constants::fermi(-x), 1.0, 1e-12);
  }
}

TEST(Constants, FermiDerivativeIsNegativeAndPeaked) {
  EXPECT_LT(constants::fermi_derivative(0.0), 0.0);
  EXPECT_GT(std::abs(constants::fermi_derivative(0.0)),
            std::abs(constants::fermi_derivative(0.1)));
}

TEST(Constants, CurrentPrefactorIsConductanceQuantum) {
  // 2e^2/h = 77.48 uS.
  EXPECT_NEAR(constants::kCurrentPrefactor, 77.48e-6, 0.05e-6);
}

TEST(Strings, SplitAndTrim) {
  const auto parts = strings::split("a, b ,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(strings::trim(parts[1]), "b");
  EXPECT_EQ(strings::trim("  \t x \n"), "x");
  EXPECT_EQ(strings::trim("   "), "");
}

TEST(Strings, HashIsStableAndDistinguishes) {
  EXPECT_EQ(strings::hash_hex("abc"), strings::hash_hex("abc"));
  EXPECT_NE(strings::hash_hex("abc"), strings::hash_hex("abd"));
  EXPECT_EQ(strings::hash_hex("abc").size(), 16u);
}

TEST(Strings, Format) {
  EXPECT_EQ(strings::format("%d-%s", 42, "x"), "42-x");
}

TEST(Csv, RoundTrip) {
  csv::Table t({"a", "b"});
  t.set_meta("key", "value with = sign");
  t.add_row({1.5, -2.0});
  t.add_row({3.25, 1e-19});
  const std::string path = std::filesystem::temp_directory_path() / "gnrfet_csv_test.csv";
  t.save(path);
  const csv::Table r = csv::Table::load(path);
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(r.at(0, "a"), 1.5);
  EXPECT_DOUBLE_EQ(r.at(1, "b"), 1e-19);
  EXPECT_EQ(r.meta("key"), "value with = sign");
  std::filesystem::remove(path);
}

TEST(Csv, RejectsBadRows) {
  csv::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), std::invalid_argument);
  EXPECT_THROW(t.at(0, "nope"), std::out_of_range);
}

TEST(Cache, PathIsDeterministic) {
  const std::string p1 = cache::path_for("x", "payload");
  const std::string p2 = cache::path_for("x", "payload");
  const std::string p3 = cache::path_for("x", "payload2");
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, p3);
}

constexpr const char* kEnvName = "GNRFET_TEST_POSITIVE_INT";

TEST(Env, GetPositiveIntParsesWellFormedValues) {
  {
    EnvGuard g(kEnvName, "4");
    EXPECT_EQ(common::env::get_positive_int(kEnvName, 7), 4);
  }
  {
    EnvGuard g(kEnvName, "2147483647");  // INT_MAX is still representable
    EXPECT_EQ(common::env::get_positive_int(kEnvName, 7), 2147483647);
  }
}

TEST(Env, GetPositiveIntFallsBackWhenUnsetOrEmpty) {
  {
    EnvGuard g(kEnvName, nullptr);
    EXPECT_EQ(common::env::get_positive_int(kEnvName, 7), 7);
  }
  {
    EnvGuard g(kEnvName, "");
    EXPECT_EQ(common::env::get_positive_int(kEnvName, 7), 7);
  }
}

TEST(Env, GetPositiveIntRejectsMalformedValues) {
  // A set-but-bad value is a typed error naming the variable and value,
  // never a silent fallback.
  for (const char* bad : {"0", "-3", "+3", "3 ", " 3", "3x", "abc", "1e3", "0x10",
                          "2147483648", "99999999999999999999"}) {
    EnvGuard g(kEnvName, bad);
    try {
      common::env::get_positive_int(kEnvName, 7);
      FAIL() << "accepted malformed value '" << bad << "'";
    } catch (const common::env::EnvError& e) {
      EXPECT_EQ(e.name(), kEnvName);
      EXPECT_EQ(e.value(), bad);
      EXPECT_NE(std::string(e.what()).find(kEnvName), std::string::npos);
    }
  }
}

}  // namespace
