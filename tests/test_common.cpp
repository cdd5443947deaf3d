#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

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
  constexpr double kT = constants::kRoomTemperatureKT_eV;
  EXPECT_NEAR(constants::fermi(0.0, kT), 0.5, 1e-12);
  EXPECT_NEAR(constants::fermi(1.0, kT), 0.0, 1e-15);
  EXPECT_NEAR(constants::fermi(-1.0, kT), 1.0, 1e-15);
  // f(x) + f(-x) = 1.
  for (double x : {0.01, 0.05, 0.2}) {
    EXPECT_NEAR(constants::fermi(x, kT) + constants::fermi(-x, kT), 1.0, 1e-12);
  }
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

TEST(Csv, LoadRejectsMalformedCellsNamingPathLineAndField) {
  // std::stod read "1.5abc" as 1.5 without a word and threw a bare "stod"
  // on a non-number; every cell must now parse whole, and the error names
  // the file, the line and the column.
  const std::string path =
      (std::filesystem::temp_directory_path() / "gnrfet_csv_bad_cell.csv").string();
  for (const char* bad : {"1.5abc", "abc", "", "1.5 2", "1e999", "0x", "--1"}) {
    {
      std::ofstream out(path);
      out << "# key = k\n";
      out << "a,b\n";
      out << "1,2\n";
      out << "3," << bad << "\n";
    }
    try {
      csv::Table::load(path);
      FAIL() << "accepted malformed cell '" << bad << "'";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path + ":4:"), std::string::npos) << what;
      EXPECT_NE(what.find("'b'"), std::string::npos) << what;
    }
  }
  std::filesystem::remove(path);
}

TEST(Csv, LoadRejectsRowWithWrongFieldCountNamingLine) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gnrfet_csv_short_row.csv").string();
  {
    std::ofstream out(path);
    out << "a,b\n";
    out << "1,2\n";
    out << "3\n";
  }
  try {
    csv::Table::load(path);
    FAIL() << "accepted a one-field row under a two-column header";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":3:"), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Csv, EverySavedDoubleLoadsBackBitExact) {
  // save() prints at max_digits10, including nan/inf and subnormals;
  // std::stod refused the subnormals (ERANGE on underflow), so a table
  // holding one could be written but never read back.
  const std::vector<double> values = {0.0,
                                      -0.0,
                                      1.0 / 3.0,
                                      -1e-19,
                                      std::numeric_limits<double>::denorm_min(),
                                      -4e-310,
                                      std::numeric_limits<double>::min(),
                                      std::numeric_limits<double>::max(),
                                      std::numeric_limits<double>::lowest(),
                                      std::numeric_limits<double>::infinity(),
                                      -std::numeric_limits<double>::infinity()};
  csv::Table t({"x", "nan"});
  for (const double v : values) t.add_row({v, std::numeric_limits<double>::quiet_NaN()});
  const std::string path =
      (std::filesystem::temp_directory_path() / "gnrfet_csv_every_double.csv").string();
  t.save(path);
  const csv::Table r = csv::Table::load(path);
  ASSERT_EQ(r.num_rows(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const double got = r.at(i, "x");
    EXPECT_EQ(std::memcmp(&got, &values[i], sizeof(double)), 0) << "row " << i;
    EXPECT_TRUE(std::isnan(r.at(i, "nan"))) << "row " << i;
  }
  std::filesystem::remove(path);
}

TEST(Strings, ParseDoubleTakesWholeStringsOnly) {
  double v = 0.0;
  EXPECT_TRUE(strings::parse_double("-2.5e-3", v));
  EXPECT_EQ(v, -2.5e-3);
  EXPECT_TRUE(strings::parse_double("inf", v));
  EXPECT_TRUE(std::isinf(v));
  EXPECT_TRUE(strings::parse_double("nan", v));
  EXPECT_TRUE(std::isnan(v));
  for (const char* bad : {"", " 1", "1 ", "1.5abc", "abc", "1e999", "-1e999"}) {
    EXPECT_FALSE(strings::parse_double(bad, v)) << "accepted '" << bad << "'";
  }
}

TEST(Cache, PathIsDeterministic) {
  const std::string p1 = cache::path_for("x", "payload");
  const std::string p2 = cache::path_for("x", "payload");
  const std::string p3 = cache::path_for("x", "payload2");
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, p3);
}

TEST(Cache, RemovedOverrideDirectoryIsCreatedAgain) {
  // A GNRFET_CACHE_DIR removed between two calls exists again after the
  // second: directory() creates the override on every call.
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_cache_dir_recreated";
  std::filesystem::remove_all(dir);
  EnvGuard cache_dir("GNRFET_CACHE_DIR", dir.c_str());
  EXPECT_EQ(cache::directory(), dir.string());
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  std::filesystem::remove_all(dir);
  EXPECT_EQ(cache::directory(), dir.string());
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  std::filesystem::remove_all(dir);
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
