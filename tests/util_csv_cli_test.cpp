#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"

namespace saim::util {
namespace {

TEST(CsvEscape, PlainFieldUnchanged) {
  EXPECT_EQ(CsvWriter::escape("hello"), "hello");
}

TEST(CsvEscape, CommaTriggersQuoting) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
}

TEST(CsvEscape, QuoteIsDoubled) {
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscape, NewlineTriggersQuoting) {
  EXPECT_EQ(CsvWriter::escape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriter, InMemoryRows) {
  CsvWriter csv;
  csv.write_header({"x", "y"});
  csv.write_row(std::vector<std::string>{"1", "two,三"});
  csv.write_row(std::vector<double>{1.5, -2.25});
  const std::string expected = "x,y\n1,\"two,三\"\n1.5,-2.25\n";
  EXPECT_EQ(csv.buffer(), expected);
}

TEST(CsvWriter, FileMode) {
  const std::string path = ::testing::TempDir() + "saim_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_header({"a"});
    csv.write_row(std::vector<std::string>{"b"});
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "a\nb\n");
  std::remove(path.c_str());
}

TEST(CsvWriter, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"),
               std::runtime_error);
}

ArgParser make_parser() {
  ArgParser p("prog", "test program");
  p.add_flag("n", "problem size", "100")
      .add_flag("eta", "step size", "20.0")
      .add_bool("full", "use paper-scale budgets");
  return p;
}

TEST(ArgParser, DefaultsApply) {
  auto p = make_parser();
  const std::array<const char*, 1> argv = {"prog"};
  ASSERT_TRUE(p.parse(1, argv.data()));
  EXPECT_EQ(p.get_int("n"), 100);
  EXPECT_DOUBLE_EQ(p.get_double("eta"), 20.0);
  EXPECT_FALSE(p.get_bool("full"));
}

TEST(ArgParser, SpaceSeparatedValues) {
  auto p = make_parser();
  const std::array<const char*, 5> argv = {"prog", "--n", "250", "--eta",
                                           "0.05"};
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(p.get_int("n"), 250);
  EXPECT_DOUBLE_EQ(p.get_double("eta"), 0.05);
}

TEST(ArgParser, EqualsForm) {
  auto p = make_parser();
  const std::array<const char*, 2> argv = {"prog", "--n=33"};
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(p.get_int("n"), 33);
}

TEST(ArgParser, BoolFlagForms) {
  auto p = make_parser();
  const std::array<const char*, 2> argv = {"prog", "--full"};
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(p.get_bool("full"));

  auto q = make_parser();
  const std::array<const char*, 2> argv2 = {"prog", "--full=false"};
  ASSERT_TRUE(q.parse(static_cast<int>(argv2.size()), argv2.data()));
  EXPECT_FALSE(q.get_bool("full"));
}

TEST(ArgParser, UnknownFlagFails) {
  auto p = make_parser();
  const std::array<const char*, 2> argv = {"prog", "--bogus"};
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(ArgParser, UnknownFlagErrorNamesTheFlag) {
  auto p = make_parser();
  const std::array<const char*, 2> argv = {"prog", "--bogus"};
  ASSERT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_NE(p.error().find("--bogus"), std::string::npos) << p.error();
}

TEST(ArgParser, MissingValueErrorNamesTheFlag) {
  auto p = make_parser();
  const std::array<const char*, 2> argv = {"prog", "--n"};
  ASSERT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_NE(p.error().find("--n"), std::string::npos);
}

TEST(ArgParser, ErrorClearsOnSuccessfulParse) {
  auto p = make_parser();
  const std::array<const char*, 2> argv_bad = {"prog", "--bogus"};
  ASSERT_FALSE(p.parse(static_cast<int>(argv_bad.size()), argv_bad.data()));
  EXPECT_FALSE(p.error().empty());
  const std::array<const char*, 1> argv_ok = {"prog"};
  ASSERT_TRUE(p.parse(1, argv_ok.data()));
  EXPECT_TRUE(p.error().empty());
}

TEST(ArgParser, DuplicateFlagRegistrationThrows) {
  ArgParser p("prog", "test program");
  p.add_flag("n", "problem size", "100");
  EXPECT_THROW(p.add_flag("n", "again", "7"), std::logic_error);
  EXPECT_THROW(p.add_bool("n", "as bool"), std::logic_error);
  // A bool name can't be reused by a value flag either.
  p.add_bool("full", "paper scale");
  EXPECT_THROW(p.add_flag("full", "oops", "1"), std::logic_error);
}

TEST(ArgParser, DuplicateRegistrationErrorNamesTheFlag) {
  ArgParser p("prog", "test program");
  p.add_flag("eta", "step", "20");
  try {
    p.add_flag("eta", "again", "1");
    FAIL() << "expected throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("--eta"), std::string::npos);
  }
}

TEST(ArgParser, MissingValueFails) {
  auto p = make_parser();
  const std::array<const char*, 2> argv = {"prog", "--n"};
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(ArgParser, HelpReturnsFalse) {
  auto p = make_parser();
  const std::array<const char*, 2> argv = {"prog", "--help"};
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(ArgParser, UsageMentionsFlags) {
  auto p = make_parser();
  const std::string u = p.usage();
  EXPECT_NE(u.find("--n"), std::string::npos);
  EXPECT_NE(u.find("--eta"), std::string::npos);
  EXPECT_NE(u.find("problem size"), std::string::npos);
}

TEST(ArgParser, MalformedNumbersThrowNamingTheFlag) {
  // The whole value must parse: a garbage value, a numeric prefix with
  // trailing junk and an empty value are all errors, never a silent
  // truncation.
  for (const char* bad : {"abc", "2x", ""}) {
    auto p = make_parser();
    const std::string n = std::string("--n=") + bad;
    const std::string eta = std::string("--eta=") + bad;
    const std::array<const char*, 3> argv = {"prog", n.c_str(), eta.c_str()};
    ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
    try {
      (void)p.get_int("n");
      ADD_FAILURE() << "get_int accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos)
          << e.what();
    }
    try {
      (void)p.get_double("eta");
      ADD_FAILURE() << "get_double accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--eta"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ArgParser, NegativeAndExponentNumbersStillParse) {
  auto p = make_parser();
  const std::array<const char*, 3> argv = {"prog", "--n=-5", "--eta=1e-3"};
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(p.get_int("n"), -5);
  EXPECT_DOUBLE_EQ(p.get_double("eta"), 1e-3);
}

TEST(ArgParser, GetUnregisteredThrows) {
  auto p = make_parser();
  EXPECT_THROW(p.get("nope"), std::invalid_argument);
}

TEST(Logging, LevelThresholdRoundTrip) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(before);
}

}  // namespace
}  // namespace saim::util
