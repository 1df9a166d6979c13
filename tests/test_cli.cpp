#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace nestflow {
namespace {

CliParser make_parser() {
  CliParser cli("prog", "test program");
  cli.add_option("nodes", "node count", "1024");
  cli.add_option("name", "a string", "default");
  cli.add_option("ratio", "a double", "0.5");
  cli.add_option("list", "comma ints", "1,2,3");
  cli.add_flag("verbose", "chatty");
  return cli;
}

TEST(Cli, DefaultsApply) {
  auto cli = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("nodes"), 1024);
  EXPECT_EQ(cli.get_string("name"), "default");
  EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 0.5);
  EXPECT_FALSE(cli.get_bool("verbose"));
}

TEST(Cli, SpaceSeparatedValues) {
  auto cli = make_parser();
  const char* argv[] = {"prog", "--nodes", "64", "--name", "hello"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("nodes"), 64);
  EXPECT_EQ(cli.get_string("name"), "hello");
}

TEST(Cli, EqualsSeparatedValues) {
  auto cli = make_parser();
  const char* argv[] = {"prog", "--nodes=128", "--ratio=2.25"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("nodes"), 128);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 2.25);
}

TEST(Cli, FlagSetsTrue) {
  auto cli = make_parser();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, UnknownOptionFails) {
  auto cli = make_parser();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(cli.parse(3, argv));
  EXPECT_NE(cli.error().find("unknown option"), std::string::npos);
}

TEST(Cli, MissingValueFails) {
  auto cli = make_parser();
  const char* argv[] = {"prog", "--nodes"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.error().find("requires a value"), std::string::npos);
}

TEST(Cli, PositionalArgumentFails) {
  auto cli = make_parser();
  const char* argv[] = {"prog", "oops"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, RequiredOptionEnforced) {
  CliParser cli("prog", "test");
  cli.add_option("must", "required value", std::nullopt);
  const char* argv[] = {"prog"};
  EXPECT_FALSE(cli.parse(1, argv));
  EXPECT_NE(cli.error().find("missing required"), std::string::npos);
}

TEST(Cli, RequiredOptionSatisfied) {
  CliParser cli("prog", "test");
  cli.add_option("must", "required value", std::nullopt);
  const char* argv[] = {"prog", "--must", "x"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_string("must"), "x");
}

TEST(Cli, IntListParses) {
  auto cli = make_parser();
  const char* argv[] = {"prog", "--list", "4,8,16"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int_list("list"), (std::vector<std::int64_t>{4, 8, 16}));
}

TEST(Cli, StringListDefault) {
  auto cli = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_string_list("list"),
            (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Cli, HasReportsExplicitOnly) {
  auto cli = make_parser();
  const char* argv[] = {"prog", "--nodes", "8"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_TRUE(cli.has("nodes"));
  EXPECT_FALSE(cli.has("name"));
}

TEST(Cli, UsageMentionsEveryOption) {
  auto cli = make_parser();
  const auto usage = cli.usage();
  for (const char* name : {"nodes", "name", "ratio", "list", "verbose"}) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
  }
}

// --- Strict numeric parsing: malformed values raise CliError naming the
// --- flag instead of silently truncating (std::stoll-style) or wrapping.

/// Parses `value` into the given option and returns the CliError a strict
/// getter raises for it (failing the test if none is raised).
template <typename Getter>
CliError expect_cli_error(const char* option, const char* value,
                          Getter getter) {
  auto cli = make_parser();
  const std::string arg = std::string("--") + option + "=" + value;
  const char* argv[] = {"prog", arg.c_str()};
  EXPECT_TRUE(cli.parse(2, argv)) << arg;
  try {
    getter(cli);
  } catch (const CliError& err) {
    return err;
  }
  ADD_FAILURE() << arg << ": expected CliError";
  return CliError("", "unreached");
}

TEST(Cli, MalformedIntegerNamesTheFlag) {
  const CliError err = expect_cli_error(
      "nodes", "8x", [](const CliParser& c) { (void)c.get_int("nodes"); });
  EXPECT_EQ(err.flag(), "nodes");
  EXPECT_NE(std::string(err.what()).find("--nodes"), std::string::npos);
  EXPECT_NE(std::string(err.what()).find("8x"), std::string::npos);
  for (const char* bad : {"", "-", "+", "4,2", "1e3", "0x10"}) {
    expect_cli_error("nodes", bad,
                     [](const CliParser& c) { (void)c.get_int("nodes"); });
  }
}

TEST(Cli, IntegerOverflowIsOutOfRange) {
  const CliError err = expect_cli_error(
      "nodes", "99999999999999999999999",
      [](const CliParser& c) { (void)c.get_int("nodes"); });
  EXPECT_NE(std::string(err.what()).find("out of range"), std::string::npos);
}

TEST(Cli, UnsignedRejectsNegativesInsteadOfWrapping) {
  // std::stoull would happily wrap "-1" to 2^64 - 1; the strict parser
  // refuses it.
  const CliError err = expect_cli_error(
      "nodes", "-1", [](const CliParser& c) { (void)c.get_uint("nodes"); });
  EXPECT_EQ(err.flag(), "nodes");
  auto cli = make_parser();
  const char* argv[] = {"prog", "--nodes=42"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_uint("nodes"), 42u);
}

TEST(Cli, PositiveUnsignedRejectsZero) {
  for (const char* bad : {"0", "-1", "3x"}) {
    const CliError err = expect_cli_error(
        "nodes", bad,
        [](const CliParser& c) { (void)c.get_positive_uint("nodes"); });
    EXPECT_EQ(err.flag(), "nodes");
  }
  auto cli = make_parser();
  const char* argv[] = {"prog", "--nodes=1"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_positive_uint("nodes"), 1u);
}

TEST(Cli, MalformedDoubleNamesTheFlag) {
  // from_chars parses nan and inf; a quantum, a latency or a gate threshold
  // of either would silently switch behaviour off or poison the run.
  for (const char* bad :
       {"half", "1.5x", "", "1.2.3", "nan", "NaN", "inf", "-inf", "infinity"}) {
    const CliError err = expect_cli_error(
        "ratio", bad, [](const CliParser& c) { (void)c.get_double("ratio"); });
    EXPECT_EQ(err.flag(), "ratio");
  }
  // Scientific notation stays accepted — defaults like "2e-4" rely on it.
  auto cli = make_parser();
  const char* argv[] = {"prog", "--ratio=2e-4"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 2e-4);
}

TEST(Cli, NonNegativeDoubleRejectsNegatives) {
  for (const char* bad : {"-0.5", "-1e-9"}) {
    const CliError err = expect_cli_error(
        "ratio", bad,
        [](const CliParser& c) { (void)c.get_non_negative_double("ratio"); });
    EXPECT_EQ(err.flag(), "ratio");
  }
  for (const char* good : {"0", "1e-6", "0.01"}) {
    auto cli = make_parser();
    const std::string arg = std::string("--ratio=") + good;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(cli.parse(2, argv)) << arg;
    EXPECT_EQ(cli.get_non_negative_double("ratio"), std::stod(good)) << arg;
  }
}

TEST(Cli, MalformedBooleanRejected) {
  const CliError err = expect_cli_error(
      "verbose", "maybe",
      [](const CliParser& c) { (void)c.get_bool("verbose"); });
  EXPECT_EQ(err.flag(), "verbose");
  for (const char* yes : {"true", "1", "yes", "on"}) {
    auto cli = make_parser();
    const std::string arg = std::string("--verbose=") + yes;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(cli.parse(2, argv)) << arg;
    EXPECT_TRUE(cli.get_bool("verbose")) << arg;
  }
  for (const char* no : {"false", "0", "no", "off"}) {
    auto cli = make_parser();
    const std::string arg = std::string("--verbose=") + no;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(cli.parse(2, argv)) << arg;
    EXPECT_FALSE(cli.get_bool("verbose")) << arg;
  }
}

TEST(Cli, BadListElementNamesTheFlag) {
  const CliError err = expect_cli_error(
      "list", "1,two,3",
      [](const CliParser& c) { (void)c.get_int_list("list"); });
  EXPECT_EQ(err.flag(), "list");
  EXPECT_NE(std::string(err.what()).find("two"), std::string::npos);
}

TEST(Cli, UndeclaredQueryThrows) {
  auto cli = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW((void)cli.get_string("nope"), std::logic_error);
}

}  // namespace
}  // namespace nestflow
