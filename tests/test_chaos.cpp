// Tests of the deterministic chaos harness (src/verify/chaos.*): seed
// expansion, config round-tripping, the differential smoke run, and —
// most importantly — proof that an injected engine bug is caught by the
// oracles and reproducible from the printed line.
#include "verify/chaos.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "verify/invariant_auditor.hpp"

namespace nestflow {
namespace {

using verify::ChaosConfig;
using verify::ChaosFaultMode;

TEST(Chaos, SeedExpansionIsDeterministic) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto a = verify::make_chaos_config(seed);
    const auto b = verify::make_chaos_config(seed);
    EXPECT_EQ(verify::to_config_string(a), verify::to_config_string(b));
  }
}

TEST(Chaos, SeedsCoverTheTopologyWorkloadPolicyMatrix) {
  // 231 consecutive seeds must visit every (family, workload, policy) cell
  // of the 7 x 11 x 3 coverage matrix at least once (jellyfish substitutes
  // for a family on a random 1-in-12 of seeds, so count families loosely).
  std::set<std::string> workloads;
  std::set<int> policies;
  std::set<std::string> families;
  for (std::uint64_t seed = 0; seed < 231; ++seed) {
    const auto config = verify::make_chaos_config(seed);
    workloads.insert(config.workload.substr(0, config.workload.find(':')));
    policies.insert(static_cast<int>(config.recovery_policy));
    families.insert(config.topo.substr(0, config.topo.find(':')));
  }
  EXPECT_GE(workloads.size(), 11u);
  EXPECT_EQ(policies.size(), 3u);
  EXPECT_GE(families.size(), 7u);
}

TEST(Chaos, ConfigStringRoundTrips) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto config = verify::make_chaos_config(seed);
    const std::string text = verify::to_config_string(config);
    const auto parsed = verify::parse_config_string(text);
    EXPECT_EQ(verify::to_config_string(parsed), text) << "seed " << seed;
  }
}

TEST(Chaos, ParseRejectsMalformedConfigStrings) {
  EXPECT_THROW((void)verify::parse_config_string("not a config"),
               std::invalid_argument);
  EXPECT_THROW((void)verify::parse_config_string("seed=1;bogus-key=2"),
               std::invalid_argument);
  EXPECT_THROW((void)verify::parse_config_string("seed=12junk"),
               std::invalid_argument);
}

TEST(Chaos, ParseRejectsRetiredEngineKnobs) {
  // Keys of engine switches that no longer exist must fail loudly and say
  // why, not read as typos.
  for (const std::string key :
       {"incremental", "routecache", "solvecache", "strategy", "dispatch"}) {
    try {
      (void)verify::parse_config_string("seed=1;" + key + "=1");
      ADD_FAILURE() << key << " was accepted";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("'" + key + "'"), std::string::npos) << message;
      EXPECT_NE(message.find("retired"), std::string::npos) << message;
      EXPECT_EQ(message.find("unknown"), std::string::npos) << message;
    }
  }
}

TEST(Chaos, SmokeRunPassesOnSeedRange) {
  // A bounded slice of the matrix for the unit suite; scripts/check_chaos.sh
  // runs the full 231-seed matrix (and more) under ASan/UBSan.
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const std::string failure =
        verify::run_chaos_failure(verify::make_chaos_config(seed));
    EXPECT_TRUE(failure.empty()) << "seed " << seed << ": " << failure;
  }
}

TEST(Chaos, InjectedOversubscriptionBugIsCaught) {
  auto config = verify::make_chaos_config(3);
  config.capacity_tamper_factor = 0.5;
  const std::string failure = verify::run_chaos_failure(config);
  ASSERT_FALSE(failure.empty());
  EXPECT_NE(failure.find("capacity"), std::string::npos) << failure;
}

TEST(Chaos, InjectedBugReproducesFromThePrintedLine) {
  // The end-to-end contract of the fuzzer: the config string embedded in a
  // reproducer line, parsed back, must fail the same way.
  auto config = verify::make_chaos_config(3);
  config.capacity_tamper_factor = 0.5;
  const std::string failure = verify::run_chaos_failure(config);
  ASSERT_FALSE(failure.empty());

  const std::string line = verify::reproducer_line(config, failure);
  const auto open = line.find('\'');
  const auto close = line.rfind('\'');
  ASSERT_NE(open, std::string::npos);
  ASSERT_GT(close, open);
  const std::string embedded = line.substr(open + 1, close - open - 1);

  const auto replayed = verify::parse_config_string(embedded);
  const std::string replay_failure = verify::run_chaos_failure(replayed);
  EXPECT_FALSE(replay_failure.empty());
  EXPECT_NE(replay_failure.find("capacity"), std::string::npos);
}

TEST(Chaos, ShrinkerReturnsASimplerStillFailingConfig) {
  auto config = verify::make_chaos_config(5);
  config.capacity_tamper_factor = 0.5;
  ASSERT_FALSE(verify::run_chaos_failure(config).empty());

  const auto minimal = verify::shrink_config(config);
  EXPECT_FALSE(verify::run_chaos_failure(minimal).empty())
      << "shrunk config no longer fails";
  EXPECT_LE(minimal.tasks, config.tasks);
  // The tamper factor is the root cause, so shrinking must keep it while
  // stripping incidental knobs.
  EXPECT_LT(minimal.capacity_tamper_factor, 1.0);
  EXPECT_EQ(minimal.fault_mode, ChaosFaultMode::kNone);
}

TEST(Chaos, ShrinkReturnsPassingConfigUnchanged) {
  const auto config = verify::make_chaos_config(0);
  const auto result = verify::shrink_config(config);
  EXPECT_EQ(verify::to_config_string(result),
            verify::to_config_string(config));
}

TEST(Chaos, DegenerateInputsRaiseCleanErrors) {
  EXPECT_NO_THROW(verify::check_degenerate_inputs());
}

}  // namespace
}  // namespace nestflow
