// Chaos fuzzer for the flow engine (see src/verify/chaos.hpp and
// DESIGN.md "Invariant oracles and the chaos harness").
//
// Default mode runs a seed range: each seed expands deterministically into
// a full engine configuration (topology family x workload x recovery
// policy round-robin, everything else sampled), executes reference and
// variant runs under the per-event InvariantAuditor, and cross-checks
// their results. On a violation the fuzzer greedily shrinks the config and
// prints a single-line reproducer:
//
//   REPRO: fuzz_engine --config '<key=value;...>'  # <failure>
//
// Paste the quoted string back via --config to replay the exact trial.
// --inject-bug shrinks every audited capacity by the given factor, which
// the feasibility oracle must flag — the harness's own smoke test.
#include <cstdio>
#include <string>

#include "util/cli.hpp"
#include "verify/chaos.hpp"

using namespace nestflow;

namespace {

int run(int argc, char** argv) {
  CliParser cli("fuzz_engine",
                "Seeded chaos fuzzing of the flow engine: differential "
                "reference/variant runs under full invariant auditing.");
  cli.add_option("seed-start", "first seed of the range", "0");
  cli.add_option("seeds", "number of seeds to run", "231");
  cli.add_option("config",
                 "replay one explicit config string instead of a seed range",
                 "");
  cli.add_option("inject-bug",
                 "audit capacities scaled by this factor (<1 simulates an "
                 "oversubscribing engine; the oracles must catch it)",
                 "1");
  cli.add_flag("no-shrink", "print the failing config without minimising it");
  cli.add_flag("degenerate",
               "also probe degenerate topology/workload inputs for clean "
               "errors");
  if (!cli.parse(argc, argv)) return 2;

  const double inject = cli.get_double("inject-bug");
  const bool shrink = !cli.get_bool("no-shrink");

  if (cli.get_bool("degenerate")) {
    verify::check_degenerate_inputs();
    std::printf("degenerate-input probes: all clean\n");
  }

  const auto run_one = [&](verify::ChaosConfig config) -> bool {
    config.capacity_tamper_factor *= inject;
    const std::string failure = verify::run_chaos_failure(config);
    if (failure.empty()) return true;
    const verify::ChaosConfig minimal =
        shrink ? verify::shrink_config(config) : config;
    const std::string minimal_failure = verify::run_chaos_failure(minimal);
    std::printf("%s\n",
                verify::reproducer_line(
                    minimal, minimal_failure.empty() ? failure
                                                     : minimal_failure)
                    .c_str());
    return false;
  };

  if (!cli.get_string("config").empty()) {
    const auto config = verify::parse_config_string(cli.get_string("config"));
    if (!run_one(config)) return 1;
    std::printf("config ok: all oracles passed\n");
    return 0;
  }

  const std::uint64_t start = cli.get_uint("seed-start");
  const std::uint64_t count = cli.get_uint("seeds");
  std::uint64_t failures = 0;
  for (std::uint64_t seed = start; seed < start + count; ++seed) {
    if (!run_one(verify::make_chaos_config(seed))) ++failures;
  }
  std::printf("fuzz_engine: %llu/%llu seeds passed (seeds %llu..%llu)\n",
              static_cast<unsigned long long>(count - failures),
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(start),
              static_cast<unsigned long long>(count == 0 ? start
                                                         : start + count - 1));
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("fuzz_engine", run, argc, argv);
}
