// Extension: bandwidth scheduling (the paper's §6 future work — "low-level
// bandwidth scheduling to give priority to critical flows"). A latency-
// critical collective shares the machine with unstructured background
// traffic; its flows carry a scheduling weight, and the engine's weighted
// max-min allocation splits every bottleneck proportionally. Reported: the
// collective's completion vs the total makespan as the weight grows.
#include <algorithm>
#include <cstdio>

#include "flowsim/engine.hpp"
#include "topo/factory.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "workloads/factory.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace nestflow;
  CliParser cli("ext_priority",
                "prioritised collective over background traffic");
  cli.add_option("nodes", "machine size in QFDBs (power of two)", "512");
  cli.add_option("collective", "the critical workload", "allreduce");
  cli.add_option("background", "the noise workload", "unstructured-app");
  cli.add_option("seed", "workload seed", "42");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;
  const auto nodes = static_cast<std::uint32_t>(cli.get_uint("nodes"));

  const auto collective = make_workload(cli.get_string("collective"));
  const auto background = make_workload(cli.get_string("background"));
  WorkloadContext context;
  context.num_tasks = nodes;
  context.seed = cli.get_uint("seed");

  std::printf("== Extension: bandwidth scheduling (N = %u, %s over %s) ==\n\n",
              nodes, collective->name().c_str(), background->name().c_str());

  for (const char* spec : {"nestghc-t2u2", "fattree"}) {
    std::unique_ptr<Topology> topology =
        std::string(spec) == "fattree"
            ? make_reference_fattree(nodes)
            : std::unique_ptr<Topology>(
                  make_nested(nodes, 2, 2, UpperTierKind::kGhc));

    Table table({"weight", "collective completion", "total makespan",
                 "collective speedup", "background slowdown"});
    double base_collective = 0.0;
    double base_total = 0.0;
    for (const double weight : {1.0, 2.0, 4.0, 8.0, 16.0}) {
      TrafficProgram program = collective->generate(context);
      const FlowIndex collective_flows = program.num_flows();
      for (FlowIndex f = 0; f < collective_flows; ++f) {
        if (!program.flow(f).is_sync) program.set_flow_weight(f, weight);
      }
      const auto noise = background->generate(context);
      for (const auto& flow : noise.flows()) {
        program.add_flow(flow.src, flow.dst, flow.bytes);
      }

      EngineOptions options;
      options.record_flow_times = true;
      options.rate_quantum_rel = 0.01;
      FlowEngine engine(*topology, options);
      const auto result = engine.run(program);
      double collective_finish = 0.0;
      for (FlowIndex f = 0; f < collective_flows; ++f) {
        collective_finish =
            std::max(collective_finish, result.flow_finish_times[f]);
      }
      if (weight == 1.0) {
        base_collective = collective_finish;
        base_total = result.makespan;
      }
      table.add_row({format_fixed(weight, 0),
                     format_time(collective_finish),
                     format_time(result.makespan),
                     format_fixed(base_collective / collective_finish, 2) +
                         "x",
                     format_fixed(result.makespan / base_total, 2) + "x"});
    }
    std::printf("-- %s --\n%s\n", topology->name().c_str(),
                table.to_text().c_str());
  }
  std::printf("Reading: raising the collective's weight buys it bandwidth at\n"
              "every shared bottleneck; the background pays, and the total\n"
              "makespan barely moves (the allocation stays work-conserving).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("ext_priority", run, argc, argv);
}
