// Quickstart: build a small hybrid topology, run one workload through the
// flow engine, and print what happened. This is the five-minute tour of the
// nestflow public API:
//
//   1. make a Topology        (topo/factory.hpp)
//   2. make a Workload        (workloads/factory.hpp)
//   3. generate a program     (Workload::generate)
//   4. run it                 (flowsim/engine.hpp)
//
// Usage: quickstart [--topology nesttree:512,2,2] [--workload allreduce]
//                   [--tasks 512] [--seed 42]
#include <cstdio>

#include "flowsim/engine.hpp"
#include "flowsim/metrics.hpp"
#include "topo/census.hpp"
#include "topo/factory.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "workloads/factory.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace nestflow;

  CliParser cli("quickstart", "minimal nestflow end-to-end example");
  cli.add_option("topology", "topology spec (see topo/factory.hpp)",
                 "nesttree:512,2,2");
  cli.add_option("workload", "workload name (see workloads/factory.hpp)",
                 "allreduce");
  cli.add_option("tasks", "number of tasks (defaults to all endpoints)", "0");
  cli.add_option("seed", "workload seed", "42");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  // 1. Topology: a graph of endpoints, switches and 10 Gb/s links plus a
  //    deterministic routing function.
  const auto topology = make_topology(cli.get_string("topology"));
  const auto census = take_census(topology->graph());
  std::printf("topology  : %s\n", topology->name().c_str());
  std::printf("  %s\n", census.to_string().c_str());

  // 2-3. Workload -> traffic program (flows + causal dependencies).
  const auto workload = make_workload(cli.get_string("workload"));
  WorkloadContext context;
  const auto tasks = cli.get_uint("tasks");
  context.num_tasks = tasks != 0
                          ? static_cast<std::uint32_t>(tasks)
                          : topology->num_endpoints();
  context.seed = cli.get_uint("seed");
  const TrafficProgram program = workload->generate(context);
  std::printf("workload  : %s, %u tasks, %u flows, %s payload\n",
              workload->name().c_str(), context.num_tasks,
              program.num_data_flows(),
              format_bytes(program.total_bytes()).c_str());

  // A static sanity bound before simulating: the busiest link's drain time
  // is a hard lower bound on any schedule.
  const auto load = static_load(*topology, program);
  std::printf("static    : busiest link needs %s, mean path %.2f hops\n",
              format_time(load.max_link_seconds).c_str(),
              load.mean_path_length);

  // 4. Simulate: max-min fair bandwidth sharing, event-driven.
  FlowEngine engine(*topology);
  const SimResult result = engine.run(program);
  std::printf("simulated : completion %s, %llu events, peak %u active flows\n",
              format_time(result.makespan).c_str(),
              static_cast<unsigned long long>(result.events),
              result.peak_active_flows);
  std::printf("  busiest link utilisation %.1f%%, avg active flows %.1f\n",
              100.0 * result.max_link_utilization, result.avg_active_flows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("quickstart", run, argc, argv);
}
