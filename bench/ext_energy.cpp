// Extension: energy estimation (the paper's §6 future work). Combines the
// component census with the engine's per-class byte counters to estimate
// dynamic + static energy per (topology, workload) cell, exposing the
// trade-off Table 2 only hints at: more upper-tier hardware costs static
// power, but shorter/less congested paths finish sooner and move fewer
// byte-hops.
#include <cstdio>

#include "core/energy_model.hpp"
#include "core/experiment.hpp"
#include "flowsim/engine.hpp"
#include "topo/census.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "workloads/factory.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace nestflow;
  CliParser cli("ext_energy", "energy estimates across the topology matrix");
  cli.add_option("nodes", "machine size in QFDBs (power of two)", "512");
  cli.add_option("workload", "workload to evaluate", "unstructured-app");
  cli.add_option("seed", "workload seed", "42");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;
  const auto nodes = static_cast<std::uint32_t>(cli.get_uint("nodes"));

  const auto workload = make_workload(cli.get_string("workload"));
  WorkloadContext context;
  context.num_tasks = nodes;
  context.seed = cli.get_uint("seed");
  const auto program = workload->generate(context);

  std::printf("== Extension: energy model (N = %u, workload %s) ==\n\n",
              nodes, workload->name().c_str());
  Table table({"topology", "makespan", "dynamic J", "static J", "total J",
               "avg W", "EDP (mJ*s)"});

  EngineOptions options;
  options.rate_quantum_rel = 0.01;
  for (const char* token : {"torus3d", "fattree", "nestghc-t2-u1",
                            "nestghc-t2-u4", "nesttree-t2-u1",
                            "nesttree-t2-u4"}) {
    const auto topology = build_point(parse_point_token(token), nodes);
    const auto census = take_census(topology->graph());
    FlowEngine engine(*topology, options);
    const auto result = engine.run(program);
    const auto energy = estimate_energy(census, result);
    table.add_row({topology->name(), format_time(result.makespan),
                   format_fixed(energy.dynamic_joules, 3),
                   format_fixed(energy.static_joules, 1),
                   format_fixed(energy.total_joules(), 1),
                   format_fixed(energy.average_watts, 0),
                   format_fixed(energy.energy_delay * 1e3, 2)});
  }
  std::fputs(table.to_text().c_str(), stdout);
  std::printf(
      "\nStatic power dominates at these run lengths, so energy tracks\n"
      "makespan x hardware count: slow topologies (torus under heavy\n"
      "traffic) and switch-rich ones (u=1 hybrids) pay, fast lean ones win.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("ext_energy", run, argc, argv);
}
