// Extension: the related-work baselines of §2 — Dragonfly and Jellyfish —
// side by side with the paper's topologies on representative workloads,
// plus the naive-vs-binomial Reduce comparison the paper mentions in
// passing. Endpoint counts differ slightly by construction (a full-size
// dragonfly has g = a*h + 1 groups); tasks run on the first N endpoints of
// each network.
#include <cstdio>

#include "flowsim/engine.hpp"
#include "topo/dragonfly.hpp"
#include "topo/factory.hpp"
#include "topo/jellyfish.hpp"
#include "topo/thintree.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "workloads/factory.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace nestflow;
  CliParser cli("ext_related",
                "Dragonfly/Jellyfish baselines vs the paper's topologies");
  cli.add_option("nodes", "task count (power of two)", "1024");
  cli.add_option("seed", "workload seed", "42");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;
  const auto nodes = static_cast<std::uint32_t>(cli.get_uint("nodes"));
  const std::uint64_t seed = cli.get_uint("seed");

  // Build the contenders, each with >= nodes endpoints.
  std::vector<std::unique_ptr<Topology>> topologies;
  topologies.push_back(make_reference_torus(nodes));
  topologies.push_back(make_reference_fattree(nodes));
  topologies.push_back(make_nested(nodes, 2, 2, UpperTierKind::kGhc));
  topologies.push_back(std::make_unique<DragonflyTopology>(
      DragonflyTopology::balanced_params(nodes)));
  JellyfishTopology::Params jellyfish;
  jellyfish.num_switches = nodes / 4;
  jellyfish.endpoint_ports = 4;
  jellyfish.network_ports = 8;
  jellyfish.seed = seed;
  topologies.push_back(std::make_unique<JellyfishTopology>(jellyfish));
  // 2:1 oversubscribed thin tree with the same leaf count (k = sqrt(N)).
  {
    std::uint32_t k = 2;
    while (k * k < nodes) k *= 2;
    if (static_cast<std::uint64_t>(k) * k == nodes) {
      ThinTreeTopology::Params thintree;
      thintree.k = k;
      thintree.k_up = k / 2;
      thintree.levels = 2;
      topologies.push_back(std::make_unique<ThinTreeTopology>(thintree));
    }
  }

  EngineOptions options;
  options.rate_quantum_rel = 0.01;

  std::printf("== Extension: related-work baselines (T = %u tasks) ==\n\n",
              nodes);
  for (const char* workload_name :
       {"unstructured-app", "bisection", "allreduce", "nearneighbors"}) {
    const auto workload = make_workload(workload_name);
    WorkloadContext context;
    context.num_tasks = nodes;
    context.seed = seed;
    const auto program = workload->generate(context);
    Table table({"topology", "endpoints", "makespan", "vs best"});
    struct Row {
      std::string name;
      std::uint32_t endpoints;
      double makespan;
    };
    std::vector<Row> rows;
    double best = 0.0;
    for (const auto& topology : topologies) {
      FlowEngine engine(*topology, options);
      const double makespan = engine.run(program).makespan;
      best = best == 0.0 ? makespan : std::min(best, makespan);
      rows.push_back(Row{topology->name(), topology->num_endpoints(),
                         makespan});
    }
    std::printf("-- %s --\n", workload_name);
    for (const auto& row : rows) {
      table.add_row({row.name, std::to_string(row.endpoints),
                     format_time(row.makespan),
                     format_fixed(row.makespan / best, 2) + "x"});
    }
    std::fputs(table.to_text().c_str(), stdout);
    std::printf("\n");
  }

  // Naive vs binomial Reduce (§4.1's aside): the optimised collective is
  // topology-sensitive, the pathological one is not.
  std::printf("-- reduce: naive N-to-1 vs binomial tree --\n");
  Table table({"topology", "naive reduce", "binomial reduce", "speedup"});
  const auto naive = make_workload("reduce");
  const auto binomial = make_workload("binomial-reduce");
  WorkloadContext context;
  context.num_tasks = nodes;
  context.seed = seed;
  const auto naive_program = naive->generate(context);
  const auto binomial_program = binomial->generate(context);
  for (const auto& topology : topologies) {
    FlowEngine engine(*topology, options);
    const double t_naive = engine.run(naive_program).makespan;
    const double t_binomial = engine.run(binomial_program).makespan;
    table.add_row({topology->name(), format_time(t_naive),
                   format_time(t_binomial),
                   format_fixed(t_naive / t_binomial, 1) + "x"});
  }
  std::fputs(table.to_text().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("ext_related", run, argc, argv);
}
