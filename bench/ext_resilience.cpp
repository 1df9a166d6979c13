// Extension: fault tolerance (the paper's §6 future work, the ExaNeSt
// project's stated operational concern). Two degradation sweeps:
//
//   1. Hard faults — kill a growing fraction of transit cables (seeded,
//      deterministic) and re-run the workload behind a FaultAwareRouter:
//      flows reroute over the surviving graph where possible and are
//      stranded where the fabric partitioned. The degradation curve per
//      topology (slowdown + stranded fraction + reroute cost vs kill
//      fraction) lands in a CSV for plotting.
//   2. Soft faults — the original capacity-degradation sweep: degrade a
//      fraction of cables to a capacity factor and measure the slowdown.
//
// Expectation: path-diverse fabrics (fat-tree tiers, jellyfish) degrade
// gracefully — reroutes stay cheap and nothing strands until the kill
// fraction is extreme; low-diversity fabrics (torus rings, GHC dimensions)
// pay long detours early and partition first.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "flowsim/engine.hpp"
#include "resilience/fault_model.hpp"
#include "resilience/fault_router.hpp"
#include "topo/factory.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "workloads/factory.hpp"

namespace {

using namespace nestflow;

/// The benchmarked fabrics: the paper's four contenders plus the related
/// baselines, sized to ~`nodes` endpoints.
std::vector<std::pair<std::string, std::unique_ptr<Topology>>>
make_fleet(std::uint32_t nodes) {
  std::vector<std::pair<std::string, std::unique_ptr<Topology>>> fleet;
  fleet.emplace_back("torus", make_reference_torus(nodes));
  fleet.emplace_back("fattree", make_reference_fattree(nodes));
  fleet.emplace_back("nesttree-t2u2",
                     make_nested(nodes, 2, 2, UpperTierKind::kFattree));
  fleet.emplace_back("nestghc-t2u2",
                     make_nested(nodes, 2, 2, UpperTierKind::kGhc));
  // Related-work baselines, parameterised to cover >= nodes endpoints.
  std::uint32_t k = 2;
  while (k * k * k < nodes) k *= 2;  // k^3 leaves in a 3-level thin tree
  fleet.emplace_back("thintree",
                     make_topology("thintree:" + std::to_string(k) + ",2,3"));
  std::uint32_t a = 2;  // dragonfly: p=a/2... keep p=4, h=a/2, g=a*h+1
  while (4 * a * (a * (a / 2) + 1) < nodes && a < 64) a *= 2;
  fleet.emplace_back(
      "dragonfly", make_topology("dragonfly:4," + std::to_string(a) + "," +
                                 std::to_string(a / 2)));
  fleet.emplace_back(
      "jellyfish",
      make_topology("jellyfish:" + std::to_string(nodes / 4) + ",4,8,7"));
  return fleet;
}

std::uint32_t pow2_tasks(std::uint32_t endpoints) {
  std::uint32_t tasks = 1;
  while (tasks * 2 <= endpoints) tasks *= 2;
  return tasks;
}

int run(int argc, char** argv) {
  CliParser cli("ext_resilience",
                "degradation curves under dead and degraded links");
  cli.add_option("nodes", "machine size in QFDBs (power of two)", "512");
  cli.add_option("workload",
                 "workload to evaluate, or 'all' for the full catalogue",
                 "unstructured-app");
  cli.add_option("factor", "soft-sweep degraded-link capacity factor", "0.25");
  cli.add_option("seed", "workload/fault seed", "42");
  cli.add_option("csv", "degradation-curve CSV output path",
                 "build/artifacts/ext_resilience.csv");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;
  const auto nodes = static_cast<std::uint32_t>(cli.get_uint("nodes"));
  const double factor = cli.get_double("factor");
  const std::uint64_t seed = cli.get_uint("seed");

  std::vector<std::string> workloads;
  if (cli.get_string("workload") == "all") {
    workloads = all_workload_names();
  } else {
    workloads.push_back(cli.get_string("workload"));
  }
  const std::vector<double> kill_fractions = {0.0,  0.01, 0.02,
                                              0.05, 0.10, 0.20};

  EngineOptions options;
  options.rate_quantum_rel = 0.01;

  std::printf("== Extension: graceful degradation under hard faults "
              "(N = %u, seed %llu) ==\n\n",
              nodes, static_cast<unsigned long long>(seed));

  Table curve({"topology", "workload", "kill_fraction", "dead_cables",
               "components", "makespan_s", "slowdown", "flows",
               "stranded_flows", "stranded_fraction", "cancelled_flows",
               "rerouted_flows", "reroute_extra_hops",
               "delivered_fraction"});
  Table summary({"topology", "workload", "slowdown@5%", "stranded@5%",
                 "slowdown@20%", "stranded@20%", "partitions@20%"});

  for (const auto& [label, topology] : make_fleet(nodes)) {
    const std::uint32_t tasks = pow2_tasks(topology->num_endpoints());
    for (const auto& workload_name : workloads) {
      WorkloadContext context;
      context.num_tasks = tasks;
      context.seed = seed;
      const auto program = make_workload(workload_name)->generate(context);

      double healthy_makespan = 0.0;
      double slow5 = 0.0, slow20 = 0.0, stranded5 = 0.0, stranded20 = 0.0;
      std::uint32_t parts20 = 0;
      for (const double kill : kill_fractions) {
        const auto faults =
            FaultModel::random_cable_faults(topology->graph(), kill, seed);
        const FaultAwareRouter router(*topology, faults);
        FlowEngine engine(router, options);
        faults.apply(engine);
        const SimResult result = engine.run(program);

        if (kill == 0.0) healthy_makespan = result.makespan;
        const double slowdown =
            healthy_makespan > 0.0 ? result.makespan / healthy_makespan : 1.0;
        const double stranded_fraction =
            result.num_flows > 0
                ? static_cast<double>(result.stranded_flows +
                                      result.cancelled_flows) /
                      static_cast<double>(result.num_flows)
                : 0.0;
        const double delivered_fraction =
            result.total_bytes > 0.0
                ? result.delivered_bytes() / result.total_bytes
                : 1.0;
        curve.add_row(
            {label, workload_name, format_fixed(kill, 2),
             std::to_string(faults.num_dead_cables()),
             std::to_string(router.num_surviving_components()),
             format_fixed(result.makespan, 9), format_fixed(slowdown, 3),
             std::to_string(result.num_flows),
             std::to_string(result.stranded_flows),
             format_fixed(stranded_fraction, 4),
             std::to_string(result.cancelled_flows),
             std::to_string(result.rerouted_flows),
             std::to_string(result.reroute_extra_hops),
             format_fixed(delivered_fraction, 4)});
        if (kill == 0.05) { slow5 = slowdown; stranded5 = stranded_fraction; }
        if (kill == 0.20) {
          slow20 = slowdown;
          stranded20 = stranded_fraction;
          parts20 = router.num_surviving_components();
        }
      }
      summary.add_row({topology->name(), workload_name,
                       format_fixed(slow5, 2) + "x",
                       format_percent(stranded5, 1),
                       format_fixed(slow20, 2) + "x",
                       format_percent(stranded20, 1),
                       std::to_string(parts20)});
    }
  }
  std::fputs(summary.to_text().c_str(), stdout);
  curve.save_csv(cli.get_string("csv"));
  std::printf("\nDegradation curves (slowdown + stranded fraction vs kill "
              "fraction) written to %s\n",
              cli.get_string("csv").c_str());

  // --- Soft-fault sweep: the original capacity-degradation experiment ----
  std::printf("\n== Soft faults: random link degradation to %.0f%% capacity "
              "==\n\n",
              100.0 * factor);
  Table soft({"topology", "healthy", "5% degraded", "20% degraded",
              "slowdown@20%"});
  const auto& soft_workload_name = workloads.front();
  for (const auto& [label, topology] : make_fleet(nodes)) {
    WorkloadContext context;
    context.num_tasks = pow2_tasks(topology->num_endpoints());
    context.seed = seed;
    const auto program =
        make_workload(soft_workload_name)->generate(context);

    const auto degrade_run = [&](double fraction) {
      FaultModel faults(topology->graph());
      if (fraction > 0.0) {
        // Reuse the cable sampler, then downgrade the kills to degradation.
        const auto dead = FaultModel::random_cable_faults(topology->graph(),
                                                          fraction, seed);
        for (LinkId l = 0; l < topology->graph().num_transit_links(); ++l) {
          if (dead.link_dead(l) && topology->graph().link(l).reverse > l) {
            faults.degrade_cable(l, factor);
          }
        }
      }
      FlowEngine engine(*topology, options);
      faults.apply(engine);
      return engine.run(program).makespan;
    };
    const double healthy = degrade_run(0.0);
    const double light = degrade_run(0.05);
    const double heavy = degrade_run(0.20);
    soft.add_row({topology->name(), format_time(healthy), format_time(light),
                  format_time(heavy),
                  format_fixed(healthy > 0 ? heavy / healthy : 1.0, 2) + "x"});
  }
  std::fputs(soft.to_text().c_str(), stdout);
  std::printf(
      "\nExpectation: adaptive, path-diverse fabrics degrade gracefully;\n"
      "single-path topologies track the worst dead or degraded cable on\n"
      "their hot routes, and partitions show up as stranded traffic, not\n"
      "as crashes.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("ext_resilience", run, argc, argv);
}
