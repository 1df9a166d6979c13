// Design advisor: the paper's "design exploration" as a single command.
// Given a machine size, it sweeps the (t, u, upper-tier) space and reports
// — per candidate — the hardware bill (switches, cost/power overhead), the
// static quality metrics (average distance, uniform saturation throughput,
// deadlock verdict) and, optionally, simulated execution time on a chosen
// workload. The final column ranks candidates by a simple figure of merit
// (throughput per cost overhead), which is one way to read the paper's
// "1 uplink per 2-4 nodes, small subtori" conclusion off a table.
//
// Usage:
//   design_advisor --nodes 4096
//   design_advisor --nodes 512 --workload allreduce
#include <algorithm>
#include <cstdio>

#include "core/cost_model.hpp"
#include "flowsim/engine.hpp"
#include "graph/distance_metrics.hpp"
#include "topo/census.hpp"
#include "topo/deadlock.hpp"
#include "topo/factory.hpp"
#include "topo/throughput.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "workloads/factory.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace nestflow;
  CliParser cli("design_advisor",
                "sweep the hybrid design space and rank the candidates");
  cli.add_option("nodes", "machine size in QFDBs (power of two)", "512");
  cli.add_option("pairs", "routed pairs per static analysis", "200000");
  cli.add_option("workload",
                 "optionally simulate this workload on every candidate", "");
  cli.add_option("seed", "seed", "42");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;
  const auto nodes = cli.get_uint("nodes");
  const auto pairs = cli.get_positive_uint("pairs");
  const auto workload_name = cli.get_string("workload");

  struct Candidate {
    std::unique_ptr<Topology> topology;
    OverheadEstimate overhead;
    double avg_distance = 0.0;
    double throughput = 0.0;
    bool deadlock_free = false;
    double sim_time = 0.0;
    double merit = 0.0;
  };
  std::vector<Candidate> candidates;

  const auto add = [&](std::unique_ptr<Topology> topology) {
    Candidate candidate;
    candidate.topology = std::move(topology);
    const auto& topo = *candidate.topology;
    const auto census = take_census(topo.graph());
    candidate.overhead = estimate_overhead(topo.num_endpoints(),
                                           census.switches);
    const auto distances = sampled_routed_report(
        topo.num_endpoints(),
        [&topo](std::uint32_t s, std::uint32_t d) {
          return topo.route_distance(s, d);
        },
        pairs, cli.get_uint("seed"), topo.adversarial_pairs());
    candidate.avg_distance = distances.average;
    candidate.throughput = uniform_throughput_bound(topo, pairs).normalized;
    candidate.deadlock_free = analyze_deadlock(topo, pairs).acyclic;
    // Merit: saturation throughput per unit of cost overhead (plus the
    // baseline's own cost), higher is better. Crude but monotone in the
    // paper's two conclusions.
    candidate.merit =
        candidate.throughput / (1.0 + candidate.overhead.cost_increase);
    candidates.push_back(std::move(candidate));
  };

  add(make_reference_torus(nodes));
  add(make_reference_fattree(nodes));
  for (const std::uint32_t t : {2u, 4u, 8u}) {
    for (const std::uint32_t u : {8u, 4u, 2u, 1u}) {
      for (const auto upper : {UpperTierKind::kGhc, UpperTierKind::kFattree}) {
        try {
          add(make_nested(nodes, t, u, upper));
        } catch (const std::invalid_argument&) {
          // t does not tile this machine size; skip.
        }
      }
    }
  }

  if (!workload_name.empty()) {
    const auto workload = make_workload(workload_name);
    WorkloadContext context;
    context.num_tasks = static_cast<std::uint32_t>(nodes);
    context.seed = cli.get_uint("seed");
    const auto program = workload->generate(context);
    EngineOptions options;
    options.rate_quantum_rel = 0.01;
    for (auto& candidate : candidates) {
      FlowEngine engine(*candidate.topology, options);
      candidate.sim_time = engine.run(program).makespan;
    }
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.merit > b.merit;
            });

  std::printf("== Design advisor: N = %llu QFDBs ==\n\n",
              static_cast<unsigned long long>(nodes));
  Table table({"rank", "topology", "switches", "cost", "avg dist",
               "throughput", "deadlock-free", workload_name.empty()
                   ? "merit"
                   : workload_name + " time"});
  int rank = 1;
  for (const auto& candidate : candidates) {
    table.add_row(
        {std::to_string(rank++), candidate.topology->name(),
         std::to_string(candidate.overhead.num_switches),
         format_percent(candidate.overhead.cost_increase, 2),
         format_fixed(candidate.avg_distance, 2),
         format_fixed(candidate.throughput, 3),
         candidate.deadlock_free ? "yes" : "needs VCs",
         workload_name.empty() ? format_fixed(candidate.merit, 3)
                               : format_time(candidate.sim_time)});
  }
  std::fputs(table.to_text().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("design_advisor", run, argc, argv);
}
