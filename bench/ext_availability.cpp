// Extension: Monte Carlo availability campaign over a dynamic fault
// timeline (the operational question behind the paper's resilience future
// work): given per-component MTBF/MTTR, how much of the workload's traffic
// still gets delivered, and how late, when cables and QFDBs fail and are
// repaired *while the workload runs*?
//
// Each trial draws a seeded Poisson fail/repair timeline over the fabric
// (FaultTimeline::poisson), replays the workload through the engine under
// the selected recovery policy, and records delivered fraction, slowdown
// against the healthy run, and the fault/recovery counters. Trials are
// independent, so the campaign fans them out across the sweep thread pool;
// results land in preassigned row slots, so the CSV is identical at every
// --threads value.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "flowsim/engine.hpp"
#include "resilience/fault_model.hpp"
#include "resilience/fault_router.hpp"
#include "resilience/fault_timeline.hpp"
#include "topo/factory.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "workloads/factory.hpp"

namespace {

using namespace nestflow;

struct TrialResult {
  std::uint64_t seed = 0;
  std::size_t timeline_events = 0;
  SimResult sim;
  double delivered_fraction = 1.0;
  double slowdown = 1.0;
};

RecoveryPolicy parse_policy(const std::string& name) {
  if (name == "strand") return RecoveryPolicy::kStrand;
  if (name == "reroute") return RecoveryPolicy::kReroute;
  if (name == "restart") return RecoveryPolicy::kRestartBackoff;
  throw CliError("policy", "expected strand, reroute or restart, got '" +
                               name + "'");
}

int run(int argc, char** argv) {
  CliParser cli("ext_availability",
                "Monte Carlo availability under a fail/repair timeline");
  cli.add_option("system", "topology spec (see make_topology)",
                 "nesttree:256,2,2");
  cli.add_option("workload", "workload to evaluate", "unstructured-app");
  cli.add_option("seeds", "number of Monte Carlo trials", "32");
  cli.add_option("seed0", "first timeline seed (trial i uses seed0 + i)",
                 "1");
  cli.add_option("horizon",
                 "failure-window length in seconds (0 = healthy makespan)",
                 "0");
  cli.add_option("cable-mtbf",
                 "per-cable MTBF in seconds (0 = auto: ~4 cable failures "
                 "inside the horizon)",
                 "0");
  cli.add_option("endpoint-mtbf",
                 "per-endpoint MTBF in seconds (0 = auto: ~2 endpoint "
                 "failures inside the horizon)",
                 "0");
  cli.add_option("mttr",
                 "mean time to repair in seconds (0 = auto: horizon / 4)",
                 "0");
  cli.add_option("policy", "recovery policy: strand, reroute or restart",
                 "reroute");
  cli.add_option("retry-backoff",
                 "restart policy: first retry delay in seconds (0 = auto: "
                 "horizon / 8)",
                 "0");
  cli.add_option("max-retries", "restart policy: retry budget per flow", "3");
  cli.add_option("threads", "trials run concurrently (0 = hardware)", "0");
  cli.add_option("csv", "per-trial CSV output path",
                 "build/artifacts/ext_availability.csv");
  cli.add_flag("smoke", "quick CI preset: small system, 8 seeds");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  const bool smoke = cli.get_bool("smoke");
  const std::string system_spec =
      smoke && !cli.has("system") ? "fattree:4,4" : cli.get_string("system");
  const std::uint64_t num_trials =
      smoke && !cli.has("seeds") ? 8 : cli.get_uint("seeds");
  const std::uint64_t seed0 = cli.get_uint("seed0");
  const std::string workload_name = cli.get_string("workload");
  const RecoveryPolicy policy = parse_policy(cli.get_string("policy"));

  const auto topology = make_topology(system_spec);
  WorkloadContext context;
  context.num_tasks = topology->num_endpoints();
  context.seed = 42;
  const auto program = make_workload(workload_name)->generate(context);

  EngineOptions base_options;
  base_options.adaptive_routing = false;  // reproducible trials
  base_options.rate_quantum_rel = 0.01;
  base_options.recovery_policy = policy;
  base_options.max_retries =
      static_cast<std::uint32_t>(cli.get_uint("max-retries"));

  // The healthy run calibrates everything: the auto failure window, the
  // auto MTBFs, and the slowdown denominator.
  double healthy_makespan = 0.0;
  {
    FlowEngine engine(*topology, base_options);
    healthy_makespan = engine.run(program).makespan;
  }

  const Graph& graph = topology->graph();
  double num_cables = 0.0;
  for (LinkId l = 0; l < graph.num_transit_links(); ++l) {
    if (graph.link(l).reverse > l) num_cables += 1.0;
  }
  FaultProcessParams params;
  params.horizon_seconds = cli.get_double("horizon") > 0.0
                               ? cli.get_double("horizon")
                               : healthy_makespan;
  params.cable_mtbf_seconds =
      cli.get_double("cable-mtbf") > 0.0
          ? cli.get_double("cable-mtbf")
          : num_cables * params.horizon_seconds / 4.0;
  params.endpoint_mtbf_seconds =
      cli.get_double("endpoint-mtbf") > 0.0
          ? cli.get_double("endpoint-mtbf")
          : topology->num_endpoints() * params.horizon_seconds / 2.0;
  params.mttr_seconds = cli.get_double("mttr") > 0.0
                            ? cli.get_double("mttr")
                            : params.horizon_seconds / 4.0;
  base_options.retry_backoff_seconds =
      cli.get_double("retry-backoff") > 0.0 ? cli.get_double("retry-backoff")
                                            : params.horizon_seconds / 8.0;

  ThreadPool pool(cli.get_uint("threads"));
  std::printf(
      "== Extension: availability campaign (%s, %s, policy %s) ==\n"
      "   %llu trials, horizon %.3gs, cable MTBF %.3gs, endpoint MTBF "
      "%.3gs, MTTR %.3gs, %zu threads\n\n",
      system_spec.c_str(), workload_name.c_str(),
      cli.get_string("policy").c_str(),
      static_cast<unsigned long long>(num_trials), params.horizon_seconds,
      params.cable_mtbf_seconds, params.endpoint_mtbf_seconds,
      params.mttr_seconds, pool.size());

  std::vector<TrialResult> trials(num_trials);
  pool.parallel_for(num_trials, [&](std::size_t i) {
    const std::uint64_t seed = seed0 + i;
    const FaultTimeline timeline =
        FaultTimeline::poisson(graph, params, seed);

    // Every trial gets its own fault model / router / engine: a timeline
    // run mutates all three.
    FaultModel faults(graph);
    std::optional<FaultAwareRouter> router;
    if (policy == RecoveryPolicy::kReroute) router.emplace(*topology, faults);
    TimelineFaultDriver driver(timeline, faults);
    const Topology& net =
        router ? static_cast<const Topology&>(*router) : *topology;
    FlowEngine engine(net, base_options);

    TrialResult& out = trials[i];
    out.seed = seed;
    out.timeline_events = timeline.num_events();
    out.sim = engine.run(program, driver);
    out.delivered_fraction =
        out.sim.total_bytes > 0.0
            ? out.sim.delivered_bytes() / out.sim.total_bytes
            : 1.0;
    out.slowdown = healthy_makespan > 0.0
                       ? out.sim.makespan / healthy_makespan
                       : 1.0;
  });

  Table table({"seed", "timeline_events", "fault_events_applied",
               "makespan_s", "slowdown", "flows", "stranded_flows",
               "cancelled_flows", "recovered_flows", "rerouted_flows",
               "flow_retries", "delivered_fraction"});
  std::vector<double> delivered;
  std::vector<double> slowdowns;
  std::uint64_t full_delivery = 0;
  for (const TrialResult& t : trials) {
    table.add_row({std::to_string(t.seed), std::to_string(t.timeline_events),
                   std::to_string(t.sim.fault_events_applied),
                   format_fixed(t.sim.makespan, 9), format_fixed(t.slowdown, 3),
                   std::to_string(t.sim.num_flows),
                   std::to_string(t.sim.stranded_flows),
                   std::to_string(t.sim.cancelled_flows),
                   std::to_string(t.sim.recovered_flows),
                   std::to_string(t.sim.rerouted_flows),
                   std::to_string(t.sim.flow_retries),
                   format_fixed(t.delivered_fraction, 6)});
    delivered.push_back(t.delivered_fraction);
    slowdowns.push_back(t.slowdown);
    if (t.delivered_fraction >= 1.0) ++full_delivery;
  }

  Table summary({"metric", "mean", "p50", "p95_worst"});
  const auto mean_of = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  // For delivered fraction the bad tail is LOW, so report the 5th
  // percentile as the p95-worst trial; for slowdown the bad tail is high.
  summary.add_row({"delivered_fraction", format_fixed(mean_of(delivered), 4),
                   format_fixed(percentile(delivered, 0.50), 4),
                   format_fixed(percentile(delivered, 0.05), 4)});
  summary.add_row({"slowdown", format_fixed(mean_of(slowdowns), 3),
                   format_fixed(percentile(slowdowns, 0.50), 3),
                   format_fixed(percentile(slowdowns, 0.95), 3)});
  std::fputs(summary.to_text().c_str(), stdout);
  std::printf("\n%llu / %llu trials delivered every byte (availability "
              "%.1f%%)\n",
              static_cast<unsigned long long>(full_delivery),
              static_cast<unsigned long long>(num_trials),
              num_trials > 0
                  ? 100.0 * static_cast<double>(full_delivery) /
                        static_cast<double>(num_trials)
                  : 100.0);

  table.save_csv(cli.get_string("csv"));
  std::printf("Per-trial rows written to %s\n",
              cli.get_string("csv").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("ext_availability", run, argc, argv);
}
