// Workload sweep: compare a set of topologies on one workload — the
// one-command version of a figure panel, for interactive exploration.
// Topologies are matrix-point tokens, as perf_engine's --points takes them
// (parse_point_token in core/experiment.hpp): torus3d, fattree,
// nestghc-tT-uU, nesttree-tT-uU.
//
// Examples:
//   workload_sweep --workload allreduce --nodes 1024
//   workload_sweep --workload bisection --topologies torus3d,nestghc-t2-u4
//   workload_sweep --workload sweep3d --latency 1e-6
#include <cstdio>

#include "core/experiment.hpp"
#include "flowsim/engine.hpp"
#include "flowsim/metrics.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "workloads/factory.hpp"

namespace {

using namespace nestflow;

int run(int argc, char** argv) {
  CliParser cli("workload_sweep", "compare topologies on one workload");
  cli.add_option("workload", "workload name", "allreduce");
  cli.add_option("nodes", "machine size (power of two)", "512");
  cli.add_option("topologies",
                 "comma list of matrix points: torus3d, fattree, "
                 "nestghc-tT-uU, nesttree-tT-uU",
                 "torus3d,fattree,nesttree-t2-u4,nestghc-t2-u4,nestghc-t4-u8");
  cli.add_option("seed", "workload seed", "42");
  cli.add_option("quantum", "relative rate quantisation", "0.01");
  cli.add_option("latency", "per-hop latency in seconds", "5e-7");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  EngineOptions options;
  options.rate_quantum_rel = cli.get_non_negative_double("quantum");
  options.hop_latency_seconds = cli.get_non_negative_double("latency");

  const auto nodes = cli.get_uint("nodes");
  const auto workload = make_workload(cli.get_string("workload"));
  WorkloadContext context;
  context.num_tasks = static_cast<std::uint32_t>(nodes);
  context.seed = cli.get_uint("seed");
  const auto program = workload->generate(context);
  std::printf("workload %s: %u flows, %s total\n\n", workload->name().c_str(),
              program.num_data_flows(),
              format_bytes(program.total_bytes()).c_str());

  Table table({"topology", "makespan", "vs best", "bottleneck util",
               "avg active", "events"});
  struct Row {
    std::string name;
    SimResult result;
  };
  std::vector<Row> rows;
  double best = 0.0;
  for (const auto& token : cli.get_string_list("topologies")) {
    const auto topology = build_point(parse_point_token(token), nodes);
    FlowEngine engine(*topology, options);
    Row row{topology->name(), engine.run(program)};
    best = best == 0.0 ? row.result.makespan
                       : std::min(best, row.result.makespan);
    rows.push_back(std::move(row));
  }
  for (const auto& row : rows) {
    table.add_row({row.name, format_time(row.result.makespan),
                   format_fixed(row.result.makespan / best, 2) + "x",
                   format_percent(row.result.max_link_utilization, 1),
                   format_fixed(row.result.avg_active_flows, 0),
                   std::to_string(row.result.events)});
  }
  std::fputs(table.to_text().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("workload_sweep", run, argc, argv);
}
