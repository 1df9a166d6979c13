// Extension: multi-tenant interference. Two equal jobs share the machine,
// placed either *contiguously* (each job owns whole subtori — the
// allocation a production scheduler would choose on the hybrids) or
// *interleaved* (ranks dealt alternately — the pathological allocation).
// Each job's slowdown versus running alone quantifies how well a topology
// isolates tenants: subtorus-local traffic cannot interfere across a
// contiguous boundary, while interleaving drags both jobs onto shared
// subtorus links and uplinks.
#include <algorithm>
#include <cstdio>

#include "core/placement.hpp"
#include "flowsim/engine.hpp"
#include "topo/factory.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "workloads/factory.hpp"

namespace {

using namespace nestflow;

/// Finish time of flows [0, split) and [split, n) after a combined run.
struct JobTimes {
  double job_a;
  double job_b;
};

JobTimes run_combined(const Topology& topology, const TrafficProgram& a,
                      const TrafficProgram& b) {
  TrafficProgram merged = a;
  const FlowIndex split = merged.num_flows();
  for (const auto& flow : b.flows()) {
    if (flow.is_sync) {
      merged.add_sync();
    } else {
      merged.add_flow(flow.src, flow.dst, flow.bytes, flow.release_seconds);
    }
  }
  for (const auto& [before, after] : b.dependencies()) {
    merged.add_dependency(split + before, split + after);
  }
  EngineOptions options;
  options.record_flow_times = true;
  options.rate_quantum_rel = 0.01;
  FlowEngine engine(topology, options);
  const auto result = engine.run(merged);
  JobTimes times{0.0, 0.0};
  for (FlowIndex f = 0; f < merged.num_flows(); ++f) {
    if (merged.flow(f).is_sync) continue;
    auto& slot = f < split ? times.job_a : times.job_b;
    slot = std::max(slot, result.flow_finish_times[f]);
  }
  return times;
}

double run_alone(const Topology& topology, const TrafficProgram& program) {
  EngineOptions options;
  options.rate_quantum_rel = 0.01;
  FlowEngine engine(topology, options);
  return engine.run(program).makespan;
}

int run(int argc, char** argv) {
  CliParser cli("ext_isolation",
                "co-scheduled job interference: contiguous vs interleaved");
  cli.add_option("nodes", "machine size in QFDBs (power of two)", "512");
  cli.add_option("workload", "per-job workload", "nearneighbors");
  cli.add_option("seed", "workload seed", "42");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;
  const auto nodes = static_cast<std::uint32_t>(cli.get_uint("nodes"));
  const auto per_job = nodes / 2;

  const auto workload = make_workload(cli.get_string("workload"));
  WorkloadContext context;
  context.num_tasks = per_job;
  context.seed = cli.get_uint("seed");
  const auto base_a = workload->generate(context);
  context.seed += 1;
  const auto base_b = workload->generate(context);

  std::printf("== Extension: job isolation (N = %u, 2 x %u-task %s) ==\n\n",
              nodes, per_job, workload->name().c_str());
  Table table({"topology", "placement", "job A slowdown", "job B slowdown"});

  for (const char* spec :
       {"torus", "fattree", "nestghc-t4u2", "nesttree-t4u2"}) {
    std::unique_ptr<Topology> topology;
    const std::string key = spec;
    if (key == "torus") {
      topology = make_reference_torus(nodes);
    } else if (key == "fattree") {
      topology = make_reference_fattree(nodes);
    } else {
      topology = make_nested(nodes, 4, 2,
                             key == "nesttree-t4u2" ? UpperTierKind::kFattree
                                                    : UpperTierKind::kGhc);
    }
    // Machine-wide blocked order: contiguous = first/second half;
    // interleaved = even/odd positions of the same order.
    const auto blocked =
        make_placement(PlacementPolicy::kBlocked, nodes, *topology);
    for (const bool interleaved : {false, true}) {
      std::vector<std::uint32_t> map_a(per_job), map_b(per_job);
      for (std::uint32_t r = 0; r < per_job; ++r) {
        if (interleaved) {
          map_a[r] = blocked[2 * r];
          map_b[r] = blocked[2 * r + 1];
        } else {
          map_a[r] = blocked[r];
          map_b[r] = blocked[per_job + r];
        }
      }
      auto job_a = base_a;
      auto job_b = base_b;
      apply_task_mapping(job_a, map_a);
      apply_task_mapping(job_b, map_b);
      const double alone_a = run_alone(*topology, job_a);
      const double alone_b = run_alone(*topology, job_b);
      const auto combined = run_combined(*topology, job_a, job_b);
      table.add_row({topology->name(),
                     interleaved ? "interleaved" : "contiguous",
                     format_fixed(combined.job_a / alone_a, 2) + "x",
                     format_fixed(combined.job_b / alone_b, 2) + "x"});
    }
  }
  std::fputs(table.to_text().c_str(), stdout);
  std::printf(
      "\nReading: with contiguous whole-subtorus allocation every topology\n"
      "isolates this neighbour-local traffic. Interleaving is harmless on\n"
      "the flat topologies (plenty of disjoint local links) but hurts the\n"
      "hybrids specifically: both tenants are forced through the *shared*\n"
      "thinned uplinks of every subtorus — the allocation policy and the\n"
      "u parameter interact.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("ext_isolation", run, argc, argv);
}
