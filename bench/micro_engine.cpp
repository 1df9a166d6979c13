// google-benchmark microbenchmarks for the flow engine: max-min solver
// throughput, end-to-end engine runs, and dependency-DAG construction.
#include <benchmark/benchmark.h>

#include "flowsim/engine.hpp"
#include "flowsim/maxmin.hpp"
#include "topo/factory.hpp"
#include "util/prng.hpp"
#include "workloads/factory.hpp"

namespace {

using namespace nestflow;

/// Random flows over random paths: raw solver throughput.
void BM_MaxMinSolve(benchmark::State& state) {
  const auto num_flows = static_cast<std::size_t>(state.range(0));
  const std::size_t num_links = num_flows / 2 + 16;
  Prng prng(1);
  std::vector<double> caps(num_links);
  for (auto& c : caps) c = 1.0 + prng.next_double();
  std::vector<std::vector<LinkId>> paths(num_flows);
  for (auto& path : paths) {
    const auto picks = prng.sample_without_replacement(num_links, 6);
    path.assign(picks.begin(), picks.end());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(maxmin_fair_rates(caps, paths));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(num_flows));
}
BENCHMARK(BM_MaxMinSolve)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EngineAllReduce(benchmark::State& state) {
  const auto nodes = static_cast<std::uint64_t>(state.range(0));
  const auto topology = make_reference_fattree(nodes);
  const auto workload = make_workload("allreduce");
  WorkloadContext context;
  context.num_tasks = static_cast<std::uint32_t>(nodes);
  context.seed = 42;
  const auto program = workload->generate(context);
  EngineOptions options;
  options.rate_quantum_rel = 0.01;
  FlowEngine engine(*topology, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(program).makespan);
  }
  state.SetItemsProcessed(state.iterations() * program.num_flows());
}
BENCHMARK(BM_EngineAllReduce)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EngineUnstructuredTorus(benchmark::State& state) {
  const auto nodes = static_cast<std::uint64_t>(state.range(0));
  const auto topology = make_reference_torus(nodes);
  const auto workload = make_workload("unstructured-app");
  WorkloadContext context;
  context.num_tasks = static_cast<std::uint32_t>(nodes);
  context.seed = 42;
  const auto program = workload->generate(context);
  EngineOptions options;
  options.rate_quantum_rel = 0.01;
  FlowEngine engine(*topology, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(program).makespan);
  }
  state.SetItemsProcessed(state.iterations() * program.num_flows());
}
BENCHMARK(BM_EngineUnstructuredTorus)->Arg(256)->Arg(1024);

/// Sweep3D's rows are tiny and its edges arrive almost in parent order;
/// MapReduce's arrive out of parent order, and one barrier row holds the
/// whole shuffle (N = 512: 522 242 edges, a 260 610-child row).
void BM_DagConstruction(benchmark::State& state, const char* workload_name) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto workload = make_workload(workload_name);
  WorkloadContext context;
  context.num_tasks = nodes;
  context.seed = 1;
  const auto program = workload->generate(context);
  for (auto _ : state) {
    DependencyDag dag(program);
    benchmark::DoNotOptimize(dag.depth());
  }
  state.SetItemsProcessed(state.iterations() * program.num_flows());
}
BENCHMARK_CAPTURE(BM_DagConstruction, sweep3d, "sweep3d")->Arg(512)->Arg(4096);
BENCHMARK_CAPTURE(BM_DagConstruction, mapreduce, "mapreduce")->Arg(512);

void BM_WorkloadGeneration(benchmark::State& state) {
  const auto workload = make_workload("unstructured-mgnt");
  WorkloadContext context;
  context.num_tasks = static_cast<std::uint32_t>(state.range(0));
  context.seed = 9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload->generate(context).num_flows());
  }
}
BENCHMARK(BM_WorkloadGeneration)->Arg(1024)->Arg(8192);

}  // namespace
