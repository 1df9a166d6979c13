#include <gtest/gtest.h>

#include <set>

#include "flowsim/dag.hpp"
#include "workloads/bisection.hpp"
#include "workloads/collectives.hpp"
#include "workloads/factory.hpp"
#include "workloads/mapreduce.hpp"
#include "workloads/nbodies.hpp"
#include "workloads/stencil.hpp"
#include "workloads/unstructured.hpp"
#include "workloads/wavefront.hpp"
#include "flowsim/engine.hpp"
#include "topo/factory.hpp"
#include "topo/torus.hpp"

namespace nestflow {
namespace {

WorkloadContext ctx(std::uint32_t tasks, std::uint64_t seed = 42) {
  WorkloadContext context;
  context.num_tasks = tasks;
  context.seed = seed;
  return context;
}

// --------------------------------------------------------- shared properties

class WorkloadCatalogTest : public testing::TestWithParam<std::string> {};

TEST_P(WorkloadCatalogTest, GeneratesAValidAcyclicProgram) {
  const auto workload = make_workload(GetParam());
  const auto program = workload->generate(ctx(64));
  EXPECT_GT(program.num_data_flows(), 0u);
  EXPECT_NO_THROW(program.validate(64));
  EXPECT_NO_THROW(DependencyDag dag(program));  // no cycles
}

TEST_P(WorkloadCatalogTest, DeterministicInSeed) {
  const auto workload = make_workload(GetParam());
  const auto a = workload->generate(ctx(64, 7));
  const auto b = workload->generate(ctx(64, 7));
  ASSERT_EQ(a.num_flows(), b.num_flows());
  for (FlowIndex f = 0; f < a.num_flows(); ++f) {
    EXPECT_EQ(a.flow(f).src, b.flow(f).src);
    EXPECT_EQ(a.flow(f).dst, b.flow(f).dst);
    EXPECT_DOUBLE_EQ(a.flow(f).bytes, b.flow(f).bytes);
  }
  EXPECT_EQ(a.dependencies(), b.dependencies());
}

TEST_P(WorkloadCatalogTest, NoDataFlowTargetsItself) {
  const auto workload = make_workload(GetParam());
  const auto program = workload->generate(ctx(64, 3));
  for (const auto& flow : program.flows()) {
    if (!flow.is_sync) {
      EXPECT_NE(flow.src, flow.dst);
    }
  }
}

TEST_P(WorkloadCatalogTest, PositiveFlowSizes) {
  const auto workload = make_workload(GetParam());
  const auto program = workload->generate(ctx(64, 5));
  for (const auto& flow : program.flows()) {
    if (!flow.is_sync) {
      EXPECT_GT(flow.bytes, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadCatalogTest,
                         testing::ValuesIn(all_workload_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --------------------------------------------------------------- per model

TEST(Reduce, FlowCountAndShape) {
  const ReduceWorkload reduce;
  const auto program = reduce.generate(ctx(16));
  EXPECT_EQ(program.num_flows(), 15u);
  for (const auto& flow : program.flows()) EXPECT_EQ(flow.dst, 0u);
  EXPECT_TRUE(program.dependencies().empty());
  EXPECT_FALSE(reduce.is_heavy());
}

TEST(Reduce, RejectsTinyAndBadRoot) {
  const ReduceWorkload reduce;
  EXPECT_THROW((void)reduce.generate(ctx(1)), std::invalid_argument);
  ReduceWorkload::Params params;
  params.root = 20;
  const ReduceWorkload bad_root(params);
  EXPECT_THROW((void)bad_root.generate(ctx(16)), std::invalid_argument);
}

TEST(AllReduce, RecursiveDoublingStructure) {
  const AllReduceWorkload allreduce;
  const auto program = allreduce.generate(ctx(8));
  // 3 steps of 8 flows + 2 sync barriers.
  EXPECT_EQ(program.num_data_flows(), 24u);
  EXPECT_EQ(program.num_flows(), 26u);
  // Step 0 pairs are neighbours (xor 1).
  EXPECT_EQ(program.flow(0).src ^ program.flow(0).dst, 1u);
  EXPECT_TRUE(allreduce.is_heavy());
}

TEST(BinomialReduce, FlowCountIsNMinusOne) {
  // A binomial tree moves exactly n-1 partial results.
  const BinomialReduceWorkload reduce;
  for (const std::uint32_t n : {2u, 8u, 64u}) {
    const auto program = reduce.generate(ctx(n));
    EXPECT_EQ(program.num_flows(), n - 1) << n;
  }
}

TEST(BinomialReduce, DepthIsLogarithmic) {
  const BinomialReduceWorkload reduce;
  const auto program = reduce.generate(ctx(64));
  const DependencyDag dag(program);
  // log2(64) = 6 rounds; the root combines once per round.
  EXPECT_EQ(dag.depth(), 5u);
}

TEST(BinomialReduce, EverythingFlowsTowardsRoot) {
  const BinomialReduceWorkload reduce;
  const auto program = reduce.generate(ctx(32));
  for (const auto& flow : program.flows()) {
    EXPECT_LT(flow.dst, flow.src);  // parents have smaller ranks
  }
  // Exactly log2(32) flows arrive at rank 0.
  std::uint32_t at_root = 0;
  for (const auto& flow : program.flows()) at_root += flow.dst == 0;
  EXPECT_EQ(at_root, 5u);
}

TEST(BinomialReduce, RejectsNonPowerOfTwo) {
  const BinomialReduceWorkload reduce;
  EXPECT_THROW((void)reduce.generate(ctx(12)), std::invalid_argument);
}

TEST(BinomialReduce, MuchFasterThanNaiveReduce) {
  // The aside in §4.1: the optimised collective beats the pathological one
  // by roughly n / log2(n).
  const auto topo = make_topology("fattree:8,8");
  const BinomialReduceWorkload binomial;
  const ReduceWorkload naive;
  FlowEngine engine(*topo);
  const double t_binomial = engine.run(binomial.generate(ctx(64))).makespan;
  const double t_naive = engine.run(naive.generate(ctx(64))).makespan;
  EXPECT_GT(t_naive, 8.0 * t_binomial);
}

TEST(AllReduce, RejectsNonPowerOfTwo) {
  const AllReduceWorkload allreduce;
  EXPECT_THROW((void)allreduce.generate(ctx(12)), std::invalid_argument);
}

TEST(MapReduce, PhaseCounts) {
  const MapReduceWorkload mapreduce;
  const auto program = mapreduce.generate(ctx(8));
  // scatter 7, shuffle 7*6, gather 7, plus 2 syncs.
  EXPECT_EQ(program.num_data_flows(), 7u + 42u + 7u);
  EXPECT_EQ(program.num_flows(), 7u + 42u + 7u + 2u);
}

TEST(MapReduce, DagDepthIsTwoBarriers) {
  const MapReduceWorkload mapreduce;
  const auto program = mapreduce.generate(ctx(8));
  const DependencyDag dag(program);
  EXPECT_EQ(dag.depth(), 4u);  // scatter -> sync -> shuffle -> sync -> gather
}

TEST(Sweep3D, WavefrontFlowCount) {
  const Sweep3DWorkload sweep;
  const auto program = sweep.generate(ctx(64));  // 4x4x4 grid
  // +X/+Y/+Z sends: 3 * 4*4*3 = 144 flows.
  EXPECT_EQ(program.num_flows(), 144u);
}

TEST(Sweep3D, CornerHasNoIncomingDependencies) {
  const Sweep3DWorkload sweep;
  const auto program = sweep.generate(ctx(64));
  const DependencyDag dag(program);
  // The wavefront starts at the origin: its 3 sends are roots.
  EXPECT_GE(dag.roots().size(), 3u);
  // Wavefront depth = longest diagonal chain: (4-1)*3 - 1... at least grid
  // diameter minus one; just require a deep, narrow DAG.
  EXPECT_GE(dag.depth(), 6u);
}

TEST(Flood, WavesMultiplyFlows) {
  FloodWorkload::Params params;
  params.num_waves = 3;
  const FloodWorkload flood(params);
  const auto program = flood.generate(ctx(64));
  EXPECT_EQ(program.num_flows(), 3u * 144u);
}

TEST(NearNeighbors, SixNeighborExchange) {
  const NearNeighborsWorkload stencil;  // 2 iterations by default
  const auto program = stencil.generate(ctx(64));
  // 64 tasks * 6 directions * 2 iterations + 1 barrier sync.
  EXPECT_EQ(program.num_data_flows(), 64u * 6u * 2u);
  EXPECT_EQ(program.num_flows(), 64u * 6u * 2u + 1u);
}

TEST(NearNeighbors, FlowsTargetGridNeighbours) {
  NearNeighborsWorkload::Params params;
  params.iterations = 1;
  const NearNeighborsWorkload stencil(params);
  const auto program = stencil.generate(ctx(64));
  const GridShape grid(factor3(64));
  for (const auto& flow : program.flows()) {
    if (flow.is_sync) continue;
    // Manhattan distance 1 on the periodic grid.
    std::uint32_t moved_dims = 0;
    for (std::uint32_t dim = 0; dim < 3; ++dim) {
      const auto a = grid.coord(flow.src, dim);
      const auto b = grid.coord(flow.dst, dim);
      if (a == b) continue;
      ++moved_dims;
      const std::uint32_t d = grid.dims()[dim];
      const std::uint32_t forward = (b + d - a) % d;
      EXPECT_TRUE(forward == 1 || forward == d - 1);
    }
    EXPECT_EQ(moved_dims, 1u);
  }
}

TEST(NBodies, ChainsAcrossHalfTheRing) {
  const NBodiesWorkload nbodies;
  const auto program = nbodies.generate(ctx(8));
  EXPECT_EQ(program.num_flows(), 8u * 4u);
  EXPECT_EQ(program.dependencies().size(), 8u * 3u);
  const DependencyDag dag(program);
  EXPECT_EQ(dag.depth(), 3u);
  EXPECT_EQ(dag.roots().size(), 8u);
}

TEST(UnstructuredApp, FlowCount) {
  const UnstructuredAppWorkload app;
  const auto program = app.generate(ctx(32));
  EXPECT_EQ(program.num_flows(), 32u * 4u);
  EXPECT_TRUE(program.dependencies().empty());
}

TEST(UnstructuredApp, DifferentSeedsDiffer) {
  const UnstructuredAppWorkload app;
  const auto a = app.generate(ctx(32, 1));
  const auto b = app.generate(ctx(32, 2));
  bool any_difference = false;
  for (FlowIndex f = 0; f < a.num_flows(); ++f) {
    any_difference |= a.flow(f).dst != b.flow(f).dst;
  }
  EXPECT_TRUE(any_difference);
}

TEST(UnstructuredMgnt, ChainsAreSequential) {
  const UnstructuredMgntWorkload mgnt;
  const auto program = mgnt.generate(ctx(64));
  // 64/8 chains of 16 messages.
  EXPECT_EQ(program.num_flows(), 8u * 16u);
  EXPECT_EQ(program.dependencies().size(), 8u * 15u);
  const DependencyDag dag(program);
  EXPECT_EQ(dag.depth(), 15u);
}

TEST(UnstructuredMgnt, HeavyTailedButBounded) {
  UnstructuredMgntWorkload::Params params;
  params.max_bytes = 1024.0 * 1024;
  const UnstructuredMgntWorkload mgnt(params);
  const auto program = mgnt.generate(ctx(256, 3));
  double max_seen = 0.0;
  for (const auto& flow : program.flows()) {
    max_seen = std::max(max_seen, flow.bytes);
    EXPECT_LE(flow.bytes, params.max_bytes);
    EXPECT_GE(flow.bytes, params.pareto_scale_bytes);
  }
  EXPECT_GT(max_seen, 16.0 * 1024);  // the tail actually shows up
}

TEST(UnstructuredHR, HotTasksAttractTraffic) {
  UnstructuredHRWorkload::Params params;
  params.hot_fraction = 0.05;
  params.hot_probability = 0.5;
  params.messages_per_task = 8;
  const UnstructuredHRWorkload hr(params);
  const auto program = hr.generate(ctx(128, 9));
  std::vector<std::uint32_t> in_degree(128, 0);
  for (const auto& flow : program.flows()) ++in_degree[flow.dst];
  std::vector<std::uint32_t> sorted = in_degree;
  std::sort(sorted.rbegin(), sorted.rend());
  // The ~6 hot tasks absorb roughly half the 1024 messages.
  std::uint32_t top6 = 0;
  for (int i = 0; i < 6; ++i) top6 += sorted[i];
  EXPECT_GT(top6, 1024u / 3);
}

TEST(Bisection, RoundsArePerfectMatchings) {
  BisectionWorkload::Params params;
  params.rounds = 2;
  const BisectionWorkload bisection(params);
  const auto program = bisection.generate(ctx(16, 4));
  EXPECT_EQ(program.num_data_flows(), 2u * 16u);
  // Within one round every task appears exactly once as src and once as dst.
  std::vector<std::uint32_t> src_count(16, 0), dst_count(16, 0);
  for (FlowIndex f = 0; f < 16; ++f) {  // first round = first 16 data flows
    ++src_count[program.flow(f).src];
    ++dst_count[program.flow(f).dst];
  }
  for (std::uint32_t t = 0; t < 16; ++t) {
    EXPECT_EQ(src_count[t], 1u);
    EXPECT_EQ(dst_count[t], 1u);
  }
}

TEST(Bisection, RejectsOddTaskCount) {
  const BisectionWorkload bisection;
  EXPECT_THROW((void)bisection.generate(ctx(7)), std::invalid_argument);
}

TEST(Factory, AllNamesResolve) {
  for (const auto& name : all_workload_names()) {
    EXPECT_NO_THROW((void)make_workload(name)) << name;
  }
  EXPECT_EQ(all_workload_names().size(), 11u);
}

TEST(Factory, HeavyLightSplitMatchesPaper) {
  for (const auto& name : heavy_workload_names()) {
    EXPECT_TRUE(make_workload(name)->is_heavy()) << name;
  }
  for (const auto& name : light_workload_names()) {
    EXPECT_FALSE(make_workload(name)->is_heavy()) << name;
  }
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW((void)make_workload("fft"), std::invalid_argument);
}

TEST(TaskMapping, LinearIsIdentity) {
  const auto mapping = linear_task_mapping(8, 16);
  for (std::uint32_t r = 0; r < 8; ++r) EXPECT_EQ(mapping[r], r);
  EXPECT_THROW((void)linear_task_mapping(17, 16), std::invalid_argument);
}

TEST(TaskMapping, RandomIsInjective) {
  const auto mapping = random_task_mapping(64, 128, 5);
  std::set<std::uint32_t> unique(mapping.begin(), mapping.end());
  EXPECT_EQ(unique.size(), 64u);
  for (const auto e : mapping) EXPECT_LT(e, 128u);
}

TEST(TaskMapping, ApplyRewritesEndpoints) {
  TrafficProgram program;
  program.add_flow(0, 1, 10.0);
  program.add_sync();
  const std::vector<std::uint32_t> mapping = {5, 9};
  apply_task_mapping(program, mapping);
  EXPECT_EQ(program.flow(0).src, 5u);
  EXPECT_EQ(program.flow(0).dst, 9u);
  EXPECT_TRUE(program.flow(1).is_sync);
}

TEST(TaskMapping, ApplyRejectsOutOfRangeRanks) {
  TrafficProgram program;
  program.add_flow(0, 3, 10.0);
  const std::vector<std::uint32_t> mapping = {5, 9};
  EXPECT_THROW(apply_task_mapping(program, mapping), std::invalid_argument);
}

TEST(Factor3, NearCubicDescending) {
  EXPECT_EQ(factor3(64), (std::vector<std::uint32_t>{4, 4, 4}));
  EXPECT_EQ(factor3(128), (std::vector<std::uint32_t>{8, 4, 4}));
  EXPECT_EQ(factor3(30), (std::vector<std::uint32_t>{5, 3, 2}));
  EXPECT_EQ(factor3(7), (std::vector<std::uint32_t>{7, 1, 1}));
}

}  // namespace
}  // namespace nestflow
