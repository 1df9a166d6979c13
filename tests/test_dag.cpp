#include "flowsim/dag.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "flowsim/engine.hpp"
#include "flowsim/metrics.hpp"
#include "topo/torus.hpp"
#include "util/prng.hpp"
#include "verify/reference_engine.hpp"
#include "workloads/factory.hpp"

namespace nestflow {
namespace {

TrafficProgram three_flows() {
  TrafficProgram program;
  program.add_flow(0, 1, 1.0);
  program.add_flow(1, 2, 1.0);
  program.add_flow(2, 3, 1.0);
  return program;
}

TEST(Dag, FlatProgramAllRoots) {
  const auto program = three_flows();
  const DependencyDag dag(program);
  EXPECT_EQ(dag.roots().size(), 3u);
  EXPECT_EQ(dag.depth(), 0u);
  for (FlowIndex f = 0; f < 3; ++f) {
    EXPECT_EQ(dag.pending_parents()[f], 0u);
    EXPECT_TRUE(dag.children(f).empty());
  }
}

TEST(Dag, ChainDepthAndChildren) {
  auto program = three_flows();
  program.add_dependency(0, 1);
  program.add_dependency(1, 2);
  const DependencyDag dag(program);
  EXPECT_EQ(dag.roots(), std::vector<FlowIndex>{0});
  EXPECT_EQ(dag.depth(), 2u);
  EXPECT_EQ(dag.children(0).size(), 1u);
  EXPECT_EQ(dag.children(0)[0], 1u);
  EXPECT_EQ(dag.pending_parents()[2], 1u);
}

TEST(Dag, DiamondCountsParents) {
  TrafficProgram program;
  for (int i = 0; i < 4; ++i) program.add_flow(0, 1, 1.0);
  program.add_dependency(0, 1);
  program.add_dependency(0, 2);
  program.add_dependency(1, 3);
  program.add_dependency(2, 3);
  const DependencyDag dag(program);
  EXPECT_EQ(dag.pending_parents()[3], 2u);
  EXPECT_EQ(dag.depth(), 2u);
}

TEST(Dag, DuplicateEdgesCollapse) {
  auto program = three_flows();
  program.add_dependency(0, 1);
  program.add_dependency(0, 1);
  const DependencyDag dag(program);
  EXPECT_EQ(dag.children(0).size(), 1u);
  EXPECT_EQ(dag.pending_parents()[1], 1u);
}

TEST(Dag, CycleDetected) {
  auto program = three_flows();
  program.add_dependency(0, 1);
  program.add_dependency(1, 2);
  program.add_dependency(2, 0);
  EXPECT_THROW(DependencyDag dag(program), std::invalid_argument);
}

TEST(Dag, TwoCycleDetected) {
  auto program = three_flows();
  program.add_dependency(0, 1);
  program.add_dependency(1, 0);
  EXPECT_THROW(DependencyDag dag(program), std::invalid_argument);
}

TEST(Dag, BadEdgeRejected) {
  TrafficProgram program;
  program.add_flow(0, 1, 1.0);
  program.add_dependency(0, 5);  // flow 5 never created
  EXPECT_THROW(DependencyDag dag(program), std::invalid_argument);
}

// TrafficProgram::validate checks endpoints only; every engine entry point
// must still reject a dangling edge through the DAG it builds.
TEST(Dag, EntryPointsRejectDanglingEdge) {
  const TorusTopology torus({4, 4});
  TrafficProgram program;
  program.add_flow(0, 1, 1.0);
  program.add_dependency(0, 5);  // flow 5 never created
  FlowEngine engine(torus);
  verify::ReferenceEngine reference(torus);
  EXPECT_THROW((void)engine.run(program), std::invalid_argument);
  EXPECT_THROW((void)reference.run(program), std::invalid_argument);
  EXPECT_THROW((void)critical_path_seconds(torus, program),
               std::invalid_argument);
}

TEST(Dag, ChildrenOutOfRangeThrows) {
  const auto program = three_flows();
  const DependencyDag dag(program);
  EXPECT_THROW((void)dag.children(3), std::out_of_range);
}

TEST(Dag, EmptyProgram) {
  const TrafficProgram program;
  const DependencyDag dag(program);
  EXPECT_EQ(dag.num_flows(), 0u);
  EXPECT_TRUE(dag.roots().empty());
}

// ------------------------------------------------- sort-based reference

/// The DAG as the sort-based construction builds it: copy the edge list,
/// sort and deduplicate it, fill the CSR rows in sorted order, and run
/// Kahn's algorithm with a per-flow level array. DependencyDag must
/// reproduce every array and exception of this construction exactly.
struct ReferenceDag {
  std::vector<std::uint32_t> offsets;
  std::vector<FlowIndex> children;
  std::vector<std::uint32_t> pending_parents;
  std::vector<FlowIndex> roots;
  std::uint32_t depth = 0;
};

ReferenceDag build_reference(const TrafficProgram& program) {
  const std::uint32_t n = program.num_flows();
  auto deps = program.dependencies();
  for (const auto& [before, after] : deps) {
    if (before >= n || after >= n) {
      throw std::invalid_argument("DependencyDag: edge references missing flow");
    }
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());

  ReferenceDag dag;
  dag.offsets.assign(n + 1, 0);
  for (const auto& [before, after] : deps) ++dag.offsets[before + 1];
  for (std::uint32_t i = 0; i < n; ++i) dag.offsets[i + 1] += dag.offsets[i];
  dag.children.resize(deps.size());
  dag.pending_parents.assign(n, 0);
  std::vector<std::uint32_t> cursor(dag.offsets.begin(),
                                    dag.offsets.end() - 1);
  for (const auto& [before, after] : deps) {
    dag.children[cursor[before]++] = after;
    ++dag.pending_parents[after];
  }
  for (FlowIndex f = 0; f < n; ++f) {
    if (dag.pending_parents[f] == 0) dag.roots.push_back(f);
  }

  std::vector<std::uint32_t> remaining = dag.pending_parents;
  std::vector<std::uint32_t> level(n, 0);
  std::vector<FlowIndex> queue = dag.roots;
  std::uint32_t processed = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const FlowIndex f = queue[head];
    ++processed;
    dag.depth = std::max(dag.depth, level[f]);
    for (std::uint32_t e = dag.offsets[f]; e < dag.offsets[f + 1]; ++e) {
      const FlowIndex child = dag.children[e];
      level[child] = std::max(level[child], level[f] + 1);
      if (--remaining[child] == 0) queue.push_back(child);
    }
  }
  if (processed != n) {
    throw std::invalid_argument("DependencyDag: dependency cycle detected (" +
                                std::to_string(n - processed) +
                                " flows unreachable)");
  }
  return dag;
}

/// Builds `program` both ways and compares every row, the roots, the
/// parent counts and the depth, or the exception type and message (which
/// carries a cycle's unreachable count). Returns true when both threw.
bool expect_matches_reference(const TrafficProgram& program) {
  std::optional<ReferenceDag> ref;
  std::string ref_error;
  try {
    ref = build_reference(program);
  } catch (const std::invalid_argument& e) {
    ref_error = e.what();
  }
  if (!ref) {
    try {
      const DependencyDag dag(program);
      ADD_FAILURE() << "DependencyDag accepted a program the reference "
                       "rejects with: "
                    << ref_error;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), ref_error);
    }
    return true;
  }
  const DependencyDag dag(program);
  const std::uint32_t n = program.num_flows();
  EXPECT_EQ(dag.num_flows(), n);
  for (FlowIndex f = 0; f < n; ++f) {
    const auto row = dag.children(f);
    const std::vector<FlowIndex> want(
        ref->children.begin() + ref->offsets[f],
        ref->children.begin() + ref->offsets[f + 1]);
    EXPECT_EQ(std::vector<FlowIndex>(row.begin(), row.end()), want)
        << "children of flow " << f;
  }
  EXPECT_EQ(dag.roots(), ref->roots);
  EXPECT_EQ(dag.pending_parents(), ref->pending_parents);
  EXPECT_EQ(dag.depth(), ref->depth);
  return false;
}

TrafficProgram flat_program(std::uint32_t count) {
  TrafficProgram program;
  for (std::uint32_t i = 0; i < count; ++i) program.add_flow(0, 1, 1.0);
  return program;
}

TEST(DagReference, RandomAcyclicProgramsOutOfOrderWithDuplicates) {
  std::size_t unsorted_rows = 0;
  std::size_t duplicates = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Prng prng(seed);
    const auto n = static_cast<std::uint32_t>(2 + prng.next_below(300));
    // Edges run forward in a random topological order, so the program is
    // acyclic while its flow indices are not.
    std::vector<FlowIndex> order(n);
    std::iota(order.begin(), order.end(), 0u);
    prng.shuffle(std::span<FlowIndex>(order));
    std::vector<std::pair<FlowIndex, FlowIndex>> edges;
    const std::uint64_t m = prng.next_below(4ull * n);
    for (std::uint64_t e = 0; e < m; ++e) {
      auto i = prng.next_below(n);
      auto j = prng.next_below(n);
      if (i == j) continue;
      if (i > j) std::swap(i, j);
      edges.emplace_back(order[i], order[j]);
      if (prng.next_bool(0.2)) {
        edges.emplace_back(order[i], order[j]);
        ++duplicates;
      }
    }
    prng.shuffle(std::span<std::pair<FlowIndex, FlowIndex>>(edges));
    TrafficProgram program = flat_program(n);
    for (const auto& [before, after] : edges) {
      program.add_dependency(before, after);
    }
    // Rows whose children arrived out of ascending order: the ones the
    // linear build has to sort.
    std::vector<FlowIndex> last(n, 0);
    std::vector<bool> seen(n, false);
    for (const auto& [before, after] : edges) {
      if (seen[before] && after < last[before]) ++unsorted_rows;
      seen[before] = true;
      last[before] = after;
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_FALSE(expect_matches_reference(program));
  }
  EXPECT_GT(unsorted_rows, 0u);
  EXPECT_GT(duplicates, 0u);
}

TEST(DagReference, RandomProgramsWithCycles) {
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Prng prng(1000 + seed);
    const auto n = static_cast<std::uint32_t>(2 + prng.next_below(100));
    TrafficProgram program = flat_program(n);
    const std::uint64_t m = prng.next_below(n + n / 2);
    for (std::uint64_t e = 0; e < m; ++e) {
      const auto before = static_cast<FlowIndex>(prng.next_below(n));
      const auto after = static_cast<FlowIndex>(prng.next_below(n));
      if (before != after) program.add_dependency(before, after);
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    if (expect_matches_reference(program)) ++rejected;
  }
  // Both outcomes are exercised.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, 60u);
}

TEST(DagReference, DescendingBarrierRowIsSorted) {
  TrafficProgram program = flat_program(40);
  std::vector<FlowIndex> before(20);
  std::iota(before.begin(), before.end(), 0u);
  std::vector<FlowIndex> after(20);
  std::iota(after.rbegin(), after.rend(), 20u);  // 39, 38, ..., 20
  const FlowIndex sync = program.add_barrier(before, after);
  EXPECT_FALSE(expect_matches_reference(program));
  const DependencyDag dag(program);
  const auto row = dag.children(sync);
  EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  EXPECT_EQ(row.size(), 20u);
  EXPECT_EQ(dag.depth(), 2u);
}

TEST(DagReference, ChainsDiamondsAndCycles) {
  {
    // A 50-flow chain added back to front.
    TrafficProgram program = flat_program(50);
    for (FlowIndex f = 49; f > 0; --f) program.add_dependency(f - 1, f);
    EXPECT_FALSE(expect_matches_reference(program));
    EXPECT_EQ(DependencyDag(program).depth(), 49u);
  }
  {
    // Ten stacked diamonds, each added with its join edge first.
    TrafficProgram program = flat_program(31);
    for (FlowIndex top = 0; top + 3 < 31; top += 3) {
      program.add_dependency(top + 2, top + 3);
      program.add_dependency(top + 1, top + 3);
      program.add_dependency(top, top + 2);
      program.add_dependency(top, top + 1);
    }
    EXPECT_FALSE(expect_matches_reference(program));
    EXPECT_EQ(DependencyDag(program).depth(), 20u);
  }
  {
    // A three-flow cycle fed by a root, beside a healthy chain: the
    // message counts the three flows Kahn's algorithm cannot reach.
    TrafficProgram program = flat_program(7);
    program.add_dependency(0, 1);
    program.add_dependency(3, 1);
    program.add_dependency(1, 2);
    program.add_dependency(2, 3);
    program.add_dependency(4, 5);
    program.add_dependency(5, 6);
    EXPECT_TRUE(expect_matches_reference(program));
    try {
      const DependencyDag dag(program);
      ADD_FAILURE() << "cycle not detected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("(3 flows unreachable)"),
                std::string::npos)
          << e.what();
    }
  }
  {
    TrafficProgram program = flat_program(3);
    program.add_dependency(2, 0);
    program.add_dependency(0, 1);
    program.add_dependency(1, 2);
    EXPECT_TRUE(expect_matches_reference(program));
  }
  {
    TrafficProgram program = flat_program(2);
    program.add_dependency(0, 1);
    program.add_dependency(1, 7);
    EXPECT_TRUE(expect_matches_reference(program));
  }
}

TEST(DagReference, EveryWorkloadGenerator) {
  std::vector<std::string> names = all_workload_names();
  names.emplace_back("binomial-reduce");
  names.emplace_back("uniform-injection");
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    WorkloadContext context;
    context.num_tasks = 64;
    context.seed = 5;
    const auto program = make_workload(name)->generate(context);
    EXPECT_FALSE(expect_matches_reference(program));
  }
}

}  // namespace
}  // namespace nestflow
