#include "core/experiment.hpp"

#include <gtest/gtest.h>

namespace nestflow {
namespace {

TEST(Matrix, PaperMatrixHas26Points) {
  const auto points = paper_topology_matrix();
  EXPECT_EQ(points.size(), 26u);  // 12 NestGHC + 12 NestTree + 2 references
  std::size_t ghc = 0, tree = 0;
  for (const auto& p : points) {
    ghc += p.label == "NestGHC";
    tree += p.label == "NestTree";
  }
  EXPECT_EQ(ghc, 12u);
  EXPECT_EQ(tree, 12u);
  EXPECT_EQ(points[points.size() - 2].label, "Fattree");
  EXPECT_EQ(points.back().label, "Torus3D");
}

TEST(Matrix, ConfigNames) {
  const auto points = paper_topology_matrix({2}, {4});
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].config_name(), "NestGHC(t=2,u=4)");
  EXPECT_EQ(points[1].config_name(), "NestTree(t=2,u=4)");
  EXPECT_EQ(points[2].config_name(), "Fattree");
}

TEST(Matrix, BuildPointInstantiates) {
  for (const auto& point : paper_topology_matrix({2}, {1, 8})) {
    const auto topo = build_point(point, 128);
    EXPECT_EQ(topo->num_endpoints(), 128u) << point.config_name();
  }
}

TEST(OverheadAnalysis, MatchesPaperTable2AtFullScale) {
  const auto rows = run_overhead_analysis(131072);
  // Expected switch counts per (upper, u) from the paper's Table 2 —
  // identical across t, which the analysis must reproduce.
  const auto expect_switches = [&](const std::string& label, std::uint32_t u,
                                   std::uint64_t switches) {
    for (const auto& row : rows) {
      if (row.point.label == label && row.point.u == u) {
        EXPECT_EQ(row.estimate.num_switches, switches)
            << label << " u=" << u << " t=" << row.point.t;
      }
    }
  };
  expect_switches("NestGHC", 8, 2048);
  expect_switches("NestGHC", 4, 3072);
  expect_switches("NestGHC", 2, 5120);
  expect_switches("NestGHC", 1, 8192);
  expect_switches("NestTree", 8, 2048);
  expect_switches("NestTree", 4, 3072);
  expect_switches("NestTree", 2, 5120);
  expect_switches("NestTree", 1, 9216);

  for (const auto& row : rows) {
    if (row.point.label == "Fattree") {
      EXPECT_EQ(row.estimate.num_switches, 9216u);
      EXPECT_NEAR(row.estimate.cost_increase * 100.0, 5.27, 0.005);
      EXPECT_NEAR(row.estimate.power_increase * 100.0, 1.76, 0.005);
    }
    if (row.point.label == "Torus3D") {
      EXPECT_EQ(row.estimate.num_switches, 0u);
    }
  }
}

TEST(OverheadAnalysis, UpperTierSwitchCountsMatchBuiltGraphs) {
  // The closed-form census used for Table 2 must agree with the switches
  // actually materialised in the graph.
  const std::uint64_t n = 512;
  const auto rows = run_overhead_analysis(n);
  for (const auto& row : rows) {
    if (row.point.t == 0) continue;
    const auto topo = build_point(row.point, n);
    EXPECT_EQ(row.estimate.num_switches, topo->graph().num_switches())
        << row.point.config_name();
  }
}

TEST(DistanceAnalysis, SmallScaleSanity) {
  DistanceAnalysisConfig config;
  config.num_nodes = 512;  // (8,8,8): every t in {2,4,8} is valid
  config.sample_pairs = 1u << 20;  // exact at this size
  config.threads = 2;
  const auto rows = run_distance_analysis(config);
  ASSERT_EQ(rows.size(), 26u);
  for (const auto& row : rows) {
    ASSERT_TRUE(row.valid) << row.point.config_name();
    EXPECT_GT(row.average, 0.0) << row.point.config_name();
    EXPECT_GE(static_cast<double>(row.diameter), row.average);
    EXPECT_TRUE(row.exact);
  }
  // The torus has by far the longest average distance of the matrix.
  double torus_avg = 0.0, fattree_avg = 0.0;
  for (const auto& row : rows) {
    if (row.point.label == "Torus3D") torus_avg = row.average;
    if (row.point.label == "Fattree") fattree_avg = row.average;
  }
  EXPECT_GT(torus_avg, fattree_avg);
}

TEST(SimulationSweep, NormalisesToFattree) {
  SimulationSweepConfig config;
  config.num_nodes = 128;
  config.workloads = {"reduce", "allreduce"};
  config.t_values = {2};
  config.u_values = {2};
  config.threads = 2;
  const auto cells = run_simulation_sweep(config);
  ASSERT_EQ(cells.size(), 2u * 4u);  // 2 workloads x (2 nested + 2 refs)
  for (const auto& cell : cells) {
    EXPECT_GT(cell.result.makespan, 0.0);
    if (cell.point.label == "Fattree") {
      EXPECT_DOUBLE_EQ(cell.normalized_time, 1.0);
    } else {
      EXPECT_GT(cell.normalized_time, 0.0);
    }
  }
}

TEST(SimulationSweep, IdenticalTrafficAcrossTopologies) {
  // Reduce is consumption-bound: every topology must land on the same
  // makespan, which also proves all topologies saw the same program.
  SimulationSweepConfig config;
  config.num_nodes = 128;
  config.workloads = {"reduce"};
  config.t_values = {2, 4};
  config.u_values = {1, 8};
  const auto cells = run_simulation_sweep(config);
  for (const auto& cell : cells) {
    EXPECT_NEAR(cell.normalized_time, 1.0, 1e-6) << cell.point.config_name();
  }
}

TEST(DistanceAnalysis, SkipsUnsupportedPointsGracefully) {
  DistanceAnalysisConfig config;
  config.num_nodes = 128;  // (8,4,4): t=8 cannot tile the 4s
  config.sample_pairs = 1000;
  const auto rows = run_distance_analysis(config);
  std::size_t skipped = 0;
  for (const auto& row : rows) {
    if (!row.valid) {
      EXPECT_EQ(row.point.t, 8u);
      ++skipped;
    }
  }
  EXPECT_EQ(skipped, 8u);  // 4 u-values x 2 upper tiers
}

TEST(SimulationSweep, RejectsEmptyWorkloads) {
  SimulationSweepConfig config;
  config.num_nodes = 128;
  EXPECT_THROW((void)run_simulation_sweep(config), std::invalid_argument);
}

TEST(SimulationSweep, DeterministicAcrossThreadCounts) {
  SimulationSweepConfig base;
  base.num_nodes = 128;
  base.workloads = {"unstructured-app"};
  base.t_values = {2};
  base.u_values = {4};
  base.threads = 1;
  auto serial = run_simulation_sweep(base);
  base.threads = 4;
  auto parallel = run_simulation_sweep(base);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].result.makespan, parallel[i].result.makespan);
  }
}

}  // namespace
}  // namespace nestflow
