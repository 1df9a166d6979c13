#include "graph/distance_metrics.hpp"

#include <gtest/gtest.h>

#include "topo/torus.hpp"

namespace nestflow {
namespace {

TEST(DistanceMetrics, ExactOnRing) {
  // 8-ring: distances 1,2,3,4,3,2,1 from any node -> average 16/7.
  const TorusTopology ring({8});
  const auto report = exact_distance_report(ring.graph());
  EXPECT_TRUE(report.exact);
  EXPECT_EQ(report.diameter, 4u);
  EXPECT_NEAR(report.average, 16.0 / 7.0, 1e-12);
  EXPECT_EQ(report.pairs, 8u * 7u);
}

TEST(DistanceMetrics, ExactOnSmallTorus) {
  // 4x4 torus: per-dim distances {0,1,2,1}; average over non-equal pairs.
  const TorusTopology torus({4, 4});
  const auto report = exact_distance_report(torus.graph());
  EXPECT_EQ(report.diameter, 4u);
  // Sum over all ordered pairs = 16 * (sum_{dx,dy} (d(dx)+d(dy))) minus 0s:
  // per source: sum = 4*(0+1+2+1)*2 = 32 over 15 pairs.
  EXPECT_NEAR(report.average, 32.0 / 15.0, 1e-12);
}

TEST(DistanceMetrics, SampledFallsBackToExactWhenSaturated) {
  const TorusTopology torus({4, 4});
  const auto report = sampled_distance_report(torus.graph(), 1000, 1);
  EXPECT_TRUE(report.exact);
  EXPECT_EQ(report.diameter, 4u);
}

TEST(DistanceMetrics, SampledApproximatesExact) {
  const TorusTopology torus({8, 8, 8});
  const auto exact = exact_distance_report(torus.graph());
  const auto sampled = sampled_distance_report(torus.graph(), 64, 7);
  EXPECT_EQ(sampled.diameter, exact.diameter);  // double sweep finds it
  EXPECT_NEAR(sampled.average, exact.average, 0.05 * exact.average);
}

TEST(DistanceMetrics, DisconnectedEndpointsThrow) {
  GraphBuilder builder;
  builder.add_nodes(NodeKind::kEndpoint, 4);
  builder.add_duplex(0, 1, 1.0, LinkClass::kTorus);
  builder.add_duplex(2, 3, 1.0, LinkClass::kTorus);
  const Graph g = std::move(builder).build(1.0);
  EXPECT_THROW((void)exact_distance_report(g), std::runtime_error);
}

TEST(DistanceMetrics, RoutedExactMatchesTopological) {
  const TorusTopology torus({4, 4, 2});
  const auto topo = exact_distance_report(torus.graph());
  const auto routed = exact_routed_report(
      torus.num_endpoints(),
      [&](std::uint32_t s, std::uint32_t d) { return torus.route_length(s, d); });
  // DOR is minimal on the torus, so routed == topological exactly.
  EXPECT_DOUBLE_EQ(routed.average, topo.average);
  EXPECT_EQ(routed.diameter, topo.diameter);
}

TEST(DistanceMetrics, SampledRoutedUsesAdversarialPairs) {
  const TorusTopology torus({16, 16});
  const auto route_len = [&](std::uint32_t s, std::uint32_t d) {
    return torus.route_distance(s, d);
  };
  // With a tiny sample the diameter is likely missed...
  const auto blind = sampled_routed_report(torus.num_endpoints(), route_len,
                                           8, 5);
  // ...but the adversarial corner pair pins it down.
  const auto guided = sampled_routed_report(torus.num_endpoints(), route_len,
                                            8, 5, torus.adversarial_pairs());
  EXPECT_EQ(guided.diameter, 16u);
  EXPECT_LE(blind.diameter, guided.diameter);
}

TEST(DistanceMetrics, SampledRoutedSaturatesToExact) {
  const TorusTopology torus({4, 4});
  const auto route_len = [&](std::uint32_t s, std::uint32_t d) {
    return torus.route_distance(s, d);
  };
  const auto report = sampled_routed_report(torus.num_endpoints(), route_len,
                                            1'000'000, 1);
  EXPECT_TRUE(report.exact);
  EXPECT_EQ(report.diameter, 4u);
}

TEST(DistanceMetrics, HistogramMassMatchesPairs) {
  const TorusTopology torus({4, 4});
  const auto report = exact_distance_report(torus.graph());
  EXPECT_EQ(report.histogram.total(), report.pairs);
  EXPECT_EQ(report.histogram.max_value(), report.diameter);
}

}  // namespace
}  // namespace nestflow
