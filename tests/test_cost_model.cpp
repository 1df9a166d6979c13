#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include "core/system_model.hpp"

namespace nestflow {
namespace {

TEST(CostModel, ReproducesTable2Exactly) {
  // Every (switches -> cost%, power%) entry of the paper's Table 2 at
  // N = 131,072 QFDBs, to the printed 2-decimal precision.
  const struct {
    std::uint64_t switches;
    double cost_percent;
    double power_percent;
  } kTable2[] = {
      {2048, 1.17, 0.39}, {3072, 1.76, 0.59}, {5120, 2.93, 0.98},
      {8192, 4.69, 1.56}, {9216, 5.27, 1.76},
  };
  for (const auto& row : kTable2) {
    const auto estimate = estimate_overhead(131072, row.switches);
    EXPECT_NEAR(estimate.cost_increase * 100.0, row.cost_percent, 0.005)
        << row.switches << " switches";
    EXPECT_NEAR(estimate.power_increase * 100.0, row.power_percent, 0.005)
        << row.switches << " switches";
  }
}

TEST(CostModel, ScalesLinearlyInSwitches) {
  const auto one = estimate_overhead(1000, 10);
  const auto two = estimate_overhead(1000, 20);
  EXPECT_DOUBLE_EQ(two.cost_increase, 2.0 * one.cost_increase);
  EXPECT_DOUBLE_EQ(two.power_increase, 2.0 * one.power_increase);
}

TEST(CostModel, ZeroSwitchesZeroOverhead) {
  const auto estimate = estimate_overhead(1000, 0);
  EXPECT_DOUBLE_EQ(estimate.cost_increase, 0.0);
  EXPECT_DOUBLE_EQ(estimate.power_increase, 0.0);
}

TEST(CostModel, CustomRatios) {
  CostModel model;
  model.switch_cost_ratio = 1.5;
  model.switch_power_ratio = 0.5;
  const auto estimate = estimate_overhead(100, 10, model);
  EXPECT_DOUBLE_EQ(estimate.cost_increase, 0.15);
  EXPECT_DOUBLE_EQ(estimate.power_increase, 0.05);
}

TEST(CostModel, ZeroQfdbsRejected) {
  EXPECT_THROW(static_cast<void>(estimate_overhead(0, 10)),
               std::invalid_argument);
}

TEST(SystemModel, PackagingArithmetic) {
  ExaNestSystem system;
  system.num_qfdbs = 131072;
  EXPECT_EQ(system.num_mpsocs(), 131072u * 4u);
  EXPECT_EQ(system.num_blades(), 8192u);
  // The paper: "131,072 QFDBs (or around 50 cabinets)".
  EXPECT_EQ(system.num_cabinets(), 50u);
}

TEST(SystemModel, RoundsBladesUp) {
  ExaNestSystem system;
  system.num_qfdbs = 17;
  EXPECT_EQ(system.num_blades(), 2u);
}

TEST(SystemModel, ToStringMentionsCounts) {
  ExaNestSystem system;
  system.num_qfdbs = 128;
  const auto text = system.to_string();
  EXPECT_NE(text.find("128 QFDBs"), std::string::npos);
  EXPECT_NE(text.find("512 MPSoCs"), std::string::npos);
}

}  // namespace
}  // namespace nestflow
