#include "flowsim/flow.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace nestflow {
namespace {

TEST(TrafficProgram, AddFlowAssignsSequentialIds) {
  TrafficProgram program;
  EXPECT_EQ(program.add_flow(0, 1, 10.0), 0u);
  EXPECT_EQ(program.add_flow(1, 2, 20.0), 1u);
  EXPECT_EQ(program.num_flows(), 2u);
  EXPECT_EQ(program.flow(1).src, 1u);
  EXPECT_EQ(program.flow(1).dst, 2u);
  EXPECT_DOUBLE_EQ(program.flow(1).bytes, 20.0);
}

TEST(TrafficProgram, NegativeBytesRejected) {
  TrafficProgram program;
  EXPECT_THROW(program.add_flow(0, 1, -1.0), std::invalid_argument);
}

TEST(TrafficProgram, SyncFlowsCarryNoBytes) {
  TrafficProgram program;
  const auto s = program.add_sync();
  EXPECT_TRUE(program.flow(s).is_sync);
  EXPECT_DOUBLE_EQ(program.total_bytes(), 0.0);
  EXPECT_EQ(program.num_data_flows(), 0u);
}

TEST(TrafficProgram, TotalBytesSumsDataFlowsOnly) {
  TrafficProgram program;
  program.add_flow(0, 1, 10.0);
  program.add_sync();
  program.add_flow(1, 0, 5.0);
  EXPECT_DOUBLE_EQ(program.total_bytes(), 15.0);
  EXPECT_EQ(program.num_data_flows(), 2u);
}

TEST(TrafficProgram, SelfDependencyRejected) {
  TrafficProgram program;
  const auto f = program.add_flow(0, 1, 1.0);
  EXPECT_THROW(program.add_dependency(f, f), std::invalid_argument);
}

TEST(TrafficProgram, BarrierWiresBothSides) {
  TrafficProgram program;
  const auto a = program.add_flow(0, 1, 1.0);
  const auto b = program.add_flow(1, 2, 1.0);
  const auto c = program.add_flow(2, 3, 1.0);
  const std::vector<FlowIndex> before = {a, b};
  const std::vector<FlowIndex> after = {c};
  const auto sync = program.add_barrier(before, after);
  EXPECT_TRUE(program.flow(sync).is_sync);
  ASSERT_EQ(program.dependencies().size(), 3u);
  EXPECT_EQ(program.dependencies()[0], std::make_pair(a, sync));
  EXPECT_EQ(program.dependencies()[1], std::make_pair(b, sync));
  EXPECT_EQ(program.dependencies()[2], std::make_pair(sync, c));
}

TEST(TrafficProgram, ValidateChecksEndpointRange) {
  TrafficProgram program;
  program.add_flow(0, 9, 1.0);
  EXPECT_THROW(program.validate(4), std::invalid_argument);
  EXPECT_NO_THROW(program.validate(10));
}

TEST(TrafficProgram, ValidateNamesOutOfRangeFlowAddedAfterInRangeOnes) {
  TrafficProgram program;
  program.add_flow(0, 1, 1.0);
  program.add_sync();
  program.add_flow(3, 2, 1.0);
  EXPECT_NO_THROW(program.validate(4));
  program.add_flow(1, 4, 1.0);
  program.add_flow(5, 0, 1.0);
  try {
    program.validate(4);
    FAIL() << "endpoint 4 of flow 3 is out of range";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "TrafficProgram: flow 3 references endpoint out of range");
  }
  EXPECT_NO_THROW(program.validate(6));
}

TEST(TrafficProgram, UnitWeightsFollowSetFlowWeight) {
  TrafficProgram program;
  const auto a = program.add_flow(0, 1, 1.0);
  const auto b = program.add_flow(1, 0, 1.0);
  EXPECT_TRUE(program.unit_weights());
  program.set_flow_weight(a, 2.0);
  program.set_flow_weight(a, 3.0);  // still one flow whose weight is not 1
  program.set_flow_weight(b, 0.5);
  EXPECT_FALSE(program.unit_weights());
  program.set_flow_weight(a, 1.0);
  EXPECT_FALSE(program.unit_weights());
  program.set_flow_weight(b, 1.0);
  EXPECT_TRUE(program.unit_weights());
  program.set_flow_weight(b, 1.0);  // 1 -> 1 changes nothing
  EXPECT_TRUE(program.unit_weights());
  EXPECT_THROW(program.set_flow_weight(a, 0.0), std::invalid_argument);
  EXPECT_TRUE(program.unit_weights());  // a rejected weight is not applied
}

TEST(TrafficProgram, ValidateIgnoresSyncEndpoints) {
  TrafficProgram program;
  program.add_sync();
  EXPECT_NO_THROW(program.validate(1));
}

TEST(TrafficProgram, SelfFlowAllowed) {
  TrafficProgram program;
  program.add_flow(3, 3, 1.0);
  EXPECT_NO_THROW(program.validate(4));
}

}  // namespace
}  // namespace nestflow
