// Tests for the workload spec strings ("name:key=value,...").
#include <gtest/gtest.h>

#include "workloads/factory.hpp"

namespace nestflow {
namespace {

WorkloadContext ctx(std::uint32_t tasks) {
  WorkloadContext context;
  context.num_tasks = tasks;
  context.seed = 42;
  return context;
}

TEST(WorkloadSpec, PlainNameUsesDefaults) {
  const auto a = make_workload("allreduce")->generate(ctx(16));
  const auto b = make_workload("allreduce:bytes=65536")->generate(ctx(16));
  EXPECT_DOUBLE_EQ(a.flow(0).bytes, b.flow(0).bytes);  // default is 64 KiB
}

TEST(WorkloadSpec, BytesOverrideApplies) {
  const auto program =
      make_workload("allreduce:bytes=1048576")->generate(ctx(16));
  for (const auto& flow : program.flows()) {
    if (!flow.is_sync) {
      EXPECT_DOUBLE_EQ(flow.bytes, 1048576.0);
    }
  }
}

TEST(WorkloadSpec, MultipleOverrides) {
  const auto program =
      make_workload("bisection:bytes=4096,rounds=2")->generate(ctx(16));
  EXPECT_EQ(program.num_data_flows(), 2u * 16u);
  EXPECT_DOUBLE_EQ(program.flow(0).bytes, 4096.0);
}

TEST(WorkloadSpec, StencilIterations) {
  const auto program =
      make_workload("nearneighbors:iters=5")->generate(ctx(64));
  EXPECT_EQ(program.num_data_flows(), 64u * 6u * 5u);
}

TEST(WorkloadSpec, MapReducePhaseSizes) {
  const auto program =
      make_workload("mapreduce:scatter=100,shuffle=10,gather=1")
          ->generate(ctx(4));
  // First scatter flow, first shuffle flow, first gather flow.
  EXPECT_DOUBLE_EQ(program.flow(0).bytes, 100.0);
  double shuffle_bytes = 0.0, gather_bytes = 0.0;
  for (const auto& flow : program.flows()) {
    if (flow.is_sync) continue;
    if (flow.bytes == 10.0) shuffle_bytes = flow.bytes;
    if (flow.bytes == 1.0) gather_bytes = flow.bytes;
  }
  EXPECT_DOUBLE_EQ(shuffle_bytes, 10.0);
  EXPECT_DOUBLE_EQ(gather_bytes, 1.0);
}

TEST(WorkloadSpec, InjectionParameters) {
  const auto program =
      make_workload("uniform-injection:load=0.2,bytes=4096,duration=1e-4")
          ->generate(ctx(32));
  EXPECT_GT(program.num_data_flows(), 0u);
  for (const auto& flow : program.flows()) {
    EXPECT_DOUBLE_EQ(flow.bytes, 4096.0);
    EXPECT_LT(flow.release_seconds, 1e-4);
  }
}

TEST(WorkloadSpec, UnknownKeyRejected) {
  EXPECT_THROW((void)make_workload("allreduce:size=1"), std::invalid_argument);
  EXPECT_THROW((void)make_workload("reduce:bytes=1,bogus=2"),
               std::invalid_argument);
}

TEST(WorkloadSpec, MalformedSpecRejected) {
  EXPECT_THROW((void)make_workload("allreduce:bytes"), std::invalid_argument);
  EXPECT_THROW((void)make_workload("allreduce:=5"), std::invalid_argument);
}

TEST(WorkloadSpec, UnknownNameStillRejected) {
  EXPECT_THROW((void)make_workload("fft:bytes=1"), std::invalid_argument);
}

}  // namespace
}  // namespace nestflow
