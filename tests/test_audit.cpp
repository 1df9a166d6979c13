// Tests of the runtime invariant auditor (src/verify/invariant_auditor.*)
// and the structured EngineError the engine throws on abnormal exits.
#include "verify/invariant_auditor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "flowsim/engine.hpp"
#include "resilience/fault_model.hpp"
#include "resilience/fault_router.hpp"
#include "topo/factory.hpp"
#include "verify/reference_engine.hpp"
#include "workloads/factory.hpp"

namespace nestflow {
namespace {

using verify::AuditError;
using verify::AuditorOptions;
using verify::InvariantAuditor;

TrafficProgram make_program(const std::string& workload_name,
                            std::uint32_t tasks, std::uint64_t seed = 1) {
  const auto workload = make_workload(workload_name);
  WorkloadContext ctx;
  ctx.num_tasks = tasks;
  ctx.seed = seed;
  return workload->generate(ctx);
}

TEST(Audit, PerEventAuditPassesOnHealthyRun) {
  const auto topo = make_topology("fattree:8,4");
  FlowEngine engine(*topo);
  InvariantAuditor auditor;
  engine.set_auditor(&auditor);
  const auto result = engine.run(make_program("nbodies", 32));
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_EQ(auditor.runs_audited(), 1u);
  EXPECT_GT(auditor.events_audited(), 0u);
}

TEST(Audit, AuditsQuantisedWeightedAdaptiveRuns) {
  // The saturation oracle must widen its tolerance to the engine's rate
  // quantum; weighted flows exercise the share (rate/weight) certificate.
  const auto topo = make_topology("thintree:4,2,2");
  EngineOptions options;
  options.rate_quantum_rel = 0.01;
  options.adaptive_routing = true;
  FlowEngine engine(*topo, options);
  InvariantAuditor auditor;
  engine.set_auditor(&auditor);
  auto program = make_program("allreduce", 16);
  for (FlowIndex f = 0; f < program.num_flows(); ++f) {
    program.set_flow_weight(f, 1.0 + static_cast<double>(f % 4));
  }
  (void)engine.run(program);
  EXPECT_GT(auditor.events_audited(), 0u);
}

TEST(Audit, TamperedCapacityTriggersCapacityOracle) {
  // Auditing against shrunken capacities is indistinguishable from an
  // engine that oversubscribes real ones — the oracle must fire. This is
  // the harness's own smoke test (can it catch an injected bug?).
  const auto topo = make_topology("torus:4x4");
  FlowEngine engine(*topo);
  AuditorOptions tampered;
  tampered.capacity_tamper_factor = 0.5;
  InvariantAuditor auditor(tampered);
  engine.set_auditor(&auditor);
  try {
    (void)engine.run(make_program("flood", 16));
    FAIL() << "tampered audit did not fire";
  } catch (const AuditError& error) {
    EXPECT_EQ(error.oracle(), "capacity");
    EXPECT_NE(std::string(error.what()).find("capacity"), std::string::npos);
  }
}

TEST(Audit, StaticFaultReferenceChecksEffectiveCapacities) {
  const auto topo = make_topology("fattree:8,4");
  // Kill the cable of the first transit link in the graph.
  FaultModel model(topo->graph());
  LinkId transit = kInvalidLink;
  for (LinkId l = 0; l < topo->graph().num_links(); ++l) {
    const LinkClass cls = topo->graph().link(l).link_class;
    if (cls != LinkClass::kInjection && cls != LinkClass::kConsumption) {
      transit = l;
      break;
    }
  }
  ASSERT_NE(transit, kInvalidLink);
  model.kill_cable(transit);

  FaultAwareRouter router(*topo, model);
  FlowEngine engine(router);
  model.apply(engine);

  InvariantAuditor auditor;
  auditor.set_fault_reference(&model);
  engine.set_auditor(&auditor);
  // The dead cable is an endpoint's only uplink, so its flows legitimately
  // strand; the point here is that the auditor's fault-reference
  // cross-check (effective capacities == nominal x model factor, zeroed
  // NICs on dead endpoints) and the end-state byte accounting both hold on
  // a degraded fabric.
  const auto result = engine.run(make_program("bisection", 16));
  EXPECT_EQ(auditor.runs_audited(), 1u);
  EXPECT_GT(auditor.events_audited(), 0u);
  EXPECT_GT(result.stranded_flows + result.cancelled_flows, 0u);
  EXPECT_GT(result.undelivered_bytes, 0.0);
}

TEST(Audit, PerEventAuditDoesNotPerturbResults) {
  const auto topo = make_topology("dragonfly:2,2,2");
  const auto program = make_program("unstructured-hr", 16, 7);

  FlowEngine plain(*topo);
  const auto baseline = plain.run(program);

  FlowEngine audited(*topo);
  InvariantAuditor auditor;
  audited.set_auditor(&auditor);
  const auto result = audited.run(program);

  EXPECT_EQ(verify::physical_difference(baseline, result), std::nullopt);
  EXPECT_EQ(result.solver_rounds, baseline.solver_rounds);
  EXPECT_GT(auditor.events_audited(), 0u);
}

TEST(EngineErrorTest, MaxEventsCarriesSnapshot) {
  const auto topo = make_topology("torus:4x4");
  EngineOptions options;
  options.max_events = 1;
  FlowEngine engine(*topo, options);
  try {
    (void)engine.run(make_program("unstructured-app", 16));
    FAIL() << "max_events=1 did not abort";
  } catch (const EngineError& error) {
    EXPECT_EQ(error.kind(), EngineError::Kind::kMaxEventsExceeded);
    EXPECT_GE(error.snapshot().events, 1u);
    EXPECT_GE(error.snapshot().active_flows, 1u);
    EXPECT_STRNE(error.snapshot().last_event, "");
    EXPECT_NE(std::string(error.what()).find("max_events"),
              std::string::npos);
  }
}

TEST(EngineErrorTest, IsARuntimeError) {
  // Call sites that caught std::runtime_error before the typed error keep
  // working.
  const auto topo = make_topology("torus:4x4");
  EngineOptions options;
  options.max_events = 1;
  FlowEngine engine(*topo, options);
  EXPECT_THROW((void)engine.run(make_program("unstructured-app", 16)),
               std::runtime_error);
}

}  // namespace
}  // namespace nestflow
