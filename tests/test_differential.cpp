// Differential suite: FlowEngine at solver_threads 0, 1, 2, 4 and 8 against
// the ReferenceEngine (src/verify/reference_engine.hpp), which re-routes
// every activation and re-solves every active flow from scratch each event
// and shares none of FlowEngine's incremental solve, route and solve
// caches, dispatch kernel or sharding.
//
// Every physical SimResult field, per-flow finish times included, must be
// equal with plain == across all eleven paper workloads on seven topology
// families, quantisation with hop latency, static faults, a fault timeline
// under each recovery policy, weighted flows and warm replays. The work
// counters (solver rounds, route- and solve-cache hits and misses) have no
// reference counterpart; they must instead be equal across every thread
// count, 1 included.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "flowsim/engine.hpp"
#include "resilience/fault_model.hpp"
#include "resilience/fault_router.hpp"
#include "resilience/fault_timeline.hpp"
#include "topo/factory.hpp"
#include "topo/torus.hpp"
#include "util/prng.hpp"
#include "verify/reference_engine.hpp"
#include "workloads/factory.hpp"

namespace nestflow {
namespace {

using verify::ReferenceEngine;

constexpr std::uint32_t kThreadCounts[] = {0, 1, 2, 4, 8};
constexpr double kBps = kDefaultLinkBps;

const std::vector<std::string>& family_specs() {
  static const std::vector<std::string> specs = {
      "torus:4x4x2",     "fattree:4,4",    "thintree:4,2,2",
      "nesttree:64,2,2", "nestghc:64,2,2", "dragonfly:2,4,2",
      "jellyfish:24,2,4,7"};
  return specs;
}

TrafficProgram generate(const Topology& topology, const std::string& spec) {
  WorkloadContext context;
  context.num_tasks = topology.num_endpoints();
  context.seed = hash_combine(42, std::hash<std::string>{}(spec));
  return make_workload(spec)->generate(context);
}

/// Some workloads reject some machine sizes (e.g. recursive doubling wants
/// a power of two); such cells are skipped exactly as the sweep driver does.
std::optional<TrafficProgram> try_generate(const Topology& topology,
                                           const std::string& spec) {
  try {
    return generate(topology, spec);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

/// Every physical SimResult field, bit for bit.
void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.makespan, b.makespan) << context;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << context;
  EXPECT_EQ(a.num_flows, b.num_flows) << context;
  EXPECT_EQ(a.events, b.events) << context;
  EXPECT_EQ(a.max_link_utilization, b.max_link_utilization) << context;
  EXPECT_EQ(a.avg_active_flows, b.avg_active_flows) << context;
  EXPECT_EQ(a.peak_active_flows, b.peak_active_flows) << context;
  EXPECT_EQ(a.bytes_by_class, b.bytes_by_class) << context;
  EXPECT_EQ(a.stranded_flows, b.stranded_flows) << context;
  EXPECT_EQ(a.cancelled_flows, b.cancelled_flows) << context;
  EXPECT_EQ(a.rerouted_flows, b.rerouted_flows) << context;
  EXPECT_EQ(a.reroute_extra_hops, b.reroute_extra_hops) << context;
  EXPECT_EQ(a.fault_events_applied, b.fault_events_applied) << context;
  EXPECT_EQ(a.recovered_flows, b.recovered_flows) << context;
  EXPECT_EQ(a.flow_retries, b.flow_retries) << context;
  EXPECT_EQ(a.undelivered_bytes, b.undelivered_bytes) << context;
  ASSERT_EQ(a.flow_finish_times.size(), b.flow_finish_times.size()) << context;
  for (std::size_t f = 0; f < a.flow_finish_times.size(); ++f) {
    // NaN marks stranded/cancelled flows; compare presence, not value.
    if (std::isnan(a.flow_finish_times[f])) {
      EXPECT_TRUE(std::isnan(b.flow_finish_times[f])) << context << " f" << f;
    } else {
      EXPECT_EQ(a.flow_finish_times[f], b.flow_finish_times[f])
          << context << " f" << f;
    }
  }
}

void expect_same_counters(const SimResult& a, const SimResult& b,
                          const std::string& context) {
  EXPECT_EQ(a.solver_rounds, b.solver_rounds) << context;
  EXPECT_EQ(a.route_cache_hits, b.route_cache_hits) << context;
  EXPECT_EQ(a.route_cache_misses, b.route_cache_misses) << context;
  EXPECT_EQ(a.solve_cache_hits, b.solve_cache_hits) << context;
  EXPECT_EQ(a.solve_cache_misses, b.solve_cache_misses) << context;
}

/// Deterministic routing (so the route and solve caches engage) with
/// per-flow finish times recorded.
EngineOptions differential_options(EngineOptions options) {
  options.adaptive_routing = false;
  options.record_flow_times = true;
  return options;
}

/// Runs `run(options)` on the reference and on FlowEngine at every thread
/// count: physics against the reference, counters against threads = 0.
/// `run` builds its own engine of the given type (fault timelines mutate
/// the fault model, so every run needs fresh fault state).
template <typename Run>
std::vector<SimResult> check_thread_counts(const std::string& context,
                                           EngineOptions options, Run&& run) {
  options = differential_options(options);
  const SimResult want = run.template operator()<ReferenceEngine>(options);
  std::vector<SimResult> results;
  for (const std::uint32_t threads : kThreadCounts) {
    options.solver_threads = threads;
    results.push_back(run.template operator()<FlowEngine>(options));
    const std::string where =
        context + " @ solver_threads=" + std::to_string(threads);
    expect_identical(want, results.back(), where);
    expect_same_counters(results.front(), results.back(), where);
  }
  return results;
}

/// check_thread_counts for a static scenario: `faults` (if any) applied as
/// capacity factors before the run.
std::vector<SimResult> check_static(const Topology& topology,
                                    const TrafficProgram& program,
                                    const std::string& context,
                                    EngineOptions options = {},
                                    const FaultModel* faults = nullptr) {
  return check_thread_counts(
      context, options,
      [&]<typename Engine>(const EngineOptions& engine_options) {
        Engine engine(topology, engine_options);
        if (faults != nullptr) faults->apply(engine);
        return engine.run(program);
      });
}

TEST(ParallelSolve, BitIdenticalAcrossWorkloadsAndFamilies) {
  for (const auto& family : family_specs()) {
    const auto topo = make_topology(family);
    for (const auto& spec : all_workload_names()) {
      const auto program = try_generate(*topo, spec);
      if (!program) continue;
      check_static(*topo, *program, family + " x " + spec);
    }
  }
}

TEST(ParallelSolve, BitIdenticalWithQuantizationAndLatency) {
  // Quantisation forces frequent whole-set rate changes; hop latency
  // exercises the max(latency, transfer) branch of the predicted finish
  // times the dispatch index orders by.
  EngineOptions options;
  options.rate_quantum_rel = 0.05;
  options.hop_latency_seconds = 1e-6;
  for (const auto& family : family_specs()) {
    const auto topo = make_topology(family);
    for (const std::string spec : {"allreduce", "sweep3d", "nearneighbors"}) {
      const auto program = try_generate(*topo, spec);
      if (!program) continue;
      check_static(*topo, *program, family + " x " + spec + " (quantised)",
                   options);
    }
  }
}

TEST(ParallelSolve, BitIdenticalUnderFaults) {
  for (const auto& family : family_specs()) {
    const auto plain = make_topology(family);
    for (const std::uint64_t seed : {7ull, 8ull}) {
      const auto faults =
          FaultModel::random_cable_faults(plain->graph(), 0.05, seed);
      const FaultAwareRouter routed(*plain, faults);
      for (const std::string spec : {"unstructured-app", "reduce", "sweep3d"}) {
        const std::string where =
            family + " x " + spec + " (seed " + std::to_string(seed) + ")";
        // Dead links on a fault-oblivious topology: flows strand mid-run
        // through the zero-rate recovery path.
        check_static(*plain, generate(*plain, spec), where + " dead links",
                     {}, &faults);
        // Same faults behind a FaultAwareRouter: detours make routes
        // dynamic, so both caches sit out.
        EngineOptions options;
        options.recovery_policy = RecoveryPolicy::kReroute;
        const auto results = check_static(
            routed, generate(routed, spec), where + " fault-aware", options,
            &faults);
        EXPECT_EQ(results[0].route_cache_hits + results[0].route_cache_misses,
                  0u)
            << where;
        EXPECT_EQ(results[0].solve_cache_hits + results[0].solve_cache_misses,
                  0u)
            << where;
      }
    }
  }
}

/// Weighted flows are not bit-exactly exchangeable inside a solver round,
/// so the solve cache sits out; the route cache is weight-oblivious and
/// stays engaged.
TEST(ParallelSolve, BitIdenticalWithWeightedFlows) {
  for (const std::string family : {"nestghc:64,2,2", "fattree:4,4"}) {
    const auto topo = make_topology(family);
    TrafficProgram program = generate(*topo, "unstructured-app");
    for (FlowIndex f = 0; f < program.num_flows(); f += 3) {
      program.set_flow_weight(f, 4.0);
    }
    const auto results =
        check_static(*topo, program, family + " weighted unstructured-app");
    EXPECT_EQ(results[0].solve_cache_hits + results[0].solve_cache_misses, 0u)
        << family;
    EXPECT_GT(results[0].route_cache_hits, 0u) << family;
  }
}

/// Fault and repair events interleaved with completions: mid-run capacity
/// edits on the dirty tracking, and every recovery policy's enumeration
/// order.
TEST(ParallelSolve, TimelineRunsBitIdenticalAcrossThreadCounts) {
  struct PolicyCase {
    RecoveryPolicy policy;
    const char* name;
    bool fault_aware;  // wrap the topology in a FaultAwareRouter
  };
  const PolicyCase cases[] = {
      {RecoveryPolicy::kStrand, "strand", false},
      {RecoveryPolicy::kReroute, "reroute", true},
      {RecoveryPolicy::kRestartBackoff, "restart", false},
  };
  for (const auto& family : family_specs()) {
    const auto topo = make_topology(family);
    const TrafficProgram program = generate(*topo, "unstructured-app");
    // The healthy makespan calibrates the failure process so that several
    // fail/repair events land inside the run, not after it.
    FlowEngine healthy_engine(*topo, differential_options({}));
    const double healthy = healthy_engine.run(program).makespan;
    const double num_cables = topo->graph().num_transit_links() / 2.0;
    FaultProcessParams params;
    params.horizon_seconds = healthy;
    params.cable_mtbf_seconds = num_cables * healthy / 4.0;  // ~4 failures
    params.endpoint_mtbf_seconds =
        topo->num_endpoints() * healthy / 2.0;  // ~2 failures
    params.mttr_seconds = healthy / 4.0;
    const FaultTimeline timeline = FaultTimeline::poisson(
        topo->graph(), params,
        hash_combine(99, std::hash<std::string>{}(family)));
    ASSERT_FALSE(timeline.empty()) << family;

    for (const auto& pc : cases) {
      EngineOptions options;
      options.recovery_policy = pc.policy;
      options.retry_backoff_seconds = healthy / 8.0;
      options.max_retries = 2;
      const auto results = check_thread_counts(
          family + " [" + pc.name + "]", options,
          [&]<typename Engine>(const EngineOptions& engine_options) {
            FaultModel faults(topo->graph());
            std::optional<FaultAwareRouter> router;
            if (pc.fault_aware) router.emplace(*topo, faults);
            TimelineFaultDriver driver(timeline, faults);
            const Topology& net =
                pc.fault_aware ? static_cast<const Topology&>(*router) : *topo;
            Engine engine(net, engine_options);
            return engine.run(program, driver);
          });
      EXPECT_GT(results[0].fault_events_applied, 0u) << family << pc.name;
    }
  }
}

/// The route and solve caches persist across run() calls on one engine;
/// warm runs must replay the reference exactly and route and solve entirely
/// from cache.
TEST(ParallelSolve, WarmRunsReplayColdRunExactly) {
  for (const std::string family : {"nestghc:64,2,2", "fattree:4,4"}) {
    const auto topo = make_topology(family);
    for (const std::string spec : {"sweep3d", "nearneighbors", "allreduce"}) {
      const TrafficProgram program = generate(*topo, spec);
      const std::string context = family + " x " + spec;
      std::vector<SimResult> warm_runs;
      check_thread_counts(
          context, {},
          [&]<typename Engine>(const EngineOptions& options) {
            Engine engine(*topo, options);
            const SimResult cold = engine.run(program);
            if constexpr (std::is_same_v<Engine, FlowEngine>) {
              EXPECT_GT(cold.solve_cache_hits + cold.solve_cache_misses, 0u)
                  << context;
              for (int warm = 0; warm < 2; ++warm) {
                warm_runs.push_back(engine.run(program));
                const SimResult& again = warm_runs.back();
                expect_identical(cold, again, context + " (warm)");
                EXPECT_EQ(again.route_cache_misses, 0u) << context;
                EXPECT_EQ(again.solve_cache_misses, 0u) << context;
                EXPECT_GT(again.solve_cache_hits, 0u) << context;
              }
            }
            return cold;
          });
      // Two warm runs per thread count: the k-th of each must agree.
      for (std::size_t i = 2; i < warm_runs.size(); ++i) {
        expect_same_counters(warm_runs[i % 2], warm_runs[i],
                             context + " (warm counters)");
      }
    }
  }
}

/// Capacity edits between runs must invalidate memoized rates (capacity
/// bits are part of every solve-cache key).
TEST(Incremental, CapacityChangesInvalidateMemoizedRates) {
  const auto topo = make_topology("torus:4x4x2");
  const TrafficProgram program = generate(*topo, "unstructured-app");
  const EngineOptions options = differential_options({});
  const LinkId degraded = topo->graph().injection_link(0);

  FlowEngine reused(*topo, options);
  (void)reused.run(program);  // warm caches at nominal capacity
  reused.set_capacity_factor(degraded, 0.5);
  ReferenceEngine reference(*topo, options);
  reference.set_capacity_factor(degraded, 0.5);
  expect_identical(reference.run(program), reused.run(program),
                   "degraded torus");

  reused.reset_capacity_factors();
  reference.reset_capacity_factors();
  expect_identical(reference.run(program), reused.run(program),
                   "restored torus");
}

/// One run of a single 1-hop flow on an 8-ring whose cable dies at
/// `fail_at`. Fresh topology, fault model and timeline per run.
template <typename Engine>
SimResult run_ring_timeline(double fail_at, double bytes,
                            EngineOptions options) {
  const TorusTopology ring({8});
  FaultTimeline timeline;
  timeline.fail_cable(fail_at, ring.graph().find_link(1, 0));
  FaultModel faults(ring.graph());
  TimelineFaultDriver driver(timeline, faults);
  Engine engine(ring, options);
  TrafficProgram program;
  program.add_flow(1, 0, bytes);
  return engine.run(program, driver);
}

TEST(DispatchZeroRate, TimelineZeroRateFlowSurvivesTheScan) {
  // Cable dies mid-transfer: the flow reaches the completion scan holding
  // rate 0 with bytes remaining. The scan must not divide 0 bytes/s into
  // the residual (inf/NaN finish time) — the zero-rate guard hands the
  // flow to recovery instead.
  const auto results = check_thread_counts(
      "mid-transfer kill", {},
      [&]<typename Engine>(const EngineOptions& options) {
        return run_ring_timeline<Engine>(0.25, kBps, options);
      });
  const SimResult& result = results[0];
  EXPECT_EQ(result.stranded_flows, 1u);
  // Stranding charges the flow's whole payload as undelivered (the partial
  // transfer is not counted as goodput), matching the FaultTimeline
  // accounting convention.
  EXPECT_DOUBLE_EQ(result.undelivered_bytes, kBps);
  EXPECT_NEAR(result.makespan, 0.25, 1e-9);
}

TEST(DispatchZeroRate, ZeroRateLatencyTailStillCompletes) {
  // Pipeline-fill tail: hop latency (1 s) outlives the transfer (0.5 s), so
  // after t = 0.5 the flow sits active with remaining == 0 waiting out its
  // fill. Killing the cable at t = 0.7 then zeroes its rate — remaining == 0
  // AND rate == 0, the exact 0/0 NaN shape the guard exists for. All bytes
  // were already delivered, so the flow must NOT strand: it completes on
  // latency alone at t = 1.0.
  EngineOptions options;
  options.hop_latency_seconds = 1.0;
  const auto results = check_thread_counts(
      "latency tail", options,
      [&]<typename Engine>(const EngineOptions& engine_options) {
        return run_ring_timeline<Engine>(0.7, 0.5 * kBps, engine_options);
      });
  const SimResult& result = results[0];
  EXPECT_EQ(result.stranded_flows, 0u);
  EXPECT_DOUBLE_EQ(result.undelivered_bytes, 0.0);
  EXPECT_NEAR(result.makespan, 1.0, 1e-9);
}

}  // namespace
}  // namespace nestflow
