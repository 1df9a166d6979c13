// Differential suite: FlowEngine against the ReferenceEngine
// (src/verify/reference_engine.hpp), which re-routes every activation and
// re-solves every active flow from scratch each event and shares none of
// FlowEngine's incremental solve, route and solve caches or dispatch
// kernel.
//
// Every physical SimResult field, per-flow finish times included, must be
// equal with plain == across all eleven paper workloads on seven topology
// families, quantisation with hop latency, static faults, a fault timeline
// under each recovery policy, weighted flows and warm replays.
#include <gtest/gtest.h>

#include <array>
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

/// Deterministic routing (so the route and solve caches engage) with
/// per-flow finish times recorded.
EngineOptions differential_options(EngineOptions options) {
  options.adaptive_routing = false;
  options.record_flow_times = true;
  return options;
}

/// Runs `run(options)` on the reference and on FlowEngine and checks that
/// the physics agree; returns FlowEngine's result. `run` builds its own
/// engine of the given type (fault timelines mutate the fault model, so
/// every run needs fresh fault state).
template <typename Run>
SimResult check_against_reference(const std::string& context,
                                  EngineOptions options, Run&& run) {
  options = differential_options(options);
  const SimResult want = run.template operator()<ReferenceEngine>(options);
  SimResult got = run.template operator()<FlowEngine>(options);
  EXPECT_EQ(verify::physical_difference(want, got), std::nullopt) << context;
  return got;
}

/// check_against_reference for a static scenario: `faults` (if any) applied
/// as capacity factors before the run.
SimResult check_static(const Topology& topology, const TrafficProgram& program,
                       const std::string& context, EngineOptions options = {},
                       const FaultModel* faults = nullptr) {
  return check_against_reference(
      context, options,
      [&]<typename Engine>(const EngineOptions& engine_options) {
        Engine engine(topology, engine_options);
        if (faults != nullptr) faults->apply(engine);
        return engine.run(program);
      });
}

TEST(Differential, BitIdenticalAcrossWorkloadsAndFamilies) {
  for (const auto& family : family_specs()) {
    const auto topo = make_topology(family);
    for (const auto& spec : all_workload_names()) {
      const auto program = try_generate(*topo, spec);
      if (!program) continue;
      check_static(*topo, *program, family + " x " + spec);
    }
  }
}

/// The engine settings of the paper drivers (bench/figure_common.hpp) and
/// of the benchmark's figure-cold workload, adaptive routing included —
/// the configuration the reproduction actually runs, which
/// differential_options() would otherwise switch to deterministic routing.
TEST(Differential, BitIdenticalAtFigureSettings) {
  for (const bool adaptive : {true, false}) {
    EngineOptions options;
    options.rate_quantum_rel = 0.01;
    options.completion_batch_rel = 1e-3;
    options.hop_latency_seconds = 1e-6;
    options.adaptive_routing = adaptive;
    options.record_flow_times = true;
    for (const auto& family : family_specs()) {
      const auto topo = make_topology(family);
      for (const auto& spec : all_workload_names()) {
        const auto program = try_generate(*topo, spec);
        if (!program) continue;
        ReferenceEngine reference(*topo, options);
        FlowEngine engine(*topo, options);
        EXPECT_EQ(verify::physical_difference(reference.run(*program),
                                              engine.run(*program)),
                  std::nullopt)
            << family + " x " + spec +
                   (adaptive ? " (adaptive)" : " (deterministic)");
      }
    }
  }
}

TEST(Differential, BitIdenticalWithQuantizationAndLatency) {
  // Quantisation forces frequent whole-set rate changes; hop latency
  // exercises the max(latency, transfer) branch of the predicted finish
  // times the dispatch kernel selects from.
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

TEST(Differential, BitIdenticalUnderFaults) {
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
        const SimResult result = check_static(
            routed, generate(routed, spec), where + " fault-aware", options,
            &faults);
        EXPECT_EQ(result.route_cache_hits + result.route_cache_misses, 0u)
            << where;
        EXPECT_EQ(result.solve_cache_hits + result.solve_cache_misses, 0u)
            << where;
      }
    }
  }
}

/// Weighted flows are not bit-exactly exchangeable inside a solver round,
/// so the solve cache sits out; the route cache is weight-oblivious and
/// stays engaged.
TEST(Differential, BitIdenticalWithWeightedFlows) {
  for (const std::string family : {"nestghc:64,2,2", "fattree:4,4"}) {
    const auto topo = make_topology(family);
    TrafficProgram program = generate(*topo, "unstructured-app");
    for (FlowIndex f = 0; f < program.num_flows(); f += 3) {
      program.set_flow_weight(f, 4.0);
    }
    const SimResult result =
        check_static(*topo, program, family + " weighted unstructured-app");
    EXPECT_EQ(result.solve_cache_hits + result.solve_cache_misses, 0u)
        << family;
    EXPECT_GT(result.route_cache_hits, 0u) << family;
  }
}

/// FlowEngine reads the program's running count of weights other than 1:
/// once every weight is set back to 1 the program is a unit-weight one
/// again, and the solve cache engages.
TEST(Differential, WeightsSetBackToOneReengageTheSolveCache) {
  for (const std::string family : {"nestghc:64,2,2", "fattree:4,4"}) {
    const auto topo = make_topology(family);
    TrafficProgram program = generate(*topo, "unstructured-app");
    for (FlowIndex f = 0; f < program.num_flows(); f += 3) {
      program.set_flow_weight(f, 4.0);
    }
    for (FlowIndex f = 0; f < program.num_flows(); f += 3) {
      program.set_flow_weight(f, 1.0);
    }
    const SimResult result =
        check_static(*topo, program, family + " reweighted unstructured-app");
    EXPECT_GT(result.solve_cache_hits + result.solve_cache_misses, 0u)
        << family;
  }
}

/// Fault and repair events interleaved with completions: mid-run capacity
/// edits on the dirty tracking, and every recovery policy's enumeration
/// order.
TEST(Differential, TimelineRunsBitIdenticalToReference) {
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
      const SimResult result = check_against_reference(
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
      EXPECT_GT(result.fault_events_applied, 0u) << family << pc.name;
    }
  }
}

/// A detach under kRestartBackoff can be the first reader of the incidence
/// lists. On static dead links a warm run hits the cold run's whole-set
/// entries, whose rates hold the dead links' zeros, so its zero-rate
/// recovery detaches flows that no walk or solve has linked yet, the
/// detached flow among them: the detach links them first, or the retried
/// flow would be queued twice and linked at its first activation's place
/// as well as its new one. Every run, cold or warm, must match the
/// ReferenceEngine. (With unit weights a misplaced or duplicated entry
/// changes no rate, so this pins that the path runs bit-identically;
/// Incidence.FlowQueuedTwiceIsRejected pins what a twice-queued flow does
/// to a batch.)
TEST(Differential, RestartDetachesOnWarmRunsLinkFirst) {
  for (const std::string family : {"nestghc:64,2,2", "fattree:4,4"}) {
    const auto topo = make_topology(family);
    const FaultModel faults =
        FaultModel::random_cable_faults(topo->graph(), 0.05, 7);
    for (const std::string spec : {"unstructured-app", "sweep3d"}) {
      const TrafficProgram program = generate(*topo, spec);
      const std::string context = family + " x " + spec;
      EngineOptions options;
      options.recovery_policy = RecoveryPolicy::kRestartBackoff;
      options.retry_backoff_seconds = 1e-4;
      options.max_retries = 2;
      check_against_reference(
          context, options,
          [&]<typename Engine>(const EngineOptions& engine_options) {
            Engine engine(*topo, engine_options);
            faults.apply(engine);
            const SimResult cold = engine.run(program);
            if constexpr (std::is_same_v<Engine, FlowEngine>) {
              EXPECT_GT(cold.flow_retries, 0u) << context;
              for (int warm = 0; warm < 2; ++warm) {
                const SimResult again = engine.run(program);
                EXPECT_EQ(verify::physical_difference(cold, again),
                          std::nullopt)
                    << context << " (warm)";
                EXPECT_GT(again.solve_cache_hits, 0u) << context;
              }
            }
            return cold;
          });
    }
  }
}

/// The route and solve caches persist across run() calls on one engine;
/// warm runs must replay the reference exactly and route and solve entirely
/// from cache. A warm run's departure-only events resume too: the one
/// after each hit on the round log the hit entry carries (DESIGN.md §11),
/// the later ones on the log that resume left. So a warm run freezes
/// exactly the bottleneck links the cold run's resumes froze, which are 7
/// on sweep3d @ nestghc:64,2,2 and none on the other cells. Before entries
/// carried logs, the departure after a hit solved afresh, and those two
/// cells' warm runs froze 31 links (sweep3d) and 193 (mapreduce @
/// nestghc:64,2,2).
TEST(Differential, WarmRunsReplayColdRunExactly) {
  const struct {
    const char* family;
    const char* workload;
    std::uint64_t warm_rounds;
  } cells[] = {{"nestghc:64,2,2", "sweep3d", 7},
               {"nestghc:64,2,2", "nearneighbors", 0},
               {"nestghc:64,2,2", "allreduce", 0},
               {"nestghc:64,2,2", "mapreduce", 0},
               {"fattree:4,4", "sweep3d", 0},
               {"fattree:4,4", "nearneighbors", 0},
               {"fattree:4,4", "allreduce", 0},
               {"fattree:4,4", "mapreduce", 0}};
  for (const auto& cell : cells) {
    const auto topo = make_topology(cell.family);
    const TrafficProgram program = generate(*topo, cell.workload);
    const std::string context =
        std::string(cell.family) + " x " + cell.workload;
    check_against_reference(
        context, {}, [&]<typename Engine>(const EngineOptions& options) {
          Engine engine(*topo, options);
          const SimResult cold = engine.run(program);
          if constexpr (std::is_same_v<Engine, FlowEngine>) {
            EXPECT_GT(cold.solve_cache_hits + cold.solve_cache_misses, 0u)
                << context;
            for (int warm = 0; warm < 2; ++warm) {
              const SimResult again = engine.run(program);
              EXPECT_EQ(verify::physical_difference(cold, again),
                        std::nullopt)
                  << context << " (warm)";
              EXPECT_EQ(again.route_cache_misses, 0u) << context;
              EXPECT_EQ(again.solve_cache_misses, 0u) << context;
              EXPECT_GT(again.solve_cache_hits, 0u) << context;
              EXPECT_EQ(again.solver_rounds, cell.warm_rounds) << context;
            }
          }
          return cold;
        });
  }
}

/// Two identical phases joined by a sync flow: sixteen flows of sixteen
/// sizes (eight of them into one hot endpoint), so each phase ends in
/// staggered departure-only events. The second phase poses the first
/// phase's first problem with other flow indices, so it hits the entry
/// the first phase stored and, through its departures, resumes the log
/// the first phase saved into it, restored under the new indices. Both
/// phases then freeze the same bottleneck links, 18 in the first phase's
/// fresh solve and 96 in either phase's resumes: a warm run of one phase
/// costs the 96, and the two-phase run costs one cold phase plus that.
/// (Solved afresh, the second phase's departures walk to their small
/// components and freeze 64 links.) Every run matches the reference.
TEST(Differential, SecondPhaseResumesTheFirstPhasesRestoredLog) {
  const auto topo = make_topology("nestghc:64,2,2");
  const auto add_phase = [](TrafficProgram& program) {
    std::vector<FlowIndex> phase;
    for (std::uint32_t i = 0; i < 16; ++i) {
      const std::uint32_t dst = i < 8 ? 63 : (i * 5 + 3) % 60;
      phase.push_back(program.add_flow(i, dst, 1e6 * (1 + i)));
    }
    return phase;
  };
  TrafficProgram one_phase;
  (void)add_phase(one_phase);
  TrafficProgram two_phases;
  const std::vector<FlowIndex> first = add_phase(two_phases);
  const FlowIndex sync = two_phases.add_barrier(first, {});
  for (const FlowIndex f : add_phase(two_phases)) {
    two_phases.add_dependency(sync, f);
  }

  const SimResult one = check_against_reference(
      "one phase", {}, [&]<typename Engine>(const EngineOptions& options) {
        Engine engine(*topo, options);
        const SimResult cold = engine.run(one_phase);
        if constexpr (std::is_same_v<Engine, FlowEngine>) {
          EXPECT_EQ(cold.solver_rounds, 18u + 96u);
          const SimResult warm = engine.run(one_phase);
          EXPECT_EQ(verify::physical_difference(cold, warm), std::nullopt);
          EXPECT_EQ(warm.solve_cache_hits, 1u);
          EXPECT_EQ(warm.solver_rounds, 96u);
        }
        return cold;
      });
  check_against_reference(
      "two phases", {}, [&]<typename Engine>(const EngineOptions& options) {
        Engine engine(*topo, options);
        const SimResult cold = engine.run(two_phases);
        if constexpr (std::is_same_v<Engine, FlowEngine>) {
          EXPECT_EQ(cold.events, 2 * one.events);
          EXPECT_EQ(cold.solve_cache_misses, 1u);
          EXPECT_EQ(cold.solve_cache_hits, 1u);
          EXPECT_EQ(cold.solver_rounds, one.solver_rounds + 96u);
          const SimResult warm = engine.run(two_phases);
          EXPECT_EQ(verify::physical_difference(cold, warm), std::nullopt);
          EXPECT_EQ(warm.solve_cache_hits, 2u);
          EXPECT_EQ(warm.solver_rounds, 2u * 96u);
        }
        return cold;
      });
}

/// Only an event with arrivals, detaches or capacity changes since the last
/// solve may probe or insert the solve cache: a departure-only event with a
/// valid round log resumes exactly (DESIGN.md §11), so memoizing it buys a
/// replay nothing. A fan-out from one endpoint (distinct sizes over one
/// shared injection link) has one arrival event and then only departures,
/// so every run looks the cache up exactly once. A MapReduce mixes both
/// kinds of event, so it looks up on fewer events than it has, and its warm
/// runs repeat the cold run's physics and lookups exactly.
///
/// Only whole-set solves look the cache up, not component solves. In "late
/// arrivals" eight long self-flows (each its own component, on its own
/// endpoint's NIC links) start together, and four short self-flows arrive
/// one at a time, each as its own component. The first event solves the
/// whole set and stores it (65 words of the 100-word budget). The next two
/// arrivals probe the whole set first and miss, since the second entry
/// would not fit, so the second miss drops the probe-first hint. That
/// arrival and the two after it are solved per component without a lookup,
/// so every run, warm or cold, looks the cache up exactly three times.
TEST(Differential, DepartureOnlyEventsBypassTheSolveCache) {
  const auto topo = make_topology("nestghc:64,2,2");
  TrafficProgram fan_out;
  for (std::uint32_t dst = 1; dst <= 8; ++dst) {
    (void)fan_out.add_flow(0, dst, 1e6 * dst);
  }
  TrafficProgram late_arrivals;
  for (std::uint32_t e = 0; e < 8; ++e) {
    (void)late_arrivals.add_flow(e, e, kBps);
  }
  for (std::uint32_t i = 1; i <= 4; ++i) {
    (void)late_arrivals.add_flow(8 + i, 8 + i, kBps / 100, 0.1 * i);
  }
  EngineOptions small_cache;
  small_cache.solve_cache_budget_words = 100;
  const struct {
    const char* name;
    TrafficProgram program;
    std::uint64_t lookups;  // per run; 0 = only "fewer than events"
    EngineOptions options;
  } cases[] = {{"fan-out", fan_out, 1, {}},
               {"mapreduce", generate(*topo, "mapreduce"), 0, {}},
               {"late arrivals", late_arrivals, 3, small_cache}};
  const auto lookups = [](const SimResult& r) {
    return r.solve_cache_hits + r.solve_cache_misses;
  };
  for (const auto& c : cases) {
    check_against_reference(
        c.name, c.options, [&]<typename Engine>(const EngineOptions& options) {
          Engine engine(*topo, options);
          const SimResult cold = engine.run(c.program);
          if constexpr (std::is_same_v<Engine, FlowEngine>) {
            EXPECT_GT(lookups(cold), 0u) << c.name;
            EXPECT_LT(lookups(cold), cold.events) << c.name;
            if (c.lookups != 0) {
              EXPECT_EQ(lookups(cold), c.lookups) << c.name;
            }
            for (int warm = 0; warm < 3; ++warm) {
              const SimResult again = engine.run(c.program);
              EXPECT_EQ(verify::physical_difference(cold, again),
                        std::nullopt)
                  << c.name << " (warm)";
              EXPECT_EQ(lookups(again), lookups(cold)) << c.name;
            }
          }
          return cold;
        });
  }
}

/// The solve cache stops storing at EngineOptions::solve_cache_budget_words,
/// which the default leaves far from these sizes. A MapReduce on
/// nestghc:64,2,2 looks the cache up on its three arrival events (scatter,
/// shuffle, gather). With no budget every probe is a guaranteed miss and
/// nothing is stored. A 5 000-word budget admits the scatter and gather
/// entries (each under 1 + 3 * 512 links + 2 * 64 flows words) but not the
/// shuffle's, which holds its 4 032 flows twice (key and rates), so warm
/// runs hit some lookups and miss the rest. Every run replays the reference
/// exactly either way.
TEST(Differential, SolveCacheBudgetBoundsWhatWarmRunsHit) {
  const auto topo = make_topology("nestghc:64,2,2");
  const TrafficProgram program = generate(*topo, "mapreduce");
  for (const std::size_t budget : {std::size_t{0}, std::size_t{5000}}) {
    const std::string context = "budget " + std::to_string(budget);
    EngineOptions options;
    options.solve_cache_budget_words = budget;
    check_against_reference(
        context, options, [&]<typename Engine>(const EngineOptions& opts) {
          Engine engine(*topo, opts);
          const SimResult cold = engine.run(program);
          if constexpr (std::is_same_v<Engine, FlowEngine>) {
            EXPECT_EQ(cold.solve_cache_hits, 0u) << context;
            EXPECT_GT(cold.solve_cache_misses, 0u) << context;
            for (int warm = 0; warm < 2; ++warm) {
              const SimResult again = engine.run(program);
              EXPECT_EQ(verify::physical_difference(cold, again),
                        std::nullopt)
                  << context << " (warm)";
              EXPECT_EQ(again.solve_cache_hits + again.solve_cache_misses,
                        cold.solve_cache_misses)
                  << context;
              if (budget == 0) {
                EXPECT_EQ(again.solve_cache_hits, 0u) << context;
              } else {
                EXPECT_GT(again.solve_cache_hits, 0u) << context;
                EXPECT_GT(again.solve_cache_misses, 0u) << context;
              }
            }
          }
          return cold;
        });
  }
}

/// The physics check's rules: the first differing field is named with both
/// values, NaN finish times are equal, reroute_extra_hops is signed, and
/// fault_events_applied can be left out.
TEST(Differential, PhysicalDifferenceNamesTheFirstDifferingField) {
  SimResult a;
  a.flow_finish_times = {1.0, std::nan(""), 3.0};
  a.reroute_extra_hops = -2;
  a.fault_events_applied = 4;
  SimResult b = a;
  b.solver_rounds = 9;  // a work counter
  b.route_seconds = 1.0;  // a timer
  b.fault_events_applied = 0;
  EXPECT_EQ(verify::physical_difference(a, b, false), std::nullopt);
  EXPECT_EQ(verify::physical_difference(a, b),
            "fault_events_applied: 4 vs 0");
  b.fault_events_applied = 4;
  b.reroute_extra_hops = 2;
  b.flow_finish_times[2] = 0.5;
  EXPECT_EQ(verify::physical_difference(a, b), "reroute_extra_hops: -2 vs 2");
  b.reroute_extra_hops = -2;
  EXPECT_EQ(verify::physical_difference(a, b),
            "flow_finish_times[2]: 3 vs 0.5");
  b.flow_finish_times[1] = 2.0;
  EXPECT_EQ(verify::physical_difference(a, b),
            "flow_finish_times[1]: nan vs 2");
}

/// EngineOptions::time_solver fills the phase timers and changes nothing
/// else: off, both engines leave every timer at 0; on, a multi-event run
/// fills each phase, and FlowEngine's dispatch is exactly the sum of its
/// three sub-phases.
TEST(Differential, PhaseTimersMeasureWithoutChangingPhysics) {
  const auto topo = make_topology("nestghc:64,2,2");
  const TrafficProgram program = generate(*topo, "sweep3d");
  EngineOptions options = differential_options({});
  const SimResult flow_off = FlowEngine(*topo, options).run(program);
  const SimResult reference_off = ReferenceEngine(*topo, options).run(program);
  options.time_solver = true;
  const SimResult flow_on = FlowEngine(*topo, options).run(program);
  const SimResult reference_on = ReferenceEngine(*topo, options).run(program);
  ASSERT_GT(flow_on.events, 1u);

  const auto timers = [](const SimResult& r) {
    return std::array{r.route_seconds,   r.solve_seconds,
                      r.dispatch_seconds, r.advance_seconds,
                      r.select_seconds,  r.complete_seconds};
  };
  for (const double t : timers(flow_off)) EXPECT_EQ(t, 0.0);
  for (const double t : timers(reference_off)) EXPECT_EQ(t, 0.0);
  for (const double t : timers(flow_on)) EXPECT_GT(t, 0.0);
  EXPECT_EQ(flow_on.dispatch_seconds, flow_on.advance_seconds +
                                          flow_on.select_seconds +
                                          flow_on.complete_seconds);
  EXPECT_GT(reference_on.route_seconds, 0.0);
  EXPECT_GT(reference_on.solve_seconds, 0.0);
  EXPECT_GT(reference_on.dispatch_seconds, 0.0);

  EXPECT_EQ(verify::physical_difference(flow_off, flow_on), std::nullopt);
  EXPECT_EQ(verify::physical_difference(reference_off, reference_on),
            std::nullopt);
  EXPECT_EQ(verify::physical_difference(reference_on, flow_on), std::nullopt);
  EXPECT_EQ(flow_on.solver_rounds, flow_off.solver_rounds);
  EXPECT_EQ(flow_on.route_cache_hits, flow_off.route_cache_hits);
  EXPECT_EQ(flow_on.solve_cache_hits, flow_off.solve_cache_hits);
}

/// Capacity edits between runs must invalidate memoized rates (capacity
/// bits are part of every solve-cache key). Each edit empties the solve
/// cache, so the first run after it stores an entry for its one whole-set
/// solve and, at the departure that follows, saves that solve's round log
/// into it; the next two runs hit the entry and resume the restored log
/// through all their departures, freezing no link (a departure solved
/// afresh would freeze at least one). Every run matches the reference.
TEST(Incremental, CapacityChangesInvalidateMemoizedRates) {
  const auto topo = make_topology("torus:4x4x2");
  const TrafficProgram program = generate(*topo, "unstructured-app");
  const EngineOptions options = differential_options({});
  const LinkId degraded = topo->graph().injection_link(0);

  FlowEngine reused(*topo, options);
  (void)reused.run(program);  // warm caches at nominal capacity
  ReferenceEngine reference(*topo, options);
  const auto check_runs = [&](const char* context) {
    const SimResult want = reference.run(program);
    SimResult got;
    for (int run = 0; run < 3; ++run) {
      got = reused.run(program);
      EXPECT_EQ(verify::physical_difference(want, got), std::nullopt)
          << context << ", run " << run;
    }
    EXPECT_GT(got.events, 1u) << context;
    EXPECT_GT(got.solve_cache_hits, 0u) << context;
    EXPECT_EQ(got.solve_cache_misses, 0u) << context;
    EXPECT_EQ(got.solver_rounds, 0u) << context;
  };
  reused.set_capacity_factor(degraded, 0.5);
  reference.set_capacity_factor(degraded, 0.5);
  check_runs("degraded torus");

  reused.reset_capacity_factors();
  reference.reset_capacity_factors();
  check_runs("restored torus");
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
  const SimResult result = check_against_reference(
      "mid-transfer kill", {},
      [&]<typename Engine>(const EngineOptions& options) {
        return run_ring_timeline<Engine>(0.25, kBps, options);
      });
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
  const SimResult result = check_against_reference(
      "latency tail", options,
      [&]<typename Engine>(const EngineOptions& engine_options) {
        return run_ring_timeline<Engine>(0.7, 0.5 * kBps, engine_options);
      });
  EXPECT_EQ(result.stranded_flows, 0u);
  EXPECT_DOUBLE_EQ(result.undelivered_bytes, 0.0);
  EXPECT_NEAR(result.makespan, 1.0, 1e-9);
}

}  // namespace
}  // namespace nestflow
