// Route-cache correctness: cached paths must be byte-for-byte the paths the
// topology would compute fresh, the cache must engage exactly when routes
// are provably static (deterministic routing function, no fault-aware
// wrapper) and, under adaptive routing, only where the adaptive route reads
// no loads; entries must persist across run() calls on one engine.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "flowsim/engine.hpp"
#include "resilience/fault_model.hpp"
#include "resilience/fault_router.hpp"
#include "topo/factory.hpp"
#include "util/prng.hpp"
#include "verify/reference_engine.hpp"
#include "workloads/factory.hpp"

namespace nestflow {
namespace {

TrafficProgram generate(const Topology& topology, const std::string& spec) {
  WorkloadContext context;
  context.num_tasks = topology.num_endpoints();
  context.seed = hash_combine(7, std::hash<std::string>{}(spec));
  return make_workload(spec)->generate(context);
}

TEST(RouteCache, StaticRouteDeclarationsMatchReality) {
  // Every plain family routes as a pure function of (src, dst), and only
  // the fat-tree tiers' adaptive up-port choice reads link loads...
  const std::vector<std::pair<std::string, bool>> families = {
      {"torus:4x4x2", false},      {"fattree:4,4", true},
      {"thintree:4,2,2", true},    {"nesttree:64,2,2", true},
      {"nestghc:64,2,2", false},   {"ghc:4x4x2", false},
      {"dragonfly:2,4,2", false},  {"jellyfish:24,2,4,7", false}};
  for (const auto& [family, reads_loads] : families) {
    const auto topo = make_topology(family);
    EXPECT_TRUE(topo->routes_are_static()) << family;
    EXPECT_EQ(topo->route_adaptive_reads_loads(), reads_loads) << family;
    if (reads_loads) continue;
    // ...so everywhere else the adaptive route is the deterministic one,
    // even under loads that would sway a load-reading route.
    std::vector<std::uint32_t> counts(topo->graph().num_links());
    std::vector<double> capacities(counts.size(), 1.0);
    Prng prng(11, 0x10ADu);
    for (auto& c : counts) c = static_cast<std::uint32_t>(prng.next_below(9));
    const LinkLoads loads(counts, capacities);
    Path fixed;
    Path adaptive;
    for (std::uint32_t src = 0; src < topo->num_endpoints(); ++src) {
      for (std::uint32_t dst = 0; dst < topo->num_endpoints(); ++dst) {
        topo->route(src, dst, fixed);
        topo->route_adaptive(src, dst, adaptive, loads);
        ASSERT_EQ(fixed.links, adaptive.links)
            << family << " " << src << "->" << dst;
      }
    }
  }
  // ...while the fault-aware wrapper's detours depend on the fault state.
  const auto topo = make_topology("torus:4x4x2");
  const auto faults = FaultModel::random_cable_faults(topo->graph(), 0.05, 3);
  const FaultAwareRouter router(*topo, faults);
  EXPECT_FALSE(router.routes_are_static());
  EXPECT_FALSE(router.route_adaptive_reads_loads());
}

/// Same program on FlowEngine (route cache on) and on the ReferenceEngine,
/// which routes every activation afresh: identical SimResult AND identical
/// per-link traffic — the strongest observable statement that every cached
/// path equals the freshly routed one. Deterministic routing everywhere,
/// plus adaptive routing on the families whose adaptive route reads no
/// loads (the solve cache stays off there).
TEST(RouteCache, CachedPathsCarryIdenticalTraffic) {
  const std::vector<std::pair<std::string, bool>> cases = {
      {"torus:4x4x2", false},   {"fattree:4,4", false},
      {"nestghc:64,2,2", false}, {"torus:4x4x2", true},
      {"nestghc:64,2,2", true}};
  for (const auto& [family, adaptive] : cases) {
    const auto topo = make_topology(family);
    for (const std::string spec : {"unstructured-app", "allreduce", "sweep3d"}) {
      const TrafficProgram program = generate(*topo, spec);
      EngineOptions options;
      options.adaptive_routing = adaptive;

      verify::ReferenceEngine fresh(*topo, options);
      const SimResult fresh_result = fresh.run(program);
      const std::vector<double> fresh_bytes = fresh.last_link_bytes();

      FlowEngine cached(*topo, options);
      const SimResult cached_result = cached.run(program);

      const std::string context =
          family + " x " + spec + (adaptive ? " (adaptive)" : "");
      EXPECT_EQ(fresh_result.makespan, cached_result.makespan) << context;
      EXPECT_EQ(fresh_result.events, cached_result.events) << context;
      EXPECT_GT(cached_result.route_cache_misses, 0u) << context;
      if (adaptive) {
        EXPECT_EQ(cached_result.solve_cache_hits +
                      cached_result.solve_cache_misses,
                  0u)
            << context;
      }
      const auto check_bytes = [&](const char* phase) {
        const auto& cached_bytes = cached.last_link_bytes();
        ASSERT_EQ(fresh_bytes.size(), cached_bytes.size()) << context;
        for (LinkId l = 0; l < fresh_bytes.size(); ++l) {
          ASSERT_EQ(fresh_bytes[l], cached_bytes[l])
              << context << " link " << l << " (" << phase << ")";
        }
      };
      check_bytes("cold");
      // Workloads that never repeat a pair within one run (sweep3d,
      // recursive doubling) only hit on a warm re-run — paths then come
      // entirely from cache and must carry the same traffic again.
      const SimResult warm_result = cached.run(program);
      EXPECT_EQ(fresh_result.makespan, warm_result.makespan) << context;
      EXPECT_GT(warm_result.route_cache_hits, 0u) << context;
      EXPECT_EQ(warm_result.route_cache_misses, 0u) << context;
      if (adaptive) {
        EXPECT_EQ(warm_result.solve_cache_hits + warm_result.solve_cache_misses,
                  0u)
            << context;
      }
      check_bytes("warm");
    }
  }
}

TEST(RouteCache, BypassedWhenAdaptiveRoutingIsOn) {
  // Families whose adaptive route reads loads: caching would be unsound.
  for (const std::string family :
       {"fattree:4,4", "thintree:4,2,2", "nesttree:64,2,2"}) {
    const auto topo = make_topology(family);
    const TrafficProgram program = generate(*topo, "unstructured-app");
    EngineOptions options;
    options.adaptive_routing = true;
    FlowEngine engine(*topo, options);
    for (int run = 0; run < 2; ++run) {
      const SimResult result = engine.run(program);
      EXPECT_EQ(result.route_cache_hits + result.route_cache_misses, 0u)
          << family;
      EXPECT_EQ(result.solve_cache_hits + result.solve_cache_misses, 0u)
          << family;
    }
  }
}

TEST(RouteCache, BypassedForFaultAwareRouting) {
  const auto topo = make_topology("torus:4x4x2");
  const auto faults = FaultModel::random_cable_faults(topo->graph(), 0.05, 5);
  const FaultAwareRouter router(*topo, faults);
  const TrafficProgram program = generate(router, "unstructured-app");
  EngineOptions options;
  options.adaptive_routing = false;
  FlowEngine engine(router, options);
  faults.apply(engine);
  const SimResult result = engine.run(program);
  EXPECT_EQ(result.route_cache_hits + result.route_cache_misses, 0u);
}

TEST(RouteCache, EntriesPersistAcrossRuns) {
  const auto topo = make_topology("nestghc:64,2,2");
  const TrafficProgram program = generate(*topo, "allreduce");
  EngineOptions options;
  options.adaptive_routing = false;
  FlowEngine engine(*topo, options);
  const SimResult cold = engine.run(program);
  EXPECT_GT(cold.route_cache_misses, 0u);  // first run populates
  const SimResult warm = engine.run(program);
  EXPECT_EQ(warm.route_cache_misses, 0u);  // second run replays
  EXPECT_GT(warm.route_cache_hits, 0u);
  EXPECT_EQ(cold.makespan, warm.makespan);
  EXPECT_EQ(cold.events, warm.events);
}

}  // namespace
}  // namespace nestflow
