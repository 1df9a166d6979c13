// Fault-aware routing wrapper: makes any Topology survivable under the
// hard-fault scenarios of FaultModel.
//
// FaultAwareRouter is itself a Topology (over a copy of the inner graph, so
// node and link ids coincide) and can be dropped into FlowEngine unchanged.
// Routing is a two-level fallback:
//
//   1. the inner topology's native route()/route_adaptive() is tried first —
//      with an empty fault set this is the whole story, so zero-fault runs
//      are bit-identical to running the inner topology directly;
//   2. when the native path crosses a dead link or dead node, the route is
//      recomputed as a shortest path over the *surviving* transit graph via
//      BFS trees rooted at the destination, cached across flows (a fault
//      scenario is static, so one tree serves every flow towards that
//      destination).
//
// A connectivity audit runs once at construction: surviving components are
// labelled so reachable()/try_route() classify src/dst pairs as reachable
// or stranded in O(1), and stranded_endpoint_pairs() reports how much of
// the traffic matrix a partition has cut off.
//
// The fault scenario may change mid-run (the engine's fault timeline calls
// kill/repair on the shared FaultModel between solver rounds). The router
// notices via FaultModel::epoch(): on the first query after a change it
// rebuilds the audit and drops the reroute-tree cache. The refresh is not
// synchronised against concurrent queries — mutation and routing must not
// overlap, which holds in the engine because fault events are applied on
// the main thread between activation passes, never during one.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "resilience/fault_model.hpp"
#include "topo/topology.hpp"

namespace nestflow {

class FaultAwareRouter final : public Topology {
 public:
  /// Both `inner` and `faults` must outlive the router; `faults` must be
  /// built over inner.graph() (checked). The scenario may change afterwards
  /// — the router refreshes its audit and reroute cache lazily whenever
  /// faults.epoch() moves — but changes must not race with queries.
  FaultAwareRouter(const Topology& inner, const FaultModel& faults);

  [[nodiscard]] const Topology& inner() const noexcept { return inner_; }
  [[nodiscard]] const FaultModel& faults() const noexcept { return faults_; }

  /// Deterministic fault-aware route. Throws std::runtime_error for
  /// stranded pairs (use try_route to classify without throwing).
  void route(std::uint32_t src, std::uint32_t dst, Path& path) const override;
  void route_adaptive(std::uint32_t src, std::uint32_t dst, Path& path,
                      const LinkLoads& loads) const override;
  [[nodiscard]] RouteOutcome try_route(std::uint32_t src, std::uint32_t dst,
                                       Path& path, const LinkLoads& loads,
                                       bool adaptive) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>
  adversarial_pairs() const override {
    return inner_.adversarial_pairs();
  }
  /// Never memoizable: try_route classifies pairs as rerouted/stranded and
  /// the engine's reroute/strand accounting must see every activation, so
  /// the engine-level route cache stays off even for an empty fault set.
  [[nodiscard]] bool routes_are_static() const noexcept override {
    return false;
  }
  [[nodiscard]] bool route_adaptive_reads_loads() const noexcept override {
    return inner_.route_adaptive_reads_loads();
  }

  // --- Connectivity audit -------------------------------------------------

  /// True when both nodes are alive and in the same surviving component.
  [[nodiscard]] bool reachable(NodeId a, NodeId b) const;
  /// Number of connected components of the surviving transit graph
  /// (1 = no partition; 0 = everything dead).
  [[nodiscard]] std::uint32_t num_surviving_components() const;
  /// Ordered endpoint pairs (src != dst) with no surviving path — exactly
  /// the flows that will be reported stranded.
  [[nodiscard]] std::uint64_t stranded_endpoint_pairs() const;

 private:
  /// Shortest-path tree towards one destination over the surviving graph.
  struct RerouteTree {
    /// Per node: the first link of the surviving shortest path to the
    /// destination (kInvalidLink when unreachable).
    std::vector<LinkId> next_link;
    std::vector<std::uint32_t> dist;
  };

  /// Rebuilds the audit and wipes the reroute cache when the fault model's
  /// epoch has moved since the last query. Called at every public query
  /// entry point; not thread-safe against concurrent queries (see the
  /// class comment for the contract that makes this sound).
  void refresh() const;

  [[nodiscard]] bool path_crosses_fault(const Path& path) const noexcept;
  /// Fetches (building and caching on miss) the reroute tree for `dst`.
  [[nodiscard]] std::shared_ptr<const RerouteTree> tree_for(NodeId dst) const;
  /// Overwrites `path` with the surviving shortest path; returns false when
  /// stranded.
  [[nodiscard]] bool reroute(std::uint32_t src, std::uint32_t dst,
                             Path& path) const;

  const Topology& inner_;
  const FaultModel& faults_;
  mutable bool has_faults_;

  // Audit state, rebuilt by refresh() whenever the fault epoch moves.
  mutable std::vector<std::uint32_t> component_;
  mutable std::uint32_t num_components_ = 0;
  mutable std::uint64_t seen_epoch_ = 0;

  // Reroute cache: dst node -> BFS tree. Bounded; wiped wholesale when full
  // (a fault sweep touches destinations in waves, so exact LRU buys little).
  mutable std::mutex cache_mutex_;
  mutable std::unordered_map<NodeId, std::shared_ptr<const RerouteTree>>
      tree_cache_;
  static constexpr std::size_t kMaxCachedTrees = 1024;
};

}  // namespace nestflow
