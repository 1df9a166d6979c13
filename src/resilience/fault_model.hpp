// Deterministic hard/soft fault scenarios over a topology's graph.
//
// A FaultModel records which cables (duplex transit-link pairs) and nodes
// (QFDBs or switches) are dead and which links are degraded. It is the
// single source of truth the resilience stack shares:
//
//   * FaultAwareRouter consults it to route around faults and to classify
//     endpoint pairs as reachable or stranded (see fault_router.hpp);
//   * apply(engine) pushes the same scenario into the engine's link
//     capacities (dead = factor 0, degraded = the given factor) so rate
//     allocation matches the routing view.
//
// Faults are cable-granular: killing one direction of a full-duplex cable
// without the other has no physical counterpart in the ExaNeSt fabric
// (a transceiver or board dies whole), and cable symmetry is what keeps the
// surviving transit graph symmetric for BFS rerouting.
//
// Scenarios are deterministic in (graph, parameters, seed): the random
// generators draw from the same seeded Prng streams as the workloads, so a
// degradation sweep is reproducible bit-for-bit.
//
// A FaultModel is no longer necessarily static: kill_* and repair_* may be
// called mid-run by the engine's dynamic fault timeline (see
// fault_timeline.hpp). Every state change bumps epoch(), which consumers
// holding derived state (the FaultAwareRouter's connectivity audit and
// reroute trees) use to invalidate lazily.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"

namespace nestflow {

class FaultModel {
 public:
  /// An all-healthy scenario over `graph`. The graph must outlive the model.
  explicit FaultModel(const Graph& graph);

  /// Kills the duplex cable containing transit link `link` (both
  /// directions). Throws std::out_of_range for bad ids and
  /// std::invalid_argument for NIC links (kill the endpoint instead).
  /// Idempotent.
  void kill_cable(LinkId link);

  /// Kills a node and every transit cable incident to it. For endpoints
  /// this models a dead QFDB/NIC: all its flows become stranded. Idempotent.
  void kill_node(NodeId node);

  /// Degrades the duplex cable containing `link` to `factor` of nominal
  /// capacity in both directions. factor must be finite and in (0, 1);
  /// use kill_cable for hard failures. Later calls overwrite earlier ones;
  /// killing a degraded cable wins.
  void degrade_cable(LinkId link, double factor);

  /// Revives the duplex cable containing `link` (both directions). A
  /// previously recorded degradation factor survives the repair (the cable
  /// comes back at its degraded capacity, not magically repaired to
  /// nominal). Same id validation as kill_cable. Idempotent.
  void repair_cable(LinkId link);

  /// Revives a node and every transit cable incident to it — the repaired
  /// board arrives with fresh cable connections, so cables that died with
  /// the node (or independently, while it was down) come back too.
  /// Idempotent: repairing an alive node is a no-op.
  void repair_node(NodeId node);

  [[nodiscard]] bool empty() const noexcept {
    return num_dead_cables_ == 0 && num_dead_nodes_ == 0 &&
           num_degraded_cables_ == 0;
  }
  [[nodiscard]] bool link_dead(LinkId link) const noexcept {
    return link < link_alive_.size() && link_alive_[link] == 0;
  }
  [[nodiscard]] bool node_dead(NodeId node) const noexcept {
    return node < node_alive_.size() && node_alive_[node] == 0;
  }
  [[nodiscard]] std::uint32_t num_dead_cables() const noexcept {
    return num_dead_cables_;
  }
  [[nodiscard]] std::uint32_t num_dead_nodes() const noexcept {
    return num_dead_nodes_;
  }
  [[nodiscard]] std::uint32_t num_degraded_cables() const noexcept {
    return num_degraded_cables_;
  }

  /// Monotonic state-change counter: bumped by every kill/repair/degrade
  /// call that actually changed something. Consumers caching derived state
  /// (connectivity audits, reroute trees) compare epochs to invalidate.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Effective capacity factor of a transit link under this scenario:
  /// 0 when dead, the degradation factor (1.0 = nominal) otherwise.
  [[nodiscard]] double effective_factor(LinkId link) const {
    if (link >= link_alive_.size()) {
      throw std::out_of_range("FaultModel::effective_factor: bad transit link");
    }
    return link_alive_[link] == 0 ? 0.0 : degrade_factor_[link];
  }

  /// Per-transit-link / per-node alive masks (1 = alive), sized to the
  /// graph. Consumed by the surviving-subgraph BFS helpers.
  [[nodiscard]] std::span<const std::uint8_t> link_alive() const noexcept {
    return link_alive_;
  }
  [[nodiscard]] std::span<const std::uint8_t> node_alive() const noexcept {
    return node_alive_;
  }

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  /// Pushes the scenario into an engine built over the same topology (a
  /// FlowEngine, or anything else with its set_capacity_factor, such as the
  /// ReferenceEngine in src/verify/): capacity factor 0 for dead transit
  /// links and for the NIC links of dead endpoints, the degradation factor
  /// for degraded links. Call after reset_capacity_factors() when reusing
  /// an engine across scenarios.
  template <typename Engine>
  void apply(Engine& engine) const {
    for (LinkId l = 0; l < graph_->num_transit_links(); ++l) {
      if (link_alive_[l] == 0) {
        engine.set_capacity_factor(l, 0.0);
      } else if (degrade_factor_[l] != 1.0) {
        engine.set_capacity_factor(l, degrade_factor_[l]);
      }
    }
    for (NodeId n = 0; n < graph_->num_endpoints(); ++n) {
      if (node_alive_[n] != 0) continue;
      engine.set_capacity_factor(graph_->injection_link(n), 0.0);
      engine.set_capacity_factor(graph_->consumption_link(n), 0.0);
    }
  }

  /// Seeded scenario: kills floor(kill_fraction * cables) random transit
  /// cables (at least one when kill_fraction > 0 and cables exist).
  /// Delegates to random_cable_fault_count; the achieved count is
  /// num_dead_cables() on the returned model.
  [[nodiscard]] static FaultModel random_cable_faults(const Graph& graph,
                                                      double kill_fraction,
                                                      std::uint64_t seed);

  /// Seeded scenario: kills `requested` distinct random transit cables.
  /// Over-asking is handled explicitly: the request is clamped to the
  /// number of candidate cables (never loops, never silently misses), and
  /// the achieved count is always num_dead_cables() == min(requested,
  /// candidates). Sampling is without replacement, so duplicate picks
  /// cannot occur.
  [[nodiscard]] static FaultModel random_cable_fault_count(
      const Graph& graph, std::uint64_t requested, std::uint64_t seed);

  /// Seeded scenario: kills floor(kill_fraction * endpoints) random
  /// endpoints (at least one when kill_fraction > 0), taking their incident
  /// cables down with them. Delegates to random_endpoint_fault_count.
  [[nodiscard]] static FaultModel random_endpoint_faults(const Graph& graph,
                                                         double kill_fraction,
                                                         std::uint64_t seed);

  /// Seeded scenario killing exactly min(requested, endpoints) distinct
  /// endpoints; the achieved count is num_dead_nodes(). Note the incident
  /// cables of neighbouring dead endpoints can overlap — num_dead_cables()
  /// reports the deduplicated cable toll, not a per-endpoint sum.
  [[nodiscard]] static FaultModel random_endpoint_fault_count(
      const Graph& graph, std::uint64_t requested, std::uint64_t seed);

 private:
  const Graph* graph_;
  std::vector<std::uint8_t> link_alive_;   // transit links only
  std::vector<std::uint8_t> node_alive_;
  std::vector<double> degrade_factor_;     // 1.0 = nominal, per transit link
  std::uint32_t num_dead_cables_ = 0;
  std::uint32_t num_dead_nodes_ = 0;
  std::uint32_t num_degraded_cables_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace nestflow
