// Topology abstraction.
//
// A Topology owns an immutable Graph plus a deterministic routing function
// between endpoint indices. All topologies in this library construct their
// endpoints first, so endpoint index i is always node id i; switches follow.
//
// Routing contract: route(src, dst, path) overwrites `path` with the transit
// links (in traversal order) from endpoint src to endpoint dst. NIC
// (injection/consumption) links are NOT included — the flow engine adds
// those itself. src == dst yields an empty path.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace nestflow {

/// A route through the network: transit link ids in traversal order.
/// Reused across route() calls to avoid per-flow allocation.
struct Path {
  std::vector<LinkId> links;

  void clear() noexcept { links.clear(); }
  [[nodiscard]] std::uint32_t hops() const noexcept {
    return static_cast<std::uint32_t>(links.size());
  }
};

/// Default link bandwidth: the paper's QFDBs expose 10 Gb/s transceivers
/// and all links in the study are 10 Gb/s. Expressed in bytes/second.
inline constexpr double kDefaultLinkBps = 10e9 / 8.0;

/// Read-only view of current per-link occupancy (active flow counts) and
/// effective capacity, supplied by the flow engine to load-adaptive routing
/// functions. Adaptive choices rank candidates by expected congestion
/// cost = (flows + 1) / capacity, which both balances load and steers
/// around degraded (fault-injected) links.
class LinkLoads {
 public:
  LinkLoads(std::span<const std::uint32_t> active_counts,
            std::span<const double> capacities) noexcept
      : counts_(active_counts), capacities_(capacities) {}

  [[nodiscard]] std::uint32_t count(LinkId l) const noexcept {
    return l < counts_.size() ? counts_[l] : 0;
  }
  /// Congestion cost of adding one more flow; lower is better. A dead link
  /// (capacity 0 after hard-fault injection) costs infinity so adaptive
  /// choices never prefer it when any live alternative exists.
  [[nodiscard]] double cost(LinkId l) const noexcept {
    const double capacity = l < capacities_.size() ? capacities_[l] : 1.0;
    if (capacity <= 0.0) return std::numeric_limits<double>::infinity();
    return static_cast<double>(count(l) + 1) / capacity;
  }

 private:
  std::span<const std::uint32_t> counts_;
  std::span<const double> capacities_;
};

/// How a fault-aware routing attempt ended (see Topology::try_route).
enum class RouteStatus : std::uint8_t {
  kNative,    // the topology's own routing function produced the path
  kRerouted,  // native path crossed a fault; a surviving-graph detour is used
  kStranded,  // no surviving path exists (dead endpoint or partition)
};

struct RouteOutcome {
  RouteStatus status = RouteStatus::kNative;
  /// Rerouted-path hops minus the native route's hops (kRerouted only).
  /// Negative values are possible for composite routing functions (the
  /// nested topologies) whose native routes are not graph-shortest: the
  /// surviving-graph BFS detour can undercut them.
  std::int32_t extra_hops = 0;
};

class Topology {
 public:
  virtual ~Topology() = default;

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] std::uint32_t num_endpoints() const noexcept {
    return graph_.num_endpoints();
  }
  /// Endpoint index -> node id. Identity by construction invariant.
  [[nodiscard]] NodeId endpoint_node(std::uint32_t endpoint) const noexcept {
    return endpoint;
  }

  /// Computes the deterministic route between two endpoint indices.
  virtual void route(std::uint32_t src, std::uint32_t dst, Path& path) const = 0;

  /// Load-adaptive variant used by the flow engine at flow-activation time:
  /// topologies with path diversity (the fat-tree's up-port choices — the
  /// flow-level analogue of the ECMP/adaptive routing deployed on real
  /// non-blocking fat-trees) pick the least-loaded candidate; everything
  /// else falls back to the deterministic route. Hop count is always
  /// identical to route()'s (minimal paths only).
  virtual void route_adaptive(std::uint32_t src, std::uint32_t dst,
                              Path& path, const LinkLoads& loads) const {
    (void)loads;
    route(src, dst, path);
  }

  /// Fault-aware routing entry point used by the flow engine. The base
  /// implementation never fails: it dispatches to route_adaptive()/route()
  /// and reports kNative (healthy fabrics have no faults to avoid).
  /// FaultAwareRouter overrides this to detour around dead links/nodes and
  /// to classify unroutable endpoint pairs as kStranded, in which case
  /// `path` is left empty and must not be used.
  [[nodiscard]] virtual RouteOutcome try_route(std::uint32_t src,
                                               std::uint32_t dst, Path& path,
                                               const LinkLoads& loads,
                                               bool adaptive) const {
    if (adaptive) {
      route_adaptive(src, dst, path, loads);
    } else {
      route(src, dst, path);
    }
    return {};
  }

  /// True when the deterministic routing function is a pure function of
  /// (src, dst) for the lifetime of the object AND try_route always reports
  /// kNative: the flow engine may then memoize route() results per endpoint
  /// pair. All concrete topologies in this library qualify — their graphs
  /// and routing tables are immutable after construction (Jellyfish's
  /// randomness is fixed at build time). Wrappers whose answers depend on
  /// runtime state (FaultAwareRouter: reroutes, stranding) must return
  /// false so resilience semantics are untouched. Under adaptive routing
  /// the engine memoizes only where route_adaptive_reads_loads() is false.
  [[nodiscard]] virtual bool routes_are_static() const noexcept {
    return true;
  }

  /// True when route_adaptive() reads the loads it is given, so its path
  /// for a pair can change with link occupancy (the fat-tree tiers'
  /// up-port choice). Must be true for every override that reads them;
  /// false means route_adaptive() returns route()'s path for every pair.
  [[nodiscard]] virtual bool route_adaptive_reads_loads() const noexcept {
    return false;
  }

  /// Hop count of route(src, dst) without exposing the path buffer.
  [[nodiscard]] std::uint32_t route_length(std::uint32_t src,
                                           std::uint32_t dst) const;

  /// Hop count of the deterministic route, overridable with a closed-form
  /// computation (all concrete topologies do) so distance sweeps over
  /// millions of pairs never materialise paths. Must equal route_length().
  [[nodiscard]] virtual std::uint32_t route_distance(std::uint32_t src,
                                                     std::uint32_t dst) const {
    return route_length(src, dst);
  }

  /// Short human-readable identifier, e.g. "NestTree(t=2,u=4)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Endpoint pairs likely to attain the routed diameter; folded into the
  /// sampled diameter estimate so regular structure can't hide the worst
  /// case from random sampling.
  [[nodiscard]] virtual std::vector<std::pair<std::uint32_t, std::uint32_t>>
  adversarial_pairs() const {
    return {};
  }

 protected:
  Topology() = default;

  /// Called once by each concrete constructor after building the graph.
  /// Enforces the endpoints-first node numbering invariant.
  void adopt_graph(Graph graph);

  /// Walks one hop from `from` to `to`, appending the connecting link.
  /// Throws std::logic_error if no such transit link exists (wiring bug).
  void append_hop(NodeId from, NodeId to, Path& path) const;

  Graph graph_;
};

/// Product of a dimension vector as 64-bit to catch overflow before casting.
[[nodiscard]] std::uint64_t dims_product(const std::vector<std::uint32_t>& dims);

}  // namespace nestflow
