// Endpoint-to-endpoint distance metrics (Table 1 of the paper).
//
// Two notions of distance are provided:
//  * topological — BFS hop counts over transit links (shortest possible);
//  * routed      — the hop count the deterministic routing function actually
//                  produces (supplied as a callback so this module does not
//                  depend on the topology layer).
// For minimal routing functions the two agree; tests assert exactly that.
//
// Full-scale systems (131k endpoints) are far too big for all-pairs, so the
// sampled variants run BFS from a deterministic sample of endpoint sources —
// for vertex-transitive-ish topologies this converges fast — plus a
// double-sweep pass to push the diameter lower bound to the true diameter.
#pragma once

#include <cstdint>
#include <functional>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "util/stats.hpp"

namespace nestflow {

struct DistanceReport {
  double average = 0.0;       // mean endpoint-to-endpoint hop distance
  std::uint32_t diameter = 0; // max observed (exact when `exact` is true)
  std::uint64_t pairs = 0;    // number of (src, dst) pairs aggregated
  bool exact = false;
  Histogram histogram{1};     // hop-count distribution over sampled pairs
};

/// All-pairs BFS over endpoints. O(E * links); small graphs only.
/// Throws std::runtime_error if any endpoint pair is disconnected.
[[nodiscard]] DistanceReport exact_distance_report(const Graph& graph);

/// BFS from `num_sources` deterministically-sampled endpoint sources
/// (all endpoints if num_sources >= endpoint count, making it exact).
/// A double-sweep refinement chases the farthest endpoint found to tighten
/// the diameter estimate.
[[nodiscard]] DistanceReport sampled_distance_report(const Graph& graph,
                                                     std::uint32_t num_sources,
                                                     std::uint64_t seed);

/// Path length (in hops) of the routing function for endpoint indices
/// (src, dst); the callback must return the number of transit links.
using RouteLengthFn =
    std::function<std::uint32_t(std::uint32_t src, std::uint32_t dst)>;

/// Exact routed metrics over all ordered endpoint pairs (small systems).
[[nodiscard]] DistanceReport exact_routed_report(std::uint32_t num_endpoints,
                                                 const RouteLengthFn& route_len);

/// Routed metrics over `num_pairs` sampled ordered pairs plus, optionally,
/// a caller-supplied list of adversarial pairs folded into the diameter
/// (e.g. opposite torus corners), since random sampling alone can miss the
/// worst case in very regular graphs.
[[nodiscard]] DistanceReport sampled_routed_report(
    std::uint32_t num_endpoints, const RouteLengthFn& route_len,
    std::uint64_t num_pairs, std::uint64_t seed,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
        adversarial_pairs = {});

/// Above this endpoint count auto_distance_report switches from exact
/// all-pairs to seeded sampling, so O(E^2) work is never required at scale.
inline constexpr std::uint32_t kAutoExactEndpointLimit = 4096;
/// BFS sources auto_distance_report samples past the limit.
inline constexpr std::uint32_t kAutoSampleSources = 64;

/// Exact below kAutoExactEndpointLimit endpoints, seeded sampling above.
[[nodiscard]] DistanceReport auto_distance_report(const Graph& graph,
                                                  std::uint64_t seed);

}  // namespace nestflow
