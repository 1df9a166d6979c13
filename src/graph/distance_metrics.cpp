#include "graph/distance_metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/prng.hpp"

namespace nestflow {

namespace {

/// Endpoint node ids in ascending order.
std::vector<NodeId> endpoint_nodes(const Graph& graph) {
  std::vector<NodeId> endpoints;
  endpoints.reserve(graph.num_endpoints());
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    if (graph.node_kind(n) == NodeKind::kEndpoint) endpoints.push_back(n);
  }
  return endpoints;
}

/// Aggregates one BFS result into (stats, histogram), endpoints only,
/// excluding the source itself. Returns the farthest endpoint seen.
NodeId accumulate_endpoint_distances(const Graph& graph,
                                     const std::vector<std::uint32_t>& dist,
                                     NodeId source, RunningStats& stats,
                                     Histogram& histogram) {
  NodeId farthest = source;
  std::uint32_t farthest_distance = 0;
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    if (n == source || graph.node_kind(n) != NodeKind::kEndpoint) continue;
    const auto d = dist[n];
    if (d == kUnreachable) {
      throw std::runtime_error("distance metrics: endpoint pair disconnected");
    }
    stats.add(static_cast<double>(d));
    histogram.add(d);
    if (d > farthest_distance) {
      farthest_distance = d;
      farthest = n;
    }
  }
  return farthest;
}

constexpr std::size_t kHistogramBins = 256;

}  // namespace

DistanceReport exact_distance_report(const Graph& graph) {
  const auto endpoints = endpoint_nodes(graph);
  RunningStats stats;
  Histogram histogram(kHistogramBins);
  BfsScratch scratch;
  for (const NodeId src : endpoints) {
    scratch.run(graph, src);
    accumulate_endpoint_distances(graph, scratch.distances(), src, stats,
                                  histogram);
  }
  DistanceReport report;
  report.average = stats.mean();
  report.diameter = static_cast<std::uint32_t>(stats.max());
  report.pairs = stats.count();
  report.exact = true;
  report.histogram = std::move(histogram);
  return report;
}

DistanceReport sampled_distance_report(const Graph& graph,
                                       std::uint32_t num_sources,
                                       std::uint64_t seed) {
  const auto endpoints = endpoint_nodes(graph);
  if (endpoints.empty()) {
    throw std::invalid_argument("sampled_distance_report: no endpoints");
  }
  if (num_sources >= endpoints.size()) {
    return exact_distance_report(graph);
  }

  Prng prng(seed, /*stream=*/0xd15a);
  const auto picks = prng.sample_without_replacement(endpoints.size(),
                                                     num_sources);
  std::vector<NodeId> sources;
  sources.reserve(picks.size());
  for (const auto i : picks) sources.push_back(endpoints[i]);

  RunningStats stats;
  Histogram histogram(kHistogramBins);
  NodeId global_farthest = sources.front();
  std::uint32_t best_ecc = 0;
  BfsScratch scratch;
  for (const NodeId src : sources) {
    scratch.run(graph, src);
    RunningStats local_stats;
    Histogram local_hist(kHistogramBins);
    const NodeId far = accumulate_endpoint_distances(
        graph, scratch.distances(), src, local_stats, local_hist);
    stats.merge(local_stats);
    histogram.merge(local_hist);
    if (local_stats.max() > best_ecc) {
      best_ecc = static_cast<std::uint32_t>(local_stats.max());
      global_farthest = far;
    }
  }

  // Double sweep: BFS from the farthest endpoint found keeps extending the
  // diameter lower bound; on the regular graphs we build it reaches the true
  // diameter in one or two sweeps.
  for (int sweep = 0; sweep < 2; ++sweep) {
    scratch.run(graph, global_farthest);
    RunningStats sweep_stats;
    Histogram sweep_hist(kHistogramBins);
    const NodeId far = accumulate_endpoint_distances(
        graph, scratch.distances(), global_farthest, sweep_stats, sweep_hist);
    if (sweep_stats.max() <= best_ecc && sweep > 0) break;
    best_ecc = std::max(best_ecc, static_cast<std::uint32_t>(sweep_stats.max()));
    global_farthest = far;
  }

  DistanceReport report;
  report.average = stats.mean();
  report.diameter = best_ecc;
  report.pairs = stats.count();
  report.exact = false;
  report.histogram = std::move(histogram);
  return report;
}

DistanceReport exact_routed_report(std::uint32_t num_endpoints,
                                   const RouteLengthFn& route_len) {
  RunningStats stats;
  Histogram histogram(kHistogramBins);
  for (std::uint32_t s = 0; s < num_endpoints; ++s) {
    for (std::uint32_t d = 0; d < num_endpoints; ++d) {
      if (s == d) continue;
      const auto hops = route_len(s, d);
      stats.add(static_cast<double>(hops));
      histogram.add(hops);
    }
  }
  DistanceReport report;
  report.average = stats.mean();
  report.diameter = static_cast<std::uint32_t>(stats.max());
  report.pairs = stats.count();
  report.exact = true;
  report.histogram = std::move(histogram);
  return report;
}

DistanceReport sampled_routed_report(
    std::uint32_t num_endpoints, const RouteLengthFn& route_len,
    std::uint64_t num_pairs, std::uint64_t seed,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
        adversarial_pairs) {
  if (num_endpoints < 2) {
    throw std::invalid_argument("sampled_routed_report: need >= 2 endpoints");
  }
  const std::uint64_t all_pairs =
      static_cast<std::uint64_t>(num_endpoints) * (num_endpoints - 1);
  if (num_pairs >= all_pairs) {
    return exact_routed_report(num_endpoints, route_len);
  }
  Prng prng(seed, /*stream=*/0x4073d5ULL);
  RunningStats stats;
  Histogram histogram(kHistogramBins);
  for (std::uint64_t i = 0; i < num_pairs; ++i) {
    const auto s = static_cast<std::uint32_t>(prng.next_below(num_endpoints));
    auto d = static_cast<std::uint32_t>(prng.next_below(num_endpoints - 1));
    if (d >= s) ++d;  // uniform over d != s
    const auto hops = route_len(s, d);
    stats.add(static_cast<double>(hops));
    histogram.add(hops);
  }
  std::uint32_t diameter = static_cast<std::uint32_t>(stats.max());
  for (const auto& [s, d] : adversarial_pairs) {
    if (s == d) continue;
    diameter = std::max(diameter, route_len(s, d));
  }
  DistanceReport report;
  report.average = stats.mean();
  report.diameter = diameter;
  report.pairs = stats.count();
  report.exact = false;
  report.histogram = std::move(histogram);
  return report;
}

DistanceReport auto_distance_report(const Graph& graph, std::uint64_t seed) {
  if (graph.num_endpoints() <= kAutoExactEndpointLimit) {
    return exact_distance_report(graph);
  }
  return sampled_distance_report(graph, kAutoSampleSources, seed);
}

}  // namespace nestflow
