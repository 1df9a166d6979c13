#include "topo/throughput.hpp"

#include "util/prng.hpp"

namespace nestflow {

ThroughputBound uniform_throughput_bound(const Topology& topology,
                                         std::uint64_t max_pairs,
                                         std::uint64_t seed) {
  const Graph& graph = topology.graph();
  const std::uint64_t n = topology.num_endpoints();
  const std::uint64_t all_pairs = n * (n - 1);

  ThroughputBound bound;
  bound.exhaustive = all_pairs <= max_pairs;

  // Flow-crossing counts per link; NIC links accounted per flow endpoint.
  std::vector<double> crossings(graph.num_links(), 0.0);
  std::uint64_t samples = 0;
  double total_hops = 0.0;
  Path path;
  const auto add_pair = [&](std::uint32_t s, std::uint32_t d) {
    topology.route(s, d, path);
    crossings[graph.injection_link(s)] += 1.0;
    crossings[graph.consumption_link(d)] += 1.0;
    for (const LinkId l : path.links) crossings[l] += 1.0;
    total_hops += static_cast<double>(path.links.size());
    ++samples;
  };

  if (bound.exhaustive) {
    for (std::uint32_t s = 0; s < n; ++s) {
      for (std::uint32_t d = 0; d < n; ++d) {
        if (s != d) add_pair(s, d);
      }
    }
  } else {
    Prng prng(seed, /*stream=*/0x7a70);
    for (std::uint64_t i = 0; i < max_pairs; ++i) {
      const auto s = static_cast<std::uint32_t>(prng.next_below(n));
      auto d = static_cast<std::uint32_t>(prng.next_below(n - 1));
      if (d >= s) ++d;
      add_pair(s, d);
    }
  }
  bound.mean_path_length = total_hops / static_cast<double>(samples);

  // theta = min_l cap_l / (N * p_l * nic_rate); p_l = crossings / samples.
  const double nic_rate =
      graph.link(graph.injection_link(0)).capacity_bps;
  double best = 0.0;
  for (LinkId l = 0; l < graph.num_links(); ++l) {
    if (crossings[l] <= 0.0) continue;
    const double p = crossings[l] / static_cast<double>(samples);
    const double theta = graph.link(l).capacity_bps /
                         (static_cast<double>(n) * p * nic_rate);
    if (bound.bottleneck == kInvalidLink || theta < best) {
      best = theta;
      bound.bottleneck = l;
      bound.bottleneck_class = graph.link(l).link_class;
    }
  }
  bound.normalized = best;
  return bound;
}

}  // namespace nestflow
