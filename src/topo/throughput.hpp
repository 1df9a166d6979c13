// Static saturation-throughput bound under uniform traffic — the classic
// "static mode" complement to Table 1's distances: if every endpoint
// injects at rate lambda to uniformly random destinations, the expected
// load on link l is lambda * N * p_l (p_l = probability a random flow
// crosses l), so the network saturates at
//
//     lambda* = min over links of  capacity_l / (N * p_l),
//
// reported normalised to the NIC rate (theta = 1 means endpoints can
// inject at full line rate; the non-blocking fat-tree achieves it, the
// big torus does not — the static root of the paper's Figure 4 gaps).
#pragma once

#include <cstdint>

#include "topo/topology.hpp"

namespace nestflow {

struct ThroughputBound {
  /// Saturation injection rate as a fraction of the NIC rate, in (0, 1].
  double normalized = 0.0;
  /// The link that saturates first.
  LinkId bottleneck = kInvalidLink;
  LinkClass bottleneck_class = LinkClass::kTorus;
  /// Expected hops per flow under uniform traffic (same sample).
  double mean_path_length = 0.0;
  bool exhaustive = false;
};

/// Estimates p_l by routing all ordered pairs (when their count is at most
/// max_pairs) or a deterministic sample, then evaluates the bound. NIC
/// links are included: theta can never exceed 1.
///
/// Caveat on sampled runs: taking the minimum over per-link estimates
/// rides the sampling noise of the most-loaded links, so sampled bounds
/// are biased slightly LOW (extreme-value bias). Raise max_pairs until the
/// bound stabilises when it matters; exhaustive runs are exact.
[[nodiscard]] ThroughputBound uniform_throughput_bound(
    const Topology& topology, std::uint64_t max_pairs = 1u << 22,
    std::uint64_t seed = 42);

}  // namespace nestflow
