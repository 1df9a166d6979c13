#include "flowsim/maxmin.hpp"

#include <stdexcept>

namespace nestflow {

namespace {

/// Reference context over a counted two-pass CSR link->flow table: one
/// arena of flow indices with per-link [offset, offset+count) extents, so
/// the 500-instance property sweeps and the auditor cross-checks stop
/// paying one heap allocation per used link per call.
struct ReferenceContext {
  std::span<const double> capacities;
  const std::vector<std::vector<LinkId>>* paths = nullptr;
  std::span<const std::uint32_t> link_offsets;  // size num_links + 1
  std::span<const FlowIndex> link_flow_arena;
  std::span<const double> weights;

  [[nodiscard]] double capacity(LinkId l) const { return capacities[l]; }
  [[nodiscard]] std::span<const FlowIndex> link_flows(LinkId l) const {
    return link_flow_arena.subspan(link_offsets[l],
                                   link_offsets[l + 1] - link_offsets[l]);
  }
  [[nodiscard]] bool flow_active(FlowIndex) const { return true; }
  [[nodiscard]] std::span<const LinkId> flow_path(FlowIndex f) const {
    return (*paths)[f];
  }
  [[nodiscard]] double flow_weight(FlowIndex f) const {
    return weights.empty() ? 1.0 : weights[f];
  }
};

}  // namespace

std::vector<double> maxmin_fair_rates(
    std::span<const double> link_capacities,
    const std::vector<std::vector<LinkId>>& flow_paths) {
  return maxmin_fair_rates(link_capacities, flow_paths, {});
}

std::vector<double> maxmin_fair_rates(
    std::span<const double> link_capacities,
    const std::vector<std::vector<LinkId>>& flow_paths,
    std::span<const double> flow_weights) {
  const auto num_links = link_capacities.size();
  const auto num_flows = flow_paths.size();
  if (!flow_weights.empty() && flow_weights.size() != num_flows) {
    throw std::invalid_argument("maxmin_fair_rates: weight count mismatch");
  }
  for (const double w : flow_weights) {
    if (!(w > 0.0)) {
      throw std::invalid_argument("maxmin_fair_rates: weights must be > 0");
    }
  }

  // Counted two-pass CSR fill of the link->flow incidence: pass 1 counts
  // (validating as it goes), a prefix sum sizes one arena, pass 2 writes
  // each flow into its links' extents in flow order — the same per-link
  // enumeration order the old vector-of-vectors produced.
  std::vector<std::uint32_t> link_offsets(num_links + 1, 0);
  std::vector<double> weight_sums(num_links, 0.0);
  std::vector<LinkId> used;
  std::size_t total_path_words = 0;
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (flow_paths[f].empty()) {
      throw std::invalid_argument("maxmin_fair_rates: flow with empty path");
    }
    const double weight = flow_weights.empty() ? 1.0 : flow_weights[f];
    for (const LinkId l : flow_paths[f]) {
      if (l >= num_links) {
        throw std::invalid_argument("maxmin_fair_rates: link out of range");
      }
      if (weight_sums[l] == 0.0) used.push_back(l);
      weight_sums[l] += weight;
      ++link_offsets[l + 1];
      ++total_path_words;
    }
  }
  for (std::size_t l = 0; l < num_links; ++l) {
    link_offsets[l + 1] += link_offsets[l];
  }
  std::vector<FlowIndex> link_flow_arena(total_path_words);
  std::vector<std::uint32_t> fill = {link_offsets.begin(),
                                     link_offsets.end() - 1};
  for (std::size_t f = 0; f < num_flows; ++f) {
    for (const LinkId l : flow_paths[f]) {
      link_flow_arena[fill[l]++] = static_cast<FlowIndex>(f);
    }
  }

  std::vector<FlowIndex> active(num_flows);
  for (std::size_t f = 0; f < num_flows; ++f) {
    active[f] = static_cast<FlowIndex>(f);
  }

  ReferenceContext ctx{link_capacities, &flow_paths, link_offsets,
                       link_flow_arena, flow_weights};
  FairShareSolver<ReferenceContext> solver;
  solver.resize(num_links, num_flows);
  std::vector<double> rates(num_flows, 0.0);
  solver.solve(ctx, used, weight_sums, active, rates);
  return rates;
}

}  // namespace nestflow
