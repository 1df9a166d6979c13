#include "resilience/fault_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/prng.hpp"

namespace nestflow {

namespace {

/// Stream tag separating fault draws from workload draws on the same seed.
constexpr std::uint64_t kFaultStream = 0xfa0170;

}  // namespace

FaultModel::FaultModel(const Graph& graph)
    : graph_(&graph),
      link_alive_(graph.num_transit_links(), 1),
      node_alive_(graph.num_nodes(), 1),
      degrade_factor_(graph.num_transit_links(), 1.0) {}

void FaultModel::kill_cable(LinkId link) {
  if (link >= graph_->num_links()) {
    throw std::out_of_range("FaultModel::kill_cable: bad link id");
  }
  if (link >= graph_->num_transit_links()) {
    throw std::invalid_argument(
        "FaultModel::kill_cable: NIC links have no cable; use kill_node "
        "for endpoint failures");
  }
  const LinkId reverse = graph_->link(link).reverse;
  if (link_alive_[link] == 0) return;
  link_alive_[link] = 0;
  if (reverse != kInvalidLink) link_alive_[reverse] = 0;
  ++num_dead_cables_;
  ++epoch_;
}

void FaultModel::repair_cable(LinkId link) {
  if (link >= graph_->num_links()) {
    throw std::out_of_range("FaultModel::repair_cable: bad link id");
  }
  if (link >= graph_->num_transit_links()) {
    throw std::invalid_argument(
        "FaultModel::repair_cable: NIC links have no cable; use repair_node "
        "for endpoint repairs");
  }
  if (link_alive_[link] != 0) return;
  const LinkId reverse = graph_->link(link).reverse;
  link_alive_[link] = 1;
  if (reverse != kInvalidLink) link_alive_[reverse] = 1;
  --num_dead_cables_;
  ++epoch_;
}

void FaultModel::kill_node(NodeId node) {
  if (node >= graph_->num_nodes()) {
    throw std::out_of_range("FaultModel::kill_node: bad node id");
  }
  if (node_alive_[node] == 0) return;
  node_alive_[node] = 0;
  ++num_dead_nodes_;
  ++epoch_;
  for (const LinkId l : graph_->out_links(node)) kill_cable(l);
}

void FaultModel::repair_node(NodeId node) {
  if (node >= graph_->num_nodes()) {
    throw std::out_of_range("FaultModel::repair_node: bad node id");
  }
  if (node_alive_[node] != 0) return;
  node_alive_[node] = 1;
  --num_dead_nodes_;
  ++epoch_;
  for (const LinkId l : graph_->out_links(node)) repair_cable(l);
}

void FaultModel::degrade_cable(LinkId link, double factor) {
  if (link >= graph_->num_transit_links()) {
    throw std::out_of_range("FaultModel::degrade_cable: bad transit link id");
  }
  if (!std::isfinite(factor) || factor <= 0.0 || factor >= 1.0) {
    throw std::invalid_argument(
        "FaultModel::degrade_cable: factor must be in (0, 1); use "
        "kill_cable for dead cables");
  }
  if (degrade_factor_[link] == 1.0) ++num_degraded_cables_;
  if (degrade_factor_[link] != factor) ++epoch_;
  degrade_factor_[link] = factor;
  const LinkId reverse = graph_->link(link).reverse;
  if (reverse != kInvalidLink) degrade_factor_[reverse] = factor;
}

FaultModel FaultModel::random_cable_faults(const Graph& graph,
                                           double kill_fraction,
                                           std::uint64_t seed) {
  if (!std::isfinite(kill_fraction) || kill_fraction < 0.0 ||
      kill_fraction > 1.0) {
    throw std::invalid_argument(
        "FaultModel::random_cable_faults: kill_fraction must be in [0, 1]");
  }
  if (kill_fraction == 0.0) return FaultModel(graph);
  std::uint64_t cables = 0;
  for (LinkId l = 0; l < graph.num_transit_links(); ++l) {
    if (graph.link(l).reverse > l) ++cables;
  }
  auto kills = static_cast<std::uint64_t>(
      kill_fraction * static_cast<double>(cables));
  kills = std::max<std::uint64_t>(kills, 1);
  return random_cable_fault_count(graph, kills, seed);
}

FaultModel FaultModel::random_cable_fault_count(const Graph& graph,
                                                std::uint64_t requested,
                                                std::uint64_t seed) {
  FaultModel model(graph);
  // One id per cable: the lower-numbered direction of each duplex pair.
  // Sampling without replacement over this list makes duplicate picks
  // impossible; clamping makes over-asking well-defined.
  std::vector<LinkId> cables;
  for (LinkId l = 0; l < graph.num_transit_links(); ++l) {
    if (graph.link(l).reverse > l) cables.push_back(l);
  }
  const std::uint64_t kills =
      std::min<std::uint64_t>(requested, cables.size());
  if (kills == 0) return model;
  Prng prng(seed, kFaultStream);
  for (const auto i : prng.sample_without_replacement(cables.size(), kills)) {
    model.kill_cable(cables[i]);
  }
  return model;
}

FaultModel FaultModel::random_endpoint_faults(const Graph& graph,
                                              double kill_fraction,
                                              std::uint64_t seed) {
  if (!std::isfinite(kill_fraction) || kill_fraction < 0.0 ||
      kill_fraction > 1.0) {
    throw std::invalid_argument(
        "FaultModel::random_endpoint_faults: kill_fraction must be in "
        "[0, 1]");
  }
  if (kill_fraction == 0.0) return FaultModel(graph);
  auto kills = static_cast<std::uint64_t>(
      kill_fraction * static_cast<double>(graph.num_endpoints()));
  kills = std::max<std::uint64_t>(kills, 1);
  return random_endpoint_fault_count(graph, kills, seed);
}

FaultModel FaultModel::random_endpoint_fault_count(const Graph& graph,
                                                   std::uint64_t requested,
                                                   std::uint64_t seed) {
  FaultModel model(graph);
  const std::uint64_t endpoints = graph.num_endpoints();
  const std::uint64_t kills = std::min(requested, endpoints);
  if (kills == 0) return model;
  Prng prng(seed, kFaultStream + 1);
  for (const auto n : prng.sample_without_replacement(endpoints, kills)) {
    model.kill_node(static_cast<NodeId>(n));
  }
  return model;
}

}  // namespace nestflow
