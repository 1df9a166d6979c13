#include "topo/nested.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace nestflow {

void NestedConfig::validate() const {
  if (t < 2) {
    throw std::invalid_argument("NestedConfig: t must be >= 2");
  }
  if (u != 1 && u != 2 && u != 4 && u != 8) {
    throw std::invalid_argument("NestedConfig: u must be 1, 2, 4 or 8");
  }
  if (u > 1 && t % 2 != 0) {
    throw std::invalid_argument(
        "NestedConfig: connection rules for u > 1 need even t");
  }
  for (const auto g : global_dims) {
    if (g == 0 || g % t != 0) {
      throw std::invalid_argument(
          "NestedConfig: global dims must be positive multiples of t");
    }
  }
  if (num_nodes() % u != 0) {
    throw std::invalid_argument("NestedConfig: node count not divisible by u");
  }
  if (!upper_arities.empty() && upper != UpperTierKind::kFattree) {
    throw std::invalid_argument("NestedConfig: upper_arities needs fattree");
  }
  if (!upper_dims.empty() && upper != UpperTierKind::kGhc) {
    throw std::invalid_argument("NestedConfig: upper_dims needs ghc");
  }
  if (!upper_arities.empty() && dims_product(upper_arities) != num_uplinked()) {
    throw std::invalid_argument(
        "NestedConfig: upper_arities product != uplink count");
  }
  if (!upper_dims.empty() && dims_product(upper_dims) != num_uplinked()) {
    throw std::invalid_argument(
        "NestedConfig: upper_dims product != uplink count");
  }
}

namespace {

GridShape make_subtorus_grid(const NestedConfig& config) {
  return GridShape({config.global_dims[0] / config.t,
                    config.global_dims[1] / config.t,
                    config.global_dims[2] / config.t});
}

/// Is a node at the given local subtorus coordinates uplinked under rule u?
bool uplinked_at(std::uint32_t u, std::uint32_t lx, std::uint32_t ly,
                 std::uint32_t lz) {
  switch (u) {
    case 1: return true;
    case 2: return lx % 2 == 0;
    case 4: {
      const bool all_even = lx % 2 == 0 && ly % 2 == 0 && lz % 2 == 0;
      const bool all_odd = lx % 2 == 1 && ly % 2 == 1 && lz % 2 == 1;
      return all_even || all_odd;
    }
    case 8: return lx % 2 == 0 && ly % 2 == 0 && lz % 2 == 0;
    default: return false;
  }
}

/// Local coordinates of the designated uplinked node for (lx, ly, lz).
std::array<std::uint32_t, 3> designated_at(std::uint32_t u, std::uint32_t lx,
                                           std::uint32_t ly, std::uint32_t lz) {
  switch (u) {
    case 1: return {lx, ly, lz};
    case 2: return {lx & ~1u, ly, lz};
    case 4: {
      // Two opposite vertices of the 2x2x2 subgrid; pick the nearer one
      // (at most 1 hop away — Fig. 3c).
      const std::uint32_t odd_count = (lx & 1u) + (ly & 1u) + (lz & 1u);
      if (odd_count <= 1) return {lx & ~1u, ly & ~1u, lz & ~1u};
      return {(lx & ~1u) + 1, (ly & ~1u) + 1, (lz & ~1u) + 1};
    }
    case 8: return {lx & ~1u, ly & ~1u, lz & ~1u};
    default: return {lx, ly, lz};
  }
}

}  // namespace

NestedTopology::NestedTopology(NestedConfig config)
    : config_(std::move(config)),
      global_shape_({config_.global_dims[0], config_.global_dims[1],
                     config_.global_dims[2]}),
      subtorus_shape_({config_.t, config_.t, config_.t}),
      subtorus_grid_(make_subtorus_grid(config_)) {
  config_.validate();
  const std::uint32_t n = global_shape_.size();

  GraphBuilder builder;
  builder.add_nodes(NodeKind::kEndpoint, n);

  // Lower tier: one wrapped t^3 torus per subtorus. Nodes are numbered
  // x-major over the *global* grid, so map local indices through the global
  // coordinate system.
  const std::uint32_t t = config_.t;
  subtorus_cables_ = torus_num_cables(subtorus_shape_);
  std::array<std::uint32_t, 3> sub_coords{};
  for (std::uint32_t sub = 0; sub < subtorus_grid_.size(); ++sub) {
    // The loop below emits cables in ascending local x-major index with
    // dimensions ascending per node — exactly wire_torus's order over the
    // t^3 shape — so subtorus `sub` owns the contiguous link range
    // [2 * subtorus_cables_ * sub, 2 * subtorus_cables_ * (sub + 1)) and
    // route_within_subtorus can reconstruct hop ids arithmetically.
    assert(builder.num_links() == 2 * subtorus_cables_ * sub);
    subtorus_grid_.coords_of(sub, sub_coords);
    const std::array<std::uint32_t, 3> base = {
        sub_coords[0] * t, sub_coords[1] * t, sub_coords[2] * t};
    const auto node_of = [&](std::uint32_t lx, std::uint32_t ly,
                             std::uint32_t lz) {
      const std::array<std::uint32_t, 3> g = {base[0] + lx, base[1] + ly,
                                              base[2] + lz};
      return global_shape_.index_of(g);
    };
    // Wire each dimension's rings; d == 2 collapses +1/-1 into one cable.
    for (std::uint32_t lz = 0; lz < t; ++lz) {
      for (std::uint32_t ly = 0; ly < t; ++ly) {
        for (std::uint32_t lx = 0; lx < t; ++lx) {
          const NodeId here = node_of(lx, ly, lz);
          if (t > 2 || lx == 0) {
            builder.add_duplex(here, node_of((lx + 1) % t, ly, lz),
                               config_.link_bps, LinkClass::kTorus);
          }
          if (t > 2 || ly == 0) {
            builder.add_duplex(here, node_of(lx, (ly + 1) % t, lz),
                               config_.link_bps, LinkClass::kTorus);
          }
          if (t > 2 || lz == 0) {
            builder.add_duplex(here, node_of(lx, ly, (lz + 1) % t),
                               config_.link_bps, LinkClass::kTorus);
          }
        }
      }
    }
  }

  // Uplink placement and designation (Fig. 3 connection rules).
  uplink_rank_.assign(n, kInvalidNode);
  designated_uplink_.assign(n, kInvalidNode);
  uplinked_nodes_.clear();
  std::array<std::uint32_t, 3> g{};
  for (std::uint32_t node = 0; node < n; ++node) {
    global_shape_.coords_of(node, g);
    const std::uint32_t lx = g[0] % t, ly = g[1] % t, lz = g[2] % t;
    if (uplinked_at(config_.u, lx, ly, lz)) {
      uplink_rank_[node] = static_cast<std::uint32_t>(uplinked_nodes_.size());
      uplinked_nodes_.push_back(node);
    }
    const auto d = designated_at(config_.u, lx, ly, lz);
    const std::array<std::uint32_t, 3> dg = {g[0] - lx + d[0], g[1] - ly + d[1],
                                             g[2] - lz + d[2]};
    designated_uplink_[node] = global_shape_.index_of(dg);
  }
  if (uplinked_nodes_.size() != config_.num_uplinked()) {
    throw std::logic_error("NestedTopology: uplink census mismatch");
  }

  // Upper tier over the uplinked nodes, in rank order.
  std::vector<NodeId> attach(uplinked_nodes_.begin(), uplinked_nodes_.end());
  if (config_.upper == UpperTierKind::kFattree) {
    auto arities = config_.upper_arities.empty()
                       ? paper_fattree_arities(attach.size())
                       : config_.upper_arities;
    fattree_ = std::make_unique<FattreeTier>(builder, std::move(attach),
                                             std::move(arities),
                                             config_.link_bps,
                                             LinkClass::kUplink);
  } else {
    auto dims = config_.upper_dims.empty()
                    ? balanced_ghc_dims(attach.size())
                    : config_.upper_dims;
    ghc_ = std::make_unique<GhcTier>(builder, std::move(attach),
                                     std::move(dims), config_.link_bps,
                                     LinkClass::kUplink);
  }

  adopt_graph(std::move(builder).build(config_.link_bps));

  // Every designated uplink must itself be uplinked and in the same
  // subtorus — the routing below relies on both.
  for (std::uint32_t node = 0; node < n; ++node) {
    assert(is_uplinked(designated_uplink_[node]));
    assert(subtorus_of(designated_uplink_[node]) == subtorus_of(node));
  }
}

std::uint32_t NestedTopology::subtorus_of(std::uint32_t endpoint) const {
  const std::uint32_t t = config_.t;
  std::array<std::uint32_t, 3> g{};
  global_shape_.coords_of(endpoint, g);
  const std::array<std::uint32_t, 3> s = {g[0] / t, g[1] / t, g[2] / t};
  return subtorus_grid_.index_of(s);
}

std::uint32_t NestedTopology::local_index(std::uint32_t endpoint) const {
  const std::uint32_t t = config_.t;
  std::array<std::uint32_t, 3> g{};
  global_shape_.coords_of(endpoint, g);
  const std::array<std::uint32_t, 3> l = {g[0] % t, g[1] % t, g[2] % t};
  return subtorus_shape_.index_of(l);
}

std::uint64_t NestedTopology::num_upper_switches() const {
  return fattree_ ? fattree_->num_switches() : ghc_->num_switches();
}

void NestedTopology::route_within_subtorus(std::uint32_t src,
                                           std::uint32_t dst,
                                           Path& path) const {
  if (src == dst) return;
  // DOR on local coordinates with closed-form link ids: the subtorus owns a
  // contiguous block of cables laid out in wire_torus order (see the
  // constructor), so the local walk never touches the graph.
  route_torus_dor_arith(subtorus_shape_,
                        2 * subtorus_cables_ * subtorus_of(src),
                        local_index(src), local_index(dst), path);
}

void NestedTopology::route_within_subtorus_lookup(std::uint32_t src,
                                                  std::uint32_t dst,
                                                  Path& path) const {
  if (src == dst) return;
  // DOR on local coordinates; each local step is translated back into a
  // global node pair to find the physical link.
  const std::uint32_t t = config_.t;
  std::array<std::uint32_t, 3> g{};
  global_shape_.coords_of(src, g);
  const std::array<std::uint32_t, 3> base = {g[0] - g[0] % t, g[1] - g[1] % t,
                                             g[2] - g[2] % t};
  std::array<std::uint32_t, 3> cur = {g[0] % t, g[1] % t, g[2] % t};
  std::array<std::uint32_t, 3> goal{};
  global_shape_.coords_of(dst, goal);
  for (auto& c : goal) c %= t;

  std::uint32_t cur_node = src;
  for (std::uint32_t dim = 0; dim < 3; ++dim) {
    while (cur[dim] != goal[dim]) {
      const std::uint32_t forward = (goal[dim] + t - cur[dim]) % t;
      const bool go_forward = forward <= t - forward;
      cur[dim] = go_forward ? (cur[dim] + 1) % t : (cur[dim] + t - 1) % t;
      const std::array<std::uint32_t, 3> next_g = {
          base[0] + cur[0], base[1] + cur[1], base[2] + cur[2]};
      const std::uint32_t next_node = global_shape_.index_of(next_g);
      append_hop(cur_node, next_node, path);
      cur_node = next_node;
    }
  }
}

void NestedTopology::route(std::uint32_t src, std::uint32_t dst,
                           Path& path) const {
  route_impl(src, dst, path, nullptr);
}

void NestedTopology::route_adaptive(std::uint32_t src, std::uint32_t dst,
                                    Path& path, const LinkLoads& loads) const {
  route_impl(src, dst, path, &loads);
}

void NestedTopology::route_impl(std::uint32_t src, std::uint32_t dst,
                                Path& path, const LinkLoads* loads) const {
  path.clear();
  if (src == dst) return;
  if (subtorus_of(src) == subtorus_of(dst)) {
    route_within_subtorus(src, dst, path);
    return;
  }
  const std::uint32_t a = designated_uplink_[src];
  const std::uint32_t b = designated_uplink_[dst];
  route_within_subtorus(src, a, path);
  if (fattree_) {
    fattree_->route(graph(), uplink_rank_[a], uplink_rank_[b], path, loads);
  } else {
    ghc_->route(graph(), uplink_rank_[a], uplink_rank_[b], path);
  }
  route_within_subtorus(b, dst, path);
}

void NestedTopology::route_lookup(std::uint32_t src, std::uint32_t dst,
                                  Path& path) const {
  path.clear();
  if (src == dst) return;
  if (subtorus_of(src) == subtorus_of(dst)) {
    route_within_subtorus_lookup(src, dst, path);
    return;
  }
  const std::uint32_t a = designated_uplink_[src];
  const std::uint32_t b = designated_uplink_[dst];
  route_within_subtorus_lookup(src, a, path);
  if (fattree_) {
    fattree_->route_lookup(graph(), uplink_rank_[a], uplink_rank_[b], path);
  } else {
    ghc_->route_lookup(graph(), uplink_rank_[a], uplink_rank_[b], path);
  }
  route_within_subtorus_lookup(b, dst, path);
}

std::uint32_t NestedTopology::route_distance(std::uint32_t src,
                                             std::uint32_t dst) const {
  if (src == dst) return 0;
  const auto local_dor = [&](std::uint32_t from, std::uint32_t to) {
    return torus_dor_distance(subtorus_shape_, local_index(from),
                              local_index(to));
  };
  if (subtorus_of(src) == subtorus_of(dst)) return local_dor(src, dst);
  const std::uint32_t a = designated_uplink_[src];
  const std::uint32_t b = designated_uplink_[dst];
  const std::uint32_t upper =
      fattree_ ? fattree_->route_distance(uplink_rank_[a], uplink_rank_[b])
               : ghc_->route_distance(uplink_rank_[a], uplink_rank_[b]);
  return local_dor(src, a) + upper + local_dor(b, dst);
}

std::string NestedTopology::name() const {
  std::ostringstream out;
  out << (config_.upper == UpperTierKind::kFattree ? "NestTree" : "NestGHC")
      << "(t=" << config_.t << ",u=" << config_.u << ")";
  return out.str();
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
NestedTopology::adversarial_pairs() const {
  const std::uint32_t t = config_.t;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;

  // Intra-subtorus worst case: antipodal nodes of subtorus 0.
  const std::uint32_t antipode =
      global_shape_.index_of({t / 2, t / 2, t / 2});
  pairs.emplace_back(0u, antipode);

  // Inter-subtorus candidates: locally uplink-remote positions in the first
  // and last subtorus, whose designated uplinks sit at opposite ends of the
  // upper-tier rank space (maximising differing digits / NCA height).
  const std::array<std::uint32_t, 3> last_base = {
      config_.global_dims[0] - t, config_.global_dims[1] - t,
      config_.global_dims[2] - t};
  const std::array<std::array<std::uint32_t, 3>, 4> locals = {{
      {1 % t, 1 % t, 1 % t},
      {t - 1, t - 1, t - 1},
      {1 % t, 0, 0},
      {t / 2, t / 2, t / 2},
  }};
  for (const auto& ls : locals) {
    for (const auto& ld : locals) {
      const std::uint32_t s = global_shape_.index_of({ls[0], ls[1], ls[2]});
      const std::uint32_t d = global_shape_.index_of(
          {last_base[0] + ld[0], last_base[1] + ld[1], last_base[2] + ld[2]});
      pairs.emplace_back(s, d);
    }
  }
  return pairs;
}

}  // namespace nestflow
