// Multi-tier hybrid topologies: a lower tier of disjoint 3-D subtori nested
// under an upper tier that is either a fat-tree (NestTree) or a generalised
// hypercube (NestGHC) — the paper's core contribution (§4.2-4.3).
//
// System shape: N = Gx*Gy*Gz QFDBs on a global grid tiled by t^3 subtori
// (t nodes per dimension, each subtorus a wrapped t x t x t torus on its own
// backplane links; there are NO direct links between subtori). A fraction
// 1/u of the QFDBs own uplinks into the upper tier, placed by the
// connection rules of Fig. 3 (on local subtorus coordinates):
//
//   u=1: every node;
//   u=2: nodes with even X (every other node along X — a non-uplinked node
//        has an uplinked neighbour one hop away in X);
//   u=4: the two opposite vertices (all-even, all-odd) of each 2x2x2
//        subgrid — every node is at most one hop from an uplinked node;
//   u=8: the all-even root of each 2x2x2 subgrid — nodes reach their
//        uplinked root in at most 3 hops.
//
// Routing (§4.2): traffic between nodes of the same subtorus stays inside
// the subtorus (DOR). Between subtori: DOR from the source to its
// designated uplinked node, minimal routing across the upper tier
// (UP*/DOWN* or e-cube), then DOR from the destination's designated
// uplinked node to the destination.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "topo/fattree.hpp"
#include "topo/ghc.hpp"
#include "topo/topology.hpp"
#include "topo/torus.hpp"

namespace nestflow {

enum class UpperTierKind : std::uint8_t { kFattree, kGhc };

struct NestedConfig {
  /// Global grid of QFDBs; every dimension must be a positive multiple of t.
  std::array<std::uint32_t, 3> global_dims{};
  /// Subtorus nodes per dimension (t in the paper); must be even unless u=1.
  std::uint32_t t = 2;
  /// Uplink thinning: one uplink per u QFDBs; u in {1, 2, 4, 8}.
  std::uint32_t u = 1;
  UpperTierKind upper = UpperTierKind::kFattree;
  double link_bps = kDefaultLinkBps;
  /// Upper-tier shape overrides; empty selects the paper's rules
  /// (paper_fattree_arities / balanced_ghc_dims over U = N/u uplinks).
  std::vector<std::uint32_t> upper_arities;  // fat-tree down arities
  std::vector<std::uint32_t> upper_dims;     // GHC dimensions

  [[nodiscard]] std::uint64_t num_nodes() const noexcept {
    return static_cast<std::uint64_t>(global_dims[0]) * global_dims[1] *
           global_dims[2];
  }
  [[nodiscard]] std::uint64_t num_uplinked() const noexcept {
    return num_nodes() / u;
  }
  /// Throws std::invalid_argument on any constraint violation.
  void validate() const;
};

class NestedTopology final : public Topology {
 public:
  explicit NestedTopology(NestedConfig config);

  [[nodiscard]] const NestedConfig& config() const noexcept { return config_; }
  [[nodiscard]] const GridShape& global_shape() const noexcept {
    return global_shape_;
  }
  [[nodiscard]] const GridShape& subtorus_shape() const noexcept {
    return subtorus_shape_;
  }
  [[nodiscard]] std::uint32_t num_subtori() const noexcept {
    return subtorus_grid_.size();
  }

  /// Subtorus id of an endpoint (x-major over the grid of subtori).
  [[nodiscard]] std::uint32_t subtorus_of(std::uint32_t endpoint) const;
  /// Is this endpoint connected to the upper tier?
  [[nodiscard]] bool is_uplinked(std::uint32_t endpoint) const {
    return uplink_rank_[endpoint] != kInvalidNode;
  }
  /// The uplinked node this endpoint routes through to leave its subtorus
  /// (itself when uplinked).
  [[nodiscard]] std::uint32_t designated_uplink(std::uint32_t endpoint) const {
    return designated_uplink_[endpoint];
  }
  /// Rank of an uplinked endpoint among all uplinked endpoints (its
  /// leaf/server index in the upper tier); kInvalidNode if not uplinked.
  [[nodiscard]] std::uint32_t uplink_rank(std::uint32_t endpoint) const {
    return uplink_rank_[endpoint];
  }
  /// Number of switches in the upper tier.
  [[nodiscard]] std::uint64_t num_upper_switches() const;

  void route(std::uint32_t src, std::uint32_t dst, Path& path) const override;
  /// Adaptive up-port choice in the fat-tree upper tier (NestTree only);
  /// subtorus DOR and GHC e-cube segments stay deterministic.
  void route_adaptive(std::uint32_t src, std::uint32_t dst, Path& path,
                      const LinkLoads& loads) const override;
  /// NestTree only: NestGHC's adaptive route is its deterministic one.
  [[nodiscard]] bool route_adaptive_reads_loads() const noexcept override {
    return fattree_ != nullptr;
  }
  /// Reference implementation of route() via graph lookups in every
  /// segment, kept for the arithmetic-equivalence tests (test_arith_routes).
  void route_lookup(std::uint32_t src, std::uint32_t dst, Path& path) const;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>
  adversarial_pairs() const override;

  /// Hop count of route() without materialising the path.
  [[nodiscard]] std::uint32_t route_distance(std::uint32_t src,
                                             std::uint32_t dst) const override;

 private:
  void route_impl(std::uint32_t src, std::uint32_t dst, Path& path,
                  const LinkLoads* loads) const;
  /// DOR between two endpoints of the same subtorus, in local index space.
  void route_within_subtorus(std::uint32_t src, std::uint32_t dst,
                             Path& path) const;
  void route_within_subtorus_lookup(std::uint32_t src, std::uint32_t dst,
                                    Path& path) const;
  [[nodiscard]] std::uint32_t local_index(std::uint32_t endpoint) const;
  [[nodiscard]] std::uint32_t subtorus_first_node(std::uint32_t subtorus) const;

  NestedConfig config_;
  GridShape global_shape_;
  GridShape subtorus_shape_;   // t x t x t
  GridShape subtorus_grid_;    // grid of subtori
  std::vector<std::uint32_t> uplink_rank_;        // per endpoint
  std::vector<std::uint32_t> designated_uplink_;  // per endpoint
  std::vector<std::uint32_t> uplinked_nodes_;     // rank -> endpoint
  std::uint32_t subtorus_cables_ = 0;             // duplex cables per subtorus
  // Maps a global endpoint id to its subtorus-local linear index and back:
  // endpoints are numbered x-major over the *global* grid, while subtorus
  // wiring and DOR work on local t^3 indices.
  std::unique_ptr<FattreeTier> fattree_;
  std::unique_ptr<GhcTier> ghc_;
};

}  // namespace nestflow
