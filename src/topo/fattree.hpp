// Generalised k-ary n-tree (fat-tree).
//
// The construction generalises the classic k-ary n-tree to per-stage down
// arities (d_1, ..., d_n): leaves are labelled by mixed-radix digit vectors
// (c_1, ..., c_n) with c_s in [0, d_s); the stage-s switches carry every
// digit except position s (so stage s has U/d_s switches with d_s down and
// d_s up ports — full bisection at every stage, i.e. non-blocking, matching
// the paper's "no over-subscription is applied" setting). With all
// d_s = k this is exactly the k-ary n-tree of Petrini & Vanneschi.
//
// The paper's full-scale reference fat-tree uses 3 stages with arities
// (32, 32, 128): 9216 switches over 131,072 endpoints (Table 2 caption).
//
// Routing is minimal UP*/DOWN*: ascend to the nearest common ancestor
// stage m = max{ s : c_s != e_s }, then descend. Ascent up-port choices are
// destination-digit based (d-mod-k style), which gives every destination a
// dedicated down-path through the upper stages.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topo/topology.hpp"

namespace nestflow {

/// Wires a fat-tree above an arbitrary ordered set of leaf nodes and routes
/// between leaf indices. Reused by FatTreeTopology (leaves = endpoints) and
/// by NestedTopology (leaves = uplinked QFDBs).
class FattreeTier {
 public:
  /// leaves.size() must equal the product of down_arities (each >= 2).
  /// Leaf-to-stage-1 links get `leaf_link_class`; switch-to-switch links are
  /// LinkClass::kUpper. Switch nodes are created in `builder`.
  FattreeTier(GraphBuilder& builder, std::vector<NodeId> leaves,
              std::vector<std::uint32_t> down_arities, double link_bps,
              LinkClass leaf_link_class);

  /// Appends the UP*/DOWN* route between two distinct leaf indices. When
  /// `loads` is non-null, each ascent step picks the least-loaded up-link
  /// among the d_s candidates (ties prefer the destination digit, i.e. the
  /// deterministic d-mod-k choice); descent is always destination-routed.
  /// Link ids are computed arithmetically from the wiring layout (every
  /// stage pair emits exactly num_leaves() cables, label-major); the graph
  /// is not consulted.
  void route(const Graph& graph, std::uint32_t leaf_src,
             std::uint32_t leaf_dst, Path& path,
             const LinkLoads* loads = nullptr) const;

  /// Reference implementation of route() via graph.find_link, kept for the
  /// arithmetic-equivalence tests (test_arith_routes).
  void route_lookup(const Graph& graph, std::uint32_t leaf_src,
                    std::uint32_t leaf_dst, Path& path,
                    const LinkLoads* loads = nullptr) const;

  /// Closed-form id of the leaf -> stage-1 link; the reverse is `+ 1`.
  [[nodiscard]] LinkId leaf_link_id(std::uint32_t leaf) const noexcept {
    return first_link_ + 2 * leaf;
  }
  /// Closed-form id of the stage-s -> stage-(s+1) link from the stage-s
  /// switch `label` through up-port digit `v` (the upper switch's
  /// position-s digit); the reverse is `+ 1`.
  [[nodiscard]] LinkId up_link_id(std::uint32_t stage, std::uint32_t label,
                                  std::uint32_t v) const noexcept {
    return first_link_ + 2 * num_leaves() * stage +
           2 * (label * arities_[stage - 1] + v);
  }

  /// Hops route() will take: 2 * (highest differing digit position + 1).
  [[nodiscard]] std::uint32_t route_distance(std::uint32_t leaf_src,
                                             std::uint32_t leaf_dst) const;

  [[nodiscard]] std::uint32_t num_stages() const noexcept {
    return static_cast<std::uint32_t>(arities_.size());
  }
  [[nodiscard]] std::uint32_t num_leaves() const noexcept {
    return static_cast<std::uint32_t>(leaves_.size());
  }
  [[nodiscard]] std::uint64_t num_switches() const noexcept;
  [[nodiscard]] const std::vector<std::uint32_t>& arities() const noexcept {
    return arities_;
  }

  /// Switch node id by 1-based stage and label index (label = mixed-radix
  /// flattening of the digit vector with position `stage` removed).
  [[nodiscard]] NodeId switch_node(std::uint32_t stage,
                                   std::uint32_t label) const;

  /// Stage-count ceiling for the fixed-size digit scratch route() uses
  /// (leaves fit a std::uint32_t and arities are >= 2, so 32 always holds).
  static constexpr std::uint32_t kMaxStages = 32;

 private:
  void decode_leaf(std::uint32_t leaf, std::vector<std::uint32_t>& digits) const;
  [[nodiscard]] std::uint32_t switch_label(
      std::span<const std::uint32_t> digits, std::uint32_t stage) const;

  std::vector<NodeId> leaves_;
  std::vector<std::uint32_t> arities_;       // d_1 .. d_n
  std::vector<NodeId> stage_first_switch_;   // per stage (0-based entry s-1)
  std::vector<std::uint32_t> stage_count_;   // switches per stage
  LinkId first_link_ = 0;                    // first leaf-to-stage-1 cable
};

/// The arity rule the paper's Table 2 switch counts follow: stages of down
/// arity 32 until fewer than 1024 leaves-per-switch-group remain, with the
/// top stage absorbing the remainder (U = 2^17 -> (32, 32, 128)). Small U
/// degrades gracefully to fewer stages.
[[nodiscard]] std::vector<std::uint32_t> paper_fattree_arities(
    std::uint64_t num_leaves);

class FatTreeTopology final : public Topology {
 public:
  /// Standalone fat-tree with endpoints as leaves.
  explicit FatTreeTopology(std::vector<std::uint32_t> down_arities,
                           double link_bps = kDefaultLinkBps);

  [[nodiscard]] const FattreeTier& tier() const noexcept { return *tier_; }

  void route(std::uint32_t src, std::uint32_t dst, Path& path) const override;
  void route_adaptive(std::uint32_t src, std::uint32_t dst, Path& path,
                      const LinkLoads& loads) const override;
  [[nodiscard]] bool route_adaptive_reads_loads() const noexcept override {
    return true;
  }
  [[nodiscard]] std::uint32_t route_distance(
      std::uint32_t src, std::uint32_t dst) const override {
    return tier_->route_distance(src, dst);
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>
  adversarial_pairs() const override;

 private:
  std::unique_ptr<FattreeTier> tier_;
};

}  // namespace nestflow
