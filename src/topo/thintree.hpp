// k:k'-ary n-tree ("thin tree") — the reduced-complexity tree topology of
// Navaridas et al., "Reducing complexity in tree-like computer
// interconnection networks" (the paper's reference [29], cited among the
// tree-like families in §2). Like a k-ary n-tree but each switch exposes
// only k' <= k up-links, giving a k/k' oversubscription per stage: the
// canonical way to trade bisection bandwidth for switch count. With
// k' == k this is exactly the k-ary n-tree.
//
// Structure: k^n leaves; a stage-s switch (s = 1..n) is labelled by
// (A, B) where A in [0,k)^(n-s) fixes the leaf subtree (leaf digits
// s+1..n) and B in [0,k')^(s-1) selects one of the thinning copies, so
// stage s has k^(n-s) * k'^(s-1) switches with k down and k' up ports.
// Switch (A, B) at stage s connects up to ((a_2..a_{n-s}), B·c) for every
// c in [0, k').
//
// Routing is minimal UP*/DOWN*: ascend to the nearest common ancestor
// stage m (choosing the copy digit c per step — deterministically from the
// destination, or adaptively by congestion cost), then descend, which is
// fully determined (prepend the destination digit, drop the last copy
// digit).
#pragma once

#include "topo/topology.hpp"

namespace nestflow {

class ThinTreeTopology final : public Topology {
 public:
  struct Params {
    std::uint32_t k = 4;       // down arity
    std::uint32_t k_up = 2;    // up-links per switch (k' <= k)
    std::uint32_t levels = 3;  // n
    double link_bps = kDefaultLinkBps;
  };

  explicit ThinTreeTopology(Params params);

  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t num_switches() const noexcept;
  /// k^(n-s) * k'^(s-1) for 1-based stage s.
  [[nodiscard]] std::uint32_t switches_at_stage(std::uint32_t stage) const;

  void route(std::uint32_t src, std::uint32_t dst, Path& path) const override;
  void route_adaptive(std::uint32_t src, std::uint32_t dst, Path& path,
                      const LinkLoads& loads) const override;
  [[nodiscard]] bool route_adaptive_reads_loads() const noexcept override {
    return true;
  }
  /// Reference implementation of route() via graph lookups (append_hop),
  /// kept for the arithmetic-equivalence tests (test_arith_routes).
  void route_lookup(std::uint32_t src, std::uint32_t dst, Path& path,
                    const LinkLoads* loads = nullptr) const;
  [[nodiscard]] std::uint32_t route_distance(std::uint32_t src,
                                             std::uint32_t dst) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>
  adversarial_pairs() const override;

 private:
  void route_impl(std::uint32_t src, std::uint32_t dst, Path& path,
                  const LinkLoads* loads) const;
  void route_lookup_impl(std::uint32_t src, std::uint32_t dst, Path& path,
                         const LinkLoads* loads) const;
  /// Closed-form id of the stage-s switch (a, b) -> stage-(s+1) link
  /// through copy digit `c`; the reverse is `+ 1`. Stage pair s emits its
  /// cables (a-major, then b, then c) starting at stage_pair_first_[s - 1].
  [[nodiscard]] LinkId up_link_id(std::uint32_t stage, std::uint32_t a_index,
                                  std::uint32_t b_index,
                                  std::uint32_t c) const noexcept {
    return stage_pair_first_[stage - 1] +
           2 * ((a_index * stage_b_count_[stage - 1] + b_index) *
                    params_.k_up +
                c);
  }
  /// Node id of the stage-s switch with subtree index A and copy index B.
  [[nodiscard]] NodeId switch_node(std::uint32_t stage, std::uint32_t a_index,
                                   std::uint32_t b_index) const;
  /// Leaf digit at 1-based position (radix-k digit of the leaf index).
  [[nodiscard]] std::uint32_t leaf_digit(std::uint32_t leaf,
                                         std::uint32_t position) const;

  Params params_;
  std::vector<NodeId> stage_first_switch_;   // per stage (0-based)
  std::vector<std::uint32_t> stage_a_count_; // k^(n-s)
  std::vector<std::uint32_t> stage_b_count_; // k'^(s-1)
  LinkId first_link_ = 0;                    // first leaf-to-stage-1 cable
  std::vector<LinkId> stage_pair_first_;     // first cable of pair s -> s+1
};

}  // namespace nestflow
