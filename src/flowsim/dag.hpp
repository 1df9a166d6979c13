// Dependency DAG over a traffic program's flows: CSR children lists plus
// initial pending-parent counts, with cycle detection at construction so a
// malformed workload fails fast instead of deadlocking the engine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flowsim/flow.hpp"

namespace nestflow {

class DependencyDag {
 public:
  /// Throws std::invalid_argument if an edge references a missing flow or
  /// the dependency relation has a cycle; TrafficProgram::validate leaves
  /// the edges to this check.
  /// Duplicate (before, after) edges are collapsed into one. Runs in
  /// O(flows + edges) when each flow's children were added in ascending
  /// order; a flow whose children were not has its own row sorted.
  explicit DependencyDag(const TrafficProgram& program);

  [[nodiscard]] std::uint32_t num_flows() const noexcept {
    return static_cast<std::uint32_t>(pending_parents_.size());
  }

  /// Flows unblocked by the completion of `f`.
  [[nodiscard]] std::span<const FlowIndex> children(FlowIndex f) const;

  /// Starts the CSR row-offset load for `f` early (the engine's completion
  /// loop runs a software-prefetch pipeline over its harvest batch; the
  /// offsets array is its only per-flow indirection outside engine state).
  void prefetch_children(FlowIndex f) const noexcept {
    __builtin_prefetch(offsets_.data() + f);
  }

  /// Parent count per flow (how many completions each flow waits for).
  [[nodiscard]] const std::vector<std::uint32_t>& pending_parents()
      const noexcept {
    return pending_parents_;
  }

  /// Flows with no parents (runnable at t = 0).
  [[nodiscard]] const std::vector<FlowIndex>& roots() const noexcept {
    return roots_;
  }

  /// Length (in edges) of the longest dependency chain; 0 for a flat
  /// program. Useful for diagnostics and critical-path bounds.
  [[nodiscard]] std::uint32_t depth() const noexcept { return depth_; }

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<FlowIndex> children_;
  std::vector<std::uint32_t> pending_parents_;
  std::vector<FlowIndex> roots_;
  std::uint32_t depth_ = 0;
};

}  // namespace nestflow
