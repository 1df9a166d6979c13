#include "flowsim/dag.hpp"

#include <algorithm>
#include <stdexcept>

namespace nestflow {

DependencyDag::DependencyDag(const TrafficProgram& program) {
  const std::uint32_t n = program.num_flows();
  const auto& deps = program.dependencies();
  offsets_.assign(n + 1, 0);
  for (const auto& [before, after] : deps) {
    if (before >= n || after >= n) {
      throw std::invalid_argument("DependencyDag: edge references missing flow");
    }
    ++offsets_[before + 1];
  }
  for (std::uint32_t i = 0; i < n; ++i) offsets_[i + 1] += offsets_[i];

  // Scatter in program order, with each row's start as its cursor: after
  // this loop offsets_[f] holds the end of row f, the start of row f + 1.
  children_.resize(deps.size());
  for (const auto& [before, after] : deps) {
    children_[offsets_[before]++] = after;
  }

  // Sort and deduplicate each row, compacting the rows leftwards and
  // restoring offsets_[f] to the (new) start of row f.
  pending_parents_.assign(n, 0);
  std::uint32_t write = 0;
  std::uint32_t row_begin = 0;
  for (FlowIndex f = 0; f < n; ++f) {
    const std::uint32_t row_end = offsets_[f];
    const auto first = children_.begin() + row_begin;
    const auto last = children_.begin() + row_end;
    if (!std::is_sorted(first, last)) std::sort(first, last);
    offsets_[f] = write;
    for (std::uint32_t i = row_begin; i < row_end; ++i) {
      const FlowIndex child = children_[i];
      if (write != offsets_[f] && children_[write - 1] == child) continue;
      children_[write++] = child;
      ++pending_parents_[child];
    }
    row_begin = row_end;
  }
  offsets_[n] = write;
  children_.resize(write);

  roots_.clear();
  for (FlowIndex f = 0; f < n; ++f) {
    if (pending_parents_[f] == 0) roots_.push_back(f);
  }

  // Kahn's algorithm, one layer at a time, doubles as cycle detection and
  // depth computation: a flow joins the layer after its last parent's, so
  // layer k holds the flows whose longest chain from a root has k edges.
  std::vector<std::uint32_t> remaining = pending_parents_;
  std::vector<FlowIndex> queue;
  queue.reserve(n);
  queue.assign(roots_.begin(), roots_.end());
  std::uint32_t layers = 0;
  for (std::size_t head = 0; head < queue.size(); ++layers) {
    const std::size_t layer_end = queue.size();
    for (; head < layer_end; ++head) {
      for (const FlowIndex child : children(queue[head])) {
        if (--remaining[child] == 0) queue.push_back(child);
      }
    }
  }
  depth_ = layers == 0 ? 0 : layers - 1;
  if (queue.size() != n) {
    throw std::invalid_argument("DependencyDag: dependency cycle detected (" +
                                std::to_string(n - queue.size()) +
                                " flows unreachable)");
  }
}

std::span<const FlowIndex> DependencyDag::children(FlowIndex f) const {
  if (f >= num_flows()) {
    throw std::out_of_range("DependencyDag::children: bad flow");
  }
  return {children_.data() + offsets_[f], offsets_[f + 1] - offsets_[f]};
}

}  // namespace nestflow
