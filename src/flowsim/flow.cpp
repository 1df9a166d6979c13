#include "flowsim/flow.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace nestflow {

FlowIndex TrafficProgram::add_flow(std::uint32_t src, std::uint32_t dst,
                                   double bytes, double release_seconds) {
  if (bytes < 0.0) {
    throw std::invalid_argument("TrafficProgram: negative flow size");
  }
  if (!(release_seconds >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument("TrafficProgram: bad release time");
  }
  has_release_times_ |= release_seconds > 0.0;
  flows_.push_back(FlowSpec{src, dst, bytes, release_seconds, 1.0, false});
  return static_cast<FlowIndex>(flows_.size() - 1);
}

FlowIndex TrafficProgram::add_sync() {
  flows_.push_back(FlowSpec{0, 0, 0.0, 0.0, 1.0, true});
  return static_cast<FlowIndex>(flows_.size() - 1);
}

void TrafficProgram::set_flow_weight(FlowIndex f, double weight) {
  if (!(weight > 0.0) || !std::isfinite(weight)) {
    throw std::invalid_argument("TrafficProgram: weight must be positive");
  }
  flows_.at(f).weight = weight;
}

void TrafficProgram::add_dependency(FlowIndex before, FlowIndex after) {
  if (before == after) {
    throw std::invalid_argument("TrafficProgram: self-dependency");
  }
  deps_.emplace_back(before, after);
}

FlowIndex TrafficProgram::add_barrier(std::span<const FlowIndex> before,
                                      std::span<const FlowIndex> after) {
  const FlowIndex sync = add_sync();
  for (const FlowIndex f : before) add_dependency(f, sync);
  for (const FlowIndex f : after) add_dependency(sync, f);
  return sync;
}

double TrafficProgram::total_bytes() const noexcept {
  double total = 0.0;
  for (const auto& f : flows_) {
    if (!f.is_sync) total += f.bytes;
  }
  return total;
}

std::uint32_t TrafficProgram::num_data_flows() const noexcept {
  std::uint32_t count = 0;
  for (const auto& f : flows_) {
    if (!f.is_sync) ++count;
  }
  return count;
}

void TrafficProgram::validate(std::uint32_t num_endpoints) const {
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const auto& f = flows_[i];
    if (f.is_sync) continue;
    if (f.src >= num_endpoints || f.dst >= num_endpoints) {
      throw std::invalid_argument("TrafficProgram: flow " + std::to_string(i) +
                                  " references endpoint out of range");
    }
  }
}

void TrafficProgram::reserve(std::size_t flows, std::size_t deps) {
  flows_.reserve(flows);
  deps_.reserve(deps);
}

}  // namespace nestflow
