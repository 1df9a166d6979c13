// Traffic programs: the workload representation the flow engine executes.
//
// A program is a set of flows (src endpoint, dst endpoint, bytes) plus
// causal dependencies ("flow a must finish before flow b starts") — the
// same abstraction INRFlow uses to model application-like traffic at flow
// level. Phase barriers are expressed with zero-cost *sync* flows so that a
// barrier between two phases of k flows each costs 2k dependency edges
// instead of k^2.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace nestflow {

using FlowIndex = std::uint32_t;
inline constexpr FlowIndex kInvalidFlow = 0xffffffffu;

struct FlowSpec {
  std::uint32_t src = 0;  // endpoint index
  std::uint32_t dst = 0;  // endpoint index
  double bytes = 0.0;
  /// Earliest start time (seconds). A flow begins at
  /// max(release_seconds, all dependencies finished) — open-loop traffic
  /// (Poisson injection, job arrivals) is expressed with this.
  double release_seconds = 0.0;
  /// Bandwidth-scheduling weight (> 0): on a shared bottleneck, rates are
  /// split in proportion to weights (weighted max-min fairness). 1 = the
  /// plain fair share; >1 models prioritised/critical flows.
  double weight = 1.0;
  /// Sync flows move no data and complete instantly once their
  /// dependencies are met and their release time has passed; src/dst are
  /// ignored.
  bool is_sync = false;

  /// The (src, dst) pair packed into one word — the identity the engine's
  /// route cache keys by. Never ~0ull: endpoint ids are < 2^32 - 1 (they
  /// index a u32-counted machine), so the all-ones word is free to serve
  /// as the cache's empty-slot sentinel.
  [[nodiscard]] constexpr std::uint64_t pair_key() const noexcept {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }
};

class TrafficProgram {
 public:
  /// Adds a data flow; self-flows (src == dst) are allowed and only use the
  /// endpoint's NIC links. `release_seconds` is the earliest start time.
  FlowIndex add_flow(std::uint32_t src, std::uint32_t dst, double bytes,
                     double release_seconds = 0.0);
  /// Adds a synchronisation point (see FlowSpec::is_sync).
  FlowIndex add_sync();

  /// True when any flow has a non-zero release time.
  [[nodiscard]] bool has_release_times() const noexcept {
    return has_release_times_;
  }

  /// Sets a flow's bandwidth-scheduling weight (> 0, finite).
  void set_flow_weight(FlowIndex f, double weight);

  /// `after` may not start until `before` has finished.
  void add_dependency(FlowIndex before, FlowIndex after);

  /// Inserts a sync flow s with before* -> s -> after*; returns s.
  /// Either side may be empty (useful for staged construction).
  FlowIndex add_barrier(std::span<const FlowIndex> before,
                        std::span<const FlowIndex> after);

  [[nodiscard]] std::uint32_t num_flows() const noexcept {
    return static_cast<std::uint32_t>(flows_.size());
  }
  [[nodiscard]] const std::vector<FlowSpec>& flows() const noexcept {
    return flows_;
  }
  [[nodiscard]] const FlowSpec& flow(FlowIndex f) const { return flows_.at(f); }
  [[nodiscard]] const std::vector<std::pair<FlowIndex, FlowIndex>>&
  dependencies() const noexcept {
    return deps_;
  }

  /// Total payload bytes across data flows.
  [[nodiscard]] double total_bytes() const noexcept;
  [[nodiscard]] std::uint32_t num_data_flows() const noexcept;

  /// Throws std::invalid_argument if any flow references an endpoint
  /// >= num_endpoints. Checks endpoints only: the DependencyDag built from
  /// this program checks every dependency edge (missing flows, cycles).
  void validate(std::uint32_t num_endpoints) const;

  void reserve(std::size_t flows, std::size_t deps);

 private:
  std::vector<FlowSpec> flows_;
  std::vector<std::pair<FlowIndex, FlowIndex>> deps_;
  bool has_release_times_ = false;
};

}  // namespace nestflow
