// Reference flow engine: a deliberately plain re-implementation of
// FlowEngine's simulation semantics, used as the differential yardstick by
// the chaos harness, the engine test suites and bench/perf_engine.
//
// Every activation routes through the topology, and every event re-solves
// everything: all active flows go through the standalone maxmin_fair_rates
// from scratch, every flow is re-checked for a rate change, and the
// earliest finish and the completion batch come from a full sweep. There
// is no incremental component solve, no route or solve cache and no lazy
// dispatch — so a bug in any of those FlowEngine layers shows up as a
// difference instead of being shared by both sides of the comparison.
//
// What it shares with FlowEngine: the topology's routing function
// (Topology::try_route), the max-min kernel (through maxmin_fair_rates,
// itself pinned against a frozen copy of the pre-kernel solver in
// tests/test_maxmin_properties.cpp), DependencyDag, and the EngineError
// type. What bit-identity with FlowEngine's physical SimResult fields —
// the ones physical_difference() below compares — depends on (see
// DESIGN.md §15):
//
//   * flows are passed to the solver in activation order — the order
//     FlowEngine's link incidence lists keep — because weighted rate deltas
//     are summed in that order;
//   * release-time admissions and restart retries go through a binary heap
//     with the same comparator and push sequence, so equal-time pops come
//     out in the same order;
//   * completion batches and zero-rate recoveries are processed in
//     ascending flow order, as FlowEngine does;
//   * a flow's progress is settled, and its finish re-predicted, only when
//     its (quantised) rate changes — DESIGN.md §12's arithmetic — never by
//     a per-event remaining -= rate * dt, which rounds differently;
//   * flow weights are such that running sums of them are exact (integers,
//     or any weights with few significant bits): FlowEngine maintains
//     per-link weight sums incrementally, maxmin_fair_rates re-adds them.
//
// Work counters (solver_rounds, cache hits and misses) stay zero; the phase
// timers route_seconds, solve_seconds and dispatch_seconds are filled, by
// the engines' one PhaseClock, when EngineOptions::time_solver is set.
// solve_cache_budget_words is ignored.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "flowsim/dag.hpp"
#include "flowsim/engine.hpp"
#include "topo/topology.hpp"

namespace nestflow::verify {

class ReferenceEngine {
 public:
  explicit ReferenceEngine(const Topology& topology,
                           EngineOptions options = {});

  /// Same contract as FlowEngine::run.
  [[nodiscard]] SimResult run(const TrafficProgram& program);
  /// Same contract as FlowEngine::run(program, faults), including the
  /// mutation of this engine's link capacities as events apply.
  [[nodiscard]] SimResult run(const TrafficProgram& program,
                              FaultDriver& faults);

  /// Same validation and semantics as FlowEngine::set_capacity_factor.
  void set_capacity_factor(LinkId link, double factor);
  void reset_capacity_factors();

  /// Per-link delivered bytes from the most recent run (indexed by LinkId).
  [[nodiscard]] const std::vector<double>& last_link_bytes() const noexcept {
    return link_bytes_;
  }

 private:
  enum class State : std::uint8_t { kPending, kActive, kDone, kCancelled };

  [[nodiscard]] SimResult run_impl(const TrafficProgram& program,
                                   FaultDriver* driver);
  /// Routes f and appends it to the active set; false when stranded.
  [[nodiscard]] bool activate(FlowIndex f, double now, SimResult& result);
  /// Removes active flow f from the active set and uncharges its links.
  void detach(FlowIndex f);
  /// Completes the flow at active_[i] (left in place; the caller compacts).
  void complete(std::size_t i, double now, std::vector<FlowIndex>& ready);
  void strand(FlowIndex f, SimResult& result);
  void cancel_descendants(FlowIndex f, SimResult& result);
  [[nodiscard]] bool queue_retry(FlowIndex f, double now, SimResult& result);
  void recover(FlowIndex f, double now, double remaining, SimResult& result);
  /// Rebases f's remaining bytes and pipeline fill to `at` at the rate its
  /// finish was predicted with.
  void settle(FlowIndex f, double at);
  [[nodiscard]] std::size_t active_index(FlowIndex f) const;

  const Topology& topology_;
  EngineOptions options_;
  const TrafficProgram* program_ = nullptr;
  const DependencyDag* dag_ = nullptr;

  std::vector<double> link_capacity_;
  std::vector<double> link_base_capacity_;
  std::vector<std::uint32_t> link_active_count_;
  std::vector<double> link_bytes_;

  // Per-flow state.
  std::vector<State> state_;
  std::vector<std::uint32_t> pending_parents_;
  std::vector<std::uint32_t> retries_;
  std::vector<double> remaining_;
  std::vector<double> latency_left_;
  std::vector<double> settle_time_;
  std::vector<double> rate_;    // rate finish_ was predicted with (-1 fresh)
  std::vector<double> finish_;  // absolute predicted finish
  std::vector<double> finish_times_;

  // Active flows in activation order, with their paths and weights.
  std::vector<FlowIndex> active_;
  std::vector<std::vector<LinkId>> active_paths_;
  std::vector<double> active_weights_;

  std::vector<std::pair<double, FlowIndex>> release_queue_;  // min-heap
};

/// The physics check every FlowEngine-vs-ReferenceEngine comparison uses:
/// the first physical SimResult field on which runs a and b differ, as
/// "field: a vs b" (doubles printed to round-trip, array fields with their
/// index), or nothing when they are the same simulation. Physical means
/// every field but the work counters (solver_rounds, cache hits and
/// misses) and the phase timers, which measure effort. Values compare with
/// ==, except that NaN finish times (stranded or cancelled flows) compare
/// equal; reroute_extra_hops is signed. With compare_fault_events false,
/// fault_events_applied is left out: a static scenario applied before the
/// run reports no events, the same faults as t = 0 timeline events report
/// one each.
[[nodiscard]] std::optional<std::string> physical_difference(
    const SimResult& a, const SimResult& b, bool compare_fault_events = true);

}  // namespace nestflow::verify
