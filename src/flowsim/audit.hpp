// Engine-side auditing interface: a read-only window into the live event
// loop plus the observer contract an invariant checker implements.
//
// The real checker (verify::InvariantAuditor) lives in src/verify/, which
// depends on flowsim — not the other way around; this header only defines
// the view and the abstract callback type, mirroring how FaultDriver keeps
// the resilience layer out of the engine (engine.hpp).
//
// The view is deliberately not a data copy: every accessor reads the
// engine's structure-of-arrays state in place, so a per-event audit of a
// large run costs the oracle's own arithmetic and nothing else. Views are
// only valid for the duration of the callback they are passed to.
#pragma once

#include <cstdint>
#include <span>

#include "flowsim/engine.hpp"

namespace nestflow {

/// Public mirror of the engine's internal flow lifecycle state.
enum class AuditFlowState : std::uint8_t {
  kPending,    // waiting on dependencies or its release time
  kActive,     // routed, holding link occupancy and a rate
  kDone,       // completed (delivered, or an instantly-satisfied sync)
  kCancelled,  // stranded, or abandoned because an ancestor stranded
};

/// Read-only window into a FlowEngine mid-run. Only valid inside the
/// FlowAuditor callback it was handed to.
class AuditView {
 public:
  AuditView(const FlowEngine& engine, double now, double dt,
            std::uint64_t events) noexcept
      : engine_(&engine), now_(now), dt_(dt), events_(events) {}

  /// Simulated seconds reached by the loop at this audit point.
  [[nodiscard]] double now() const noexcept { return now_; }
  /// The time step about to be applied (on_event only; 0 elsewhere).
  [[nodiscard]] double dt() const noexcept { return dt_; }
  /// Completion rounds executed so far.
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

  [[nodiscard]] const Topology& topology() const noexcept {
    return engine_->topology_;
  }
  [[nodiscard]] const EngineOptions& options() const noexcept {
    return engine_->options_;
  }
  /// The program being executed (valid during a run only).
  [[nodiscard]] const TrafficProgram& program() const noexcept {
    return *engine_->program_;
  }

  // --- Flows ---------------------------------------------------------------
  [[nodiscard]] std::uint32_t num_flows() const noexcept {
    return static_cast<std::uint32_t>(engine_->state_.size());
  }
  [[nodiscard]] AuditFlowState flow_state(FlowIndex f) const noexcept {
    // The public enum mirrors the private one value-for-value.
    static_assert(static_cast<int>(AuditFlowState::kPending) ==
                  static_cast<int>(FlowEngine::FlowState::kPending));
    static_assert(static_cast<int>(AuditFlowState::kCancelled) ==
                  static_cast<int>(FlowEngine::FlowState::kCancelled));
    return static_cast<AuditFlowState>(engine_->state_[f]);
  }
  /// Flows currently holding network resources.
  [[nodiscard]] std::span<const FlowIndex> active_flows() const noexcept {
    return engine_->active_flows_;
  }
  /// Rate an active flow is progressing at: its max-min rate after the
  /// engine's quantiser (EngineOptions::rate_quantum_rel). 0 for a flow
  /// that is not active.
  [[nodiscard]] double flow_rate(FlowIndex f) const noexcept {
    if (engine_->state_[f] != FlowEngine::FlowState::kActive) return 0.0;
    return engine_->slot_rate_[engine_->active_pos_[f]];
  }
  /// Bytes still to deliver (meaningful for active flows; a flow whose
  /// pipeline fill outlives its transfer can legitimately sit at 0). The
  /// dispatch kernel materialises per-flow progress lazily (DESIGN.md §12),
  /// so this settles the flow's slot state to the view's `now` on read —
  /// same clamp arithmetic the engine itself uses, no mutation.
  [[nodiscard]] double flow_remaining(FlowIndex f) const noexcept {
    return engine_->settled_remaining(f, now_);
  }
  /// Pipeline-fill seconds still to elapse (hop_latency_seconds model);
  /// settled to the view's `now` like flow_remaining.
  [[nodiscard]] double flow_latency_left(FlowIndex f) const noexcept {
    return engine_->settled_latency_left(f, now_);
  }
  /// Full resource path (NICs included) of an *active* flow.
  [[nodiscard]] std::span<const LinkId> flow_path(FlowIndex f) const {
    return engine_->path_view(f);
  }
  /// Restart-backoff attempts consumed so far.
  [[nodiscard]] std::uint32_t flow_retries(FlowIndex f) const noexcept {
    return engine_->retry_count_[f];
  }

  // --- Links ---------------------------------------------------------------
  [[nodiscard]] std::uint32_t num_links() const noexcept {
    return static_cast<std::uint32_t>(engine_->link_capacity_.size());
  }
  /// Effective capacity (nominal x current degradation factor).
  [[nodiscard]] double link_capacity(LinkId l) const noexcept {
    return engine_->link_capacity_[l];
  }
  /// Nominal (fault-free) capacity.
  [[nodiscard]] double link_base_capacity(LinkId l) const noexcept {
    return engine_->link_base_capacity_[l];
  }

 private:
  const FlowEngine* engine_;
  double now_;
  double dt_;
  std::uint64_t events_;
};

/// Observer contract for engine invariant checking. An auditor attached
/// with FlowEngine::set_auditor gets on_run_start, then on_event after
/// every solve, then on_run_end; detaching it (set_auditor(nullptr)) is
/// the only way to switch auditing off. Implementations throw (anything;
/// verify::AuditError by convention) to abort the run — the engine never
/// catches. Callbacks arrive on the thread that called run().
class FlowAuditor {
 public:
  virtual ~FlowAuditor() = default;

  /// Before the first activation pass of a run. Size scratch here.
  virtual void on_run_start(const AuditView& view) { (void)view; }

  /// After rates are solved and the time step is known, immediately before
  /// time advances. Every active flow holds a positive rate at this point
  /// (zero-rate flows were already handed to the recovery policy). An
  /// auditor that checks only the end state leaves it empty.
  virtual void on_event(const AuditView& view) { (void)view; }

  /// After the loop drains, before run() returns its result.
  virtual void on_run_end(const AuditView& view, const SimResult& result) = 0;
};

}  // namespace nestflow
