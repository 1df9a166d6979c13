// Event-driven flow-level simulation engine (the INRFlow-equivalent core).
//
// Executes a TrafficProgram over a Topology: ready flows are routed and
// activated, rates are recomputed with max-min fairness whenever the active
// set changes, and time advances to the earliest flow completion. Every
// flow's path is NIC-injection + transit route + NIC-consumption, so
// endpoint ports are contended resources (the Reduce hot-spot serialises on
// the root's consumption link exactly as §5.2 of the paper describes).
//
// Near-simultaneous completions are batched within a small relative window:
// symmetric workloads then complete in waves, which keeps the event count —
// and hence the number of rate re-solves — low.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "flowsim/dag.hpp"
#include "flowsim/engine_error.hpp"
#include "flowsim/flow.hpp"
#include "flowsim/incidence.hpp"
#include "flowsim/maxmin.hpp"
#include "topo/topology.hpp"

namespace nestflow {

class AuditView;
class FlowAuditor;

/// Engine-side interface to a dynamic fault scenario: failures and repairs
/// delivered as simulation events, interleaved with flow completions by
/// FlowEngine::run(program, driver). Implemented by the resilience layer
/// (TimelineFaultDriver in resilience/fault_timeline.hpp), which owns the
/// FaultModel/FaultAwareRouter side of the story; the engine only sees
/// capacity changes. Defined here so flowsim does not depend on resilience
/// (the library layering runs the other way).
class FaultDriver {
 public:
  virtual ~FaultDriver() = default;
  /// Time of the earliest unapplied event; +infinity when exhausted. The
  /// engine never advances simulated time past this without first calling
  /// apply_due.
  [[nodiscard]] virtual double next_event_time() const = 0;
  /// Applies every unapplied event with time <= `time` to the shared fault
  /// state and appends each affected link's new absolute capacity factor
  /// (in [0, 1] of nominal) to `changed_factors`. A link may appear more
  /// than once (later entries win) and entries whose factor matches the
  /// current capacity are fine — the engine dedups by value. Returns the
  /// number of events applied.
  virtual std::size_t apply_due(
      double time,
      std::vector<std::pair<LinkId, double>>& changed_factors) = 0;
};

/// What happens to a live flow whose path loses a link mid-run (its max-min
/// rate drops to 0 because a fault event zeroed a link it crosses).
enum class RecoveryPolicy : std::uint8_t {
  /// Give up on the flow: it is torn out of the network and reported in
  /// SimResult::stranded_flows, its DAG descendants cancelled. The
  /// pre-timeline semantics, and the default.
  kStrand,
  /// Re-path the flow through the topology (pair with a FaultAwareRouter,
  /// which routes over the surviving graph) keeping its remaining bytes:
  /// transferred data survives the failure, only the tail re-flows on the
  /// detour. Falls back to stranding when no surviving path exists — or
  /// when the fresh route still crosses a dead link, which is what a
  /// fault-oblivious topology returns (re-activating it forever would hang
  /// the event loop).
  kReroute,
  /// Tear the flow down and requeue it from byte zero after an exponential
  /// backoff: retry r (0-based) waits retry_backoff_seconds * 2^r, up to
  /// max_retries attempts, then strands. Models application-level
  /// retransmission; with repairs on the timeline a retry can land after
  /// the fabric healed and complete on the native route.
  kRestartBackoff,
};

struct EngineOptions {
  /// Completions within (1 + completion_batch_rel) of the earliest finish
  /// are folded into one event. 0 disables batching (exact event order).
  double completion_batch_rel = 1e-6;
  /// When > 0, allocated rates are snapped DOWN onto a geometric grid of
  /// spacing (1 + rate_quantum_rel). Flows with equal size and nearly-equal
  /// contention then hold identical rates across events and complete in
  /// waves, collapsing the event count of large symmetric phases (e.g.
  /// all-to-all) by orders of magnitude. Rounding down never oversubscribes
  /// a link; the makespan error is bounded by ~rate_quantum_rel.
  /// 0 disables quantisation (exact max-min rates).
  double rate_quantum_rel = 0.0;
  /// Record per-flow finish times into SimResult::flow_finish_times.
  bool record_flow_times = false;
  /// Abort with EngineError (kind kMaxEventsExceeded, carrying an event/
  /// time/active-flow snapshot; derives from std::runtime_error) after this
  /// many events; 0 = unlimited.
  std::uint64_t max_events = 0;
  /// Route flows with Topology::route_adaptive at activation time (the
  /// flow-level analogue of ECMP/adaptive routing: fat-tree tiers pick the
  /// least-loaded up-ports). Disable to force the fully deterministic
  /// single-path routing function everywhere.
  bool adaptive_routing = true;
  /// Per-router-traversal latency: a flow crossing h transit links takes at
  /// least h * hop_latency_seconds wall time (wormhole pipeline-fill, which
  /// overlaps the transfer: completion = max(transfer time, h * latency)),
  /// holding its bandwidth allocation throughout. This is what lets
  /// short-path topologies (the torus on wavefront traffic) beat
  /// longer-path ones when messages are small. 0 = pure bandwidth model.
  double hop_latency_seconds = 0.0;
  /// Word budget for the solve cache's keys, rates and round logs (8 bytes
  /// per word): insertion stops once storing another entry would exceed
  /// it, and an entry whose round log would not fit keeps none. Each entry
  /// allocates its arrays at their final size, so this bounds the memory
  /// the cache allocates (plus a fixed header per entry), not its
  /// lifetime. The default (8M words = 64 MiB) holds the N = 1024
  /// mapreduce shuffle's one giant arrival entry (~2.1M words of key and
  /// rates, ~0.6M of round log); a caller that replays bigger programs on
  /// a persistent engine should raise it so their memoized solves stay
  /// resident across run() calls. bench/perf_engine's kSolveCacheWords and
  /// perfbench's warm-replay pass 64M words (512 MiB).
  std::size_t solve_cache_budget_words = 8u << 20;
  /// Measure the wall time of every event-loop phase into SimResult's
  /// timer fields (route_seconds, solve_seconds, dispatch_seconds and its
  /// sub-phases), one PhaseClock per run (flowsim/phase_clock.hpp). Off by
  /// default, when no clock is read: the reads cost more than a small
  /// component solve. The name predates the other timers and is kept
  /// because perfbench/driver.cpp switches the timers on by probing for
  /// this field.
  bool time_solver = false;
  /// Recovery for live flows hit by a mid-run fault event, and for
  /// activations that find no surviving path while a timeline is running.
  /// See RecoveryPolicy and DESIGN.md §8. Irrelevant (never consulted on
  /// any path that can fire) without a fault driver or dead links.
  RecoveryPolicy recovery_policy = RecoveryPolicy::kStrand;
  /// Base delay of kRestartBackoff: retry r (0-based) is requeued
  /// retry_backoff_seconds * 2^r after the failure. 0 retries immediately
  /// (same simulated instant), which only helps when the fault is already
  /// repaired; pair a positive backoff with repair events.
  double retry_backoff_seconds = 0.0;
  /// Attempts per flow before kRestartBackoff strands it. Effectively
  /// clamped to 255 (the per-flow retry counter is a byte — per-flow arrays
  /// scale with total flow count, and 255 doublings of the backoff overflow
  /// double anyway).
  std::uint32_t max_retries = 3;
};

struct SimResult {
  double makespan = 0.0;       // seconds until the last flow finishes
  double total_bytes = 0.0;    // payload delivered
  std::uint64_t num_flows = 0; // data flows executed
  std::uint64_t events = 0;    // completion rounds
  /// Bottleneck links the solver froze, summed over its rounds (a round
  /// that freezes a batch of tied links counts each). Together with the
  /// cache counters below, these count the solver work actually performed,
  /// not physics: a from-scratch re-solve (src/verify/reference_engine.hpp)
  /// reaches the same rates with more of it, and warm-started solves
  /// (DESIGN.md §11) lower it while every physical field stays identical.
  std::uint64_t solver_rounds = 0;
  /// Flow activations served from / missed by the route cache. Both zero
  /// whenever the cache is inactive (adaptive routing on a topology whose
  /// adaptive route reads loads, or dynamic routes such as a
  /// FaultAwareRouter's).
  std::uint64_t route_cache_hits = 0;
  std::uint64_t route_cache_misses = 0;
  /// Whole-set solves replayed from / missed by the solve cache (see
  /// "Solve memoization" below). Both zero when it is inactive, which
  /// includes every run with adaptive routing on.
  std::uint64_t solve_cache_hits = 0;
  std::uint64_t solve_cache_misses = 0;
  /// Per-phase wall seconds of the event loop, filled only when
  /// EngineOptions::time_solver is set (0 otherwise): activation routing,
  /// rate recomputation (dirty-component collection + solver), and event
  /// dispatch. Auditor callbacks are charged to no phase. Wall-clock
  /// measurements, not physical results — exempt from the bit-identity
  /// contracts the way the cache counters are.
  double solve_seconds = 0.0;
  double route_seconds = 0.0;
  /// FlowEngine sets it to advance + select + complete exactly; the
  /// ReferenceEngine times it as one phase and leaves the three at 0.
  double dispatch_seconds = 0.0;
  /// Sub-phases of dispatch_seconds: advancing rate-changed flows
  /// (quantisation + settle + finish-time refresh + zero-rate recovery),
  /// selecting dt (finish-time min + arrival/fault caps), and harvesting
  /// and processing completions.
  double advance_seconds = 0.0;
  double select_seconds = 0.0;
  double complete_seconds = 0.0;
  double max_link_utilization = 0.0;  // busiest link's bytes/(cap*makespan)
  double avg_active_flows = 0.0;      // time-weighted mean active flow count
  std::uint32_t peak_active_flows = 0;
  /// Bytes carried per link class (injection/consumption/torus/uplink/upper).
  std::array<double, 5> bytes_by_class{};
  std::vector<double> flow_finish_times;  // when record_flow_times is set

  // --- Graceful degradation under hard faults (see src/resilience/) ------
  /// Data flows with no surviving path: endpoints dead or partitioned
  /// (Topology::try_route said kStranded), or every rate the solver could
  /// grant them was 0 because a dead link sat on their path.
  std::uint64_t stranded_flows = 0;
  /// Data flows cancelled because a DAG ancestor was stranded: their
  /// dependencies can never be satisfied, so they are abandoned with
  /// accounting instead of deadlocking the event loop.
  std::uint64_t cancelled_flows = 0;
  /// Data flows that reached their destination over a surviving-graph
  /// detour instead of their native route.
  std::uint64_t rerouted_flows = 0;
  /// Total detour cost: sum over rerouted flows of (detour hops - native
  /// hops). Can go negative for nested topologies, whose composite native
  /// routes are not graph-shortest.
  std::int64_t reroute_extra_hops = 0;

  // --- Dynamic fault timeline (run(program, driver); see DESIGN.md §8) ---
  /// Fault/repair events the driver applied during the run. Events whose
  /// time falls after the last flow finished are never applied.
  std::uint64_t fault_events_applied = 0;
  /// Live flows torn off a failed path and successfully re-activated on a
  /// surviving route with their remaining bytes (RecoveryPolicy::kReroute).
  std::uint64_t recovered_flows = 0;
  /// Restart requeues under RecoveryPolicy::kRestartBackoff — mid-run
  /// failures and activation-time no-path retries both count.
  std::uint64_t flow_retries = 0;

  /// Payload actually delivered = total_bytes minus the bytes of stranded
  /// and cancelled flows (equals total_bytes on a healthy fabric).
  [[nodiscard]] double delivered_bytes() const noexcept {
    return total_bytes - undelivered_bytes;
  }
  double undelivered_bytes = 0.0;
};

class FlowEngine {
 public:
  explicit FlowEngine(const Topology& topology, EngineOptions options = {});

  /// Runs the program to completion and returns aggregate metrics.
  /// The engine may be reused for further runs (scratch state is recycled).
  /// Throws std::invalid_argument for malformed programs (bad endpoints,
  /// dependency cycles) and std::runtime_error if max_events is exceeded.
  [[nodiscard]] SimResult run(const TrafficProgram& program);

  /// Runs the program under a dynamic fault timeline: the driver's fault
  /// and repair events are applied at their scripted times, interleaved
  /// with flow events (time never steps across an unapplied event), and
  /// live flows that lose a path link are handled per
  /// EngineOptions::recovery_policy. The driver's link ids must index this
  /// engine's graph (std::out_of_range otherwise) and the engine mutates
  /// its link capacities as events apply — call reset_capacity_factors()
  /// (or re-apply a scenario) before reusing the engine.
  /// With an exhausted driver (no events) this is bit-identical to
  /// run(program).
  [[nodiscard]] SimResult run(const TrafficProgram& program,
                              FaultDriver& faults);

  /// Per-link delivered bytes from the most recent run (indexed by LinkId;
  /// includes NIC links). Valid until the next run() call.
  [[nodiscard]] const std::vector<double>& last_link_bytes() const noexcept {
    return link_bytes_;
  }

  /// Attaches (or, with nullptr, detaches) an invariant auditor. An
  /// attached auditor sees every run() from start to end and every event
  /// in between (flowsim/audit.hpp); it observes engine state through a
  /// read-only AuditView and may throw to abort the run (the engine does
  /// not catch). The auditor must outlive any run() it is attached for.
  void set_auditor(FlowAuditor* auditor) noexcept { auditor_ = auditor; }

  /// Consecutive zero-progress events (simulated time frozen AND no flow
  /// changed state) the event loop tolerates before throwing EngineError
  /// (kind kLivelock). Generously above any legitimate same-instant event
  /// cascade (release-time admissions, scripted same-time fault bursts),
  /// which resolve in a handful of iterations.
  static constexpr std::uint64_t kMaxZeroProgressEvents = 100000;

  /// Degrades a link to `factor` of its nominal capacity (fault-injection
  /// support — the paper's future work on fault tolerance). factor must be
  /// finite and in [0, 1]; 0 marks a dead link. Flows that end up with a
  /// dead link on their path are stranded (reported in
  /// SimResult::stranded_flows, their DAG descendants cancelled) rather
  /// than stalling the event loop; pair dead links with a FaultAwareRouter
  /// (src/resilience/) to route around them instead. Rejects NaN, negative
  /// and > 1 factors with std::invalid_argument. Applies to subsequent
  /// run() calls until reset.
  void set_capacity_factor(LinkId link, double factor);
  /// Restores every link to nominal capacity.
  void reset_capacity_factors();

 private:
  /// Read-only window the auditor looks through (defined in audit.hpp).
  friend class AuditView;

  enum class FlowState : std::uint8_t { kPending, kActive, kDone, kCancelled };

  /// Solver context over the engine's structure-of-arrays state.
  /// flow_path is forced inline: it is one load of each of three per-flow
  /// arrays, and in an LTO build run_impl, which resume() is inlined into,
  /// had outgrown the inliner's budget, so resume's loops over the departed
  /// flows' paths called an out-of-line copy once per flow. The engine is
  /// mutable because link_flows reads through FlowEngine::link_flows, which
  /// links the flows activated since the last read.
  struct EngineContext {
    FlowEngine* engine;
    [[nodiscard]] double capacity(LinkId l) const {
      return engine->link_capacity_[l];
    }
    [[nodiscard]] std::span<const FlowIndex> link_flows(LinkId l) const {
      return engine->link_flows(l);
    }
    [[nodiscard]] bool flow_active(FlowIndex f) const {
      return engine->state_[f] == FlowState::kActive;
    }
    [[nodiscard, gnu::always_inline]] std::span<const LinkId> flow_path(
        FlowIndex f) const {
      return engine->path_view(f);
    }
    [[nodiscard]] double flow_weight(FlowIndex f) const {
      return engine->program_->flow(f).weight;
    }
  };
  friend struct EngineContext;

  /// Routes and activates f at simulated time `now` (the fresh dispatch
  /// slot settles there); returns false (leaving f untouched) when the
  /// topology reports the pair stranded. Reroute accounting goes to result.
  [[nodiscard]] bool activate(FlowIndex f, double now, SimResult& result);
  void complete(FlowIndex f, double now, std::vector<FlowIndex>& ready);
  /// Marks a never-activated flow stranded and cancels its DAG descendants.
  void strand(FlowIndex f, SimResult& result);
  /// Tears an *active* flow out of the network (a dead link on its path
  /// zeroed its rate), then strands it as above.
  void strand_active(FlowIndex f, SimResult& result);
  /// Uncharges f's link occupancy and recycles its path — the teardown half
  /// of strand_active, shared with the recovery paths (which re-activate or
  /// requeue instead of stranding).
  void detach_from_network(FlowIndex f);
  /// Applies every driver event due at `now` and syncs the changed link
  /// capacities (marking them dirty for the incremental solver).
  void apply_due_fault_events(FaultDriver& driver, double now,
                              SimResult& result);
  /// Dispatches a zero-rate active flow (already pulled off active_flows_,
  /// its dispatch slot freed) to the configured recovery policy.
  /// `remaining_now` is the flow's settled residual byte count — passed in
  /// because the slot that held it is gone by the time this runs; kReroute
  /// seeds the re-activated flow's fresh slot with it.
  void recover_flow(FlowIndex f, double now, double remaining_now,
                    SimResult& result);
  /// Requeues f for a fresh activation attempt after its exponential
  /// backoff; false when its retry budget is exhausted (caller strands).
  [[nodiscard]] bool queue_retry(FlowIndex f, double now, SimResult& result);
  /// Cancels every kPending transitive DAG descendant of f.
  void cancel_descendants(FlowIndex f, SimResult& result);
  [[nodiscard]] std::span<const LinkId> path_view(FlowIndex f) const {
    const auto& arena = path_shared_[f] ? shared_arena_ : path_arena_;
    return {arena.data() + path_offset_[f], path_length_[f]};
  }
  /// The incidence lists' activity predicate.
  struct FlowActive {
    const FlowEngine* engine;
    [[nodiscard]] bool operator()(FlowIndex f) const {
      return engine->state_[f] == FlowState::kActive;
    }
  };
  /// l's incidence list as the walk and a solver freeze pass read it: every
  /// active flow crossing l linked, in activation order, and the list
  /// compacted first when more than half of it is stale.
  [[nodiscard]] std::span<const FlowIndex> link_flows(LinkId l) {
    if (!unlinked_.empty()) link_unlinked();
    return incidence_.read(l, link_active_count_[l], FlowActive{this});
  }
  /// Links every still-active flow of unlinked_ in one batch and empties it.
  void link_unlinked();
  /// Returns f's path extent to the free list unless the route cache owns it.
  void recycle_path(FlowIndex f);
  /// Marks a link's occupancy as changed since the last solve.
  void mark_dirty(LinkId l) {
    if (!link_dirty_[l]) {
      link_dirty_[l] = 1;
      dirty_links_.push_back(l);
    }
  }
  /// Expands the dirty links into the full connected components of the
  /// active flow-link incidence graph that touch them, consuming the dirty
  /// set. Each seed's component is BFS-exhausted before the next seed
  /// starts, so components occupy contiguous [begin, end) ranges of
  /// affected_flows_/affected_links_, recorded in components_. Returns
  /// true when it BAILED instead: the affected set grew past half the
  /// active flows, at which point a whole-set solve is cheaper than
  /// finishing the walk (a superset solve is bit-exact — max-min rates of
  /// a component do not depend on what else is solved alongside). On a
  /// bail the affected arrays are invalid and all marks are cleared.
  [[nodiscard]] bool collect_dirty_components_partitioned();
  /// Drops links whose occupancy hit zero from used_links_, leaving the
  /// canonical whole-set link order every whole-set solve (and solve-cache
  /// key) uses.
  void prune_used_links();
  /// Solves each range of components_ afresh, in discovery order.
  void solve_components(SimResult& result);
  /// Looks the whole-set max-min problem (used_links_, active_flows_) up in
  /// the solve cache by exact content. Returns the memoized rates in slot
  /// order on a hit, and points log_entry_ at the entry when it holds a
  /// round log (else clears it). On a miss returns nullptr and arms
  /// store_solve_cache() when the entry would fit the budget. Counts a hit
  /// or a miss, except when some flow lacks a stable path identity (extent
  /// not owned by the route cache): that problem is not memoizable, and
  /// the probe returns nullptr unarmed.
  [[nodiscard]] const double* probe_solve_cache(SimResult& result);
  /// Moves the last probed key into a new entry with the just-solved rates
  /// of active_flows_ (the probed flows, in slot order) when that probe
  /// armed it, and points log_entry_ at the entry; otherwise clears
  /// log_entry_.
  void store_solve_cache();
  /// Run by a departure-only event that resumes while log_entry_ is set:
  /// saves the solver's round log into that entry when the entry has none
  /// (it was stored by the last solve) and the log fits the budget, or
  /// restores the entry's log into the solver (the last event hit it).
  /// Either way flows are named by their slot position in the last solve,
  /// which this event's departures permuted: their swap-removals are
  /// undone, newest first, for the copy and redone after it.
  void save_or_restore_log();
  /// Empties the solve cache (capacity edits would leave dead entries —
  /// they can never match again, since capacity bits are part of the key).
  void drop_solve_cache();

  const Topology& topology_;
  EngineOptions options_;
  const TrafficProgram* program_ = nullptr;
  const DependencyDag* dag_scratch_ = nullptr;  // valid during run() only
  std::vector<double> flow_finish_times_scratch_;

  // Per-flow state (sized per run).
  std::vector<FlowState> state_;
  std::vector<std::uint32_t> pending_parents_;
  /// Raw solver output of the last solve that covered each flow, never
  /// quantised in place: the rate a flow progresses at is slot_rate_.
  std::vector<double> rates_;
  std::vector<std::uint32_t> path_offset_;
  /// Hop counts fit u16 comfortably (the deepest nested route here is tens
  /// of links; activate() range-checks before narrowing). Narrow on purpose:
  /// per-flow arrays are sized by total flow count, and the million-endpoint
  /// recipes run tens of millions of flows.
  std::vector<std::uint16_t> path_length_;
  /// 1 when the flow's path extent belongs to the route cache (shared with
  /// other flows of the same endpoint pair, never recycled on completion).
  std::vector<std::uint8_t> path_shared_;

  // Path storage. Per-run extents (path_arena_) are recycled by exact
  // length, so memory is bounded by peak concurrency rather than total
  // flow count. Cache-owned extents live in shared_arena_, which persists
  // across run() calls: stable (offset, length) pairs double as the path
  // identity the solve cache keys on.
  std::vector<LinkId> path_arena_;
  std::vector<LinkId> shared_arena_;
  std::vector<std::vector<std::uint32_t>> free_paths_by_length_;

  // Route memoization (active when the topology's routes are static —
  // FaultAwareRouter's are not, so fault semantics are untouched — and
  // either adaptive routing is off or the topology's adaptive route reads
  // no loads, as on NestGHC and the torus): (src,dst) -> shared extent in
  // shared_arena_.
  // Cached flows share one path extent, so collectives that repeat an
  // endpoint pair thousands of times route once and copy nothing.
  // Insertion stops at kMaxCachedRoutes so pathological pair diversity
  // (full-machine uniform traffic) cannot grow the arena unboundedly;
  // lookups keep working and overflow pairs route normally.
  // Native routes never depend on link state, so entries stay valid across
  // runs and capacity changes for the engine's lifetime.
  struct RouteCacheEntry {
    std::uint32_t offset;
    std::uint32_t length;
  };
  static constexpr std::size_t kMaxCachedRoutes = 1u << 20;
  /// Open-addressing (pair key) -> extent table. The lookup runs once per
  /// flow activation and at steady state always hits, so it is the route
  /// phase's inner loop: a flat power-of-two slot array with linear probing
  /// costs one splitmix64 finalizer plus (at <=50% load, almost always) one
  /// 16-byte slot read — versus the bucket chase and heap-allocated nodes
  /// of a std::unordered_map. Keys are FlowSpec::pair_key(), which is never
  /// the all-ones word (see its doc), freeing ~0 as the empty sentinel.
  class RouteCacheTable {
   public:
    [[nodiscard]] const RouteCacheEntry* find(
        std::uint64_t key) const noexcept {
      if (slots_.empty()) return nullptr;
      for (std::size_t i = bucket(key);; i = (i + 1) & mask_) {
        const Slot& slot = slots_[i];
        if (slot.key == key) return &slot.entry;
        if (slot.key == kEmptySlot) return nullptr;
      }
    }
    /// Inserts a key known to be absent (activate() only inserts on miss).
    void insert(std::uint64_t key, RouteCacheEntry entry) {
      if ((size_ + 1) * 2 > slots_.size()) grow(slots_.size() * 4);
      place(key, entry);
      ++size_;
    }
    /// Pre-sizes for n entries at the <=50% target load factor.
    void reserve(std::size_t n) {
      if (n * 2 > slots_.size()) grow(n * 2);
    }
    /// Pulls a key's home bucket toward the cache ahead of find(). The
    /// table probes DRAM in hash order, not in first-activation order, so
    /// a steady-state replay loop otherwise eats one cold miss per lookup.
    void prefetch(std::uint64_t key) const noexcept {
      if (!slots_.empty()) __builtin_prefetch(slots_.data() + bucket(key));
    }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

   private:
    static constexpr std::uint64_t kEmptySlot = ~0ull;
    struct Slot {
      std::uint64_t key = kEmptySlot;
      RouteCacheEntry entry{0, 0};
    };
    [[nodiscard]] std::size_t bucket(std::uint64_t key) const noexcept {
      // splitmix64 finalizer: pair keys are structured (src in the high
      // word), so a full-width mix is needed before masking.
      std::uint64_t h = key;
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ull;
      h ^= h >> 27;
      h *= 0x94d049bb133111ebull;
      h ^= h >> 31;
      return static_cast<std::size_t>(h) & mask_;
    }
    void place(std::uint64_t key, RouteCacheEntry entry) noexcept {
      std::size_t i = bucket(key);
      while (slots_[i].key != kEmptySlot) i = (i + 1) & mask_;
      slots_[i].key = key;
      slots_[i].entry = entry;
    }
    void grow(std::size_t min_slots) {
      std::size_t want = 64;
      while (want < min_slots) want *= 2;
      std::vector<Slot> old = std::move(slots_);
      slots_.assign(want, Slot{});
      mask_ = want - 1;
      for (const Slot& slot : old) {
        if (slot.key != kEmptySlot) place(slot.key, slot.entry);
      }
    }
    std::vector<Slot> slots_;  // power-of-two sized; empty until first grow
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
  };
  RouteCacheTable route_cache_;
  const bool route_cache_active_;  // pure function of options + topology

  // Solve memoization. A max-min allocation is a pure function of the
  // problem's content — it never reads remaining bytes — so phase-
  // structured workloads (stencil iterations, collective rounds, repeated
  // sweeps) re-pose bit-identical allocation problems over and over. The
  // cache holds whole-set solves only: the content — (link, capacity,
  // weight-sum) triples in used_links_ order plus flow (offset, length)
  // extents in slot order (exact without canonicalisation: see
  // probe_solve_cache) — is kept verbatim as the entry's key and verified
  // word-for-word on lookup; the hash only picks the bucket, so a
  // collision can never replay wrong rates. Rates are stored positionally
  // (position i = slot i).
  // Engaged only when the route cache is active (its shared path extents
  // give flows a stable identity), adaptive routing is off (the one-shot
  // figure runs, where it costs more than it saves) and every flow weight
  // is 1 (equal-weight flows are bit-exactly exchangeable in the solver;
  // weighted ones are not). Even then only an event that follows an
  // activation, a detach or a capacity change (non_departure_change_)
  // probes or inserts it: a departure-only event resumes the round log
  // exactly in O(departed), so memoizing it buys a replay nothing and costs
  // a one-shot run an O(active) key, a stored copy of that key and its
  // rates, and the page faults of a cache that grows with them (DESIGN.md
  // §6). Persists across run() calls; insertion stops at
  // EngineOptions::solve_cache_budget_words.
  /// One memoized whole-set solve, owning its arrays, each allocated at its
  /// final size. Besides its key and rates, an entry keeps the round log of
  /// the solve it memoizes, flows named by slot position, when the event
  /// right after that solve departed only (the one kind of event that
  /// resumes a log): a later hit of the entry is then followed by the same
  /// kind of event in a replay, which restores the log and resumes instead
  /// of solving afresh (DESIGN.md §11). The log counts against the same
  /// budget; one that does not fit is not kept.
  struct SolveCacheEntry {
    std::vector<std::uint64_t> key;
    std::vector<double> rates;
    SavedRoundLog log;  // empty until saved
  };
  /// Entries by key hash. Its nodes never move, so log_entry_ can point
  /// into it.
  std::unordered_multimap<std::uint64_t, SolveCacheEntry> solve_cache_;
  /// Words the entries hold (keys, rates and logs), against the budget.
  std::size_t solve_cache_words_ = 0;
  /// While solve_log_valid_: the entry the last whole-set solve stored (its
  /// log not yet saved) or hit (its log not yet restored), else null. Read
  /// by the next event that resumes (save_or_restore_log); every whole-set
  /// event rewrites it.
  SolveCacheEntry* log_entry_ = nullptr;
  /// The current solve's key; a store moves it into the new entry.
  std::vector<std::uint64_t> solve_key_;
  bool solve_cache_active_ = false;  // resolved per run()
  bool solve_insert_armed_ = false;  // miss was cacheable; store after solve
  std::uint64_t solve_key_hash_ = 0;

  // Incremental-solver state.
  std::vector<std::uint8_t> link_dirty_;
  std::vector<LinkId> dirty_links_;
  std::vector<std::uint8_t> link_in_component_;   // scratch, zeroed between
  std::vector<std::uint8_t> flow_in_component_;   // collects
  std::vector<LinkId> affected_links_;
  std::vector<FlowIndex> affected_flows_;

  struct ComponentRange {
    std::uint32_t flow_begin, flow_end;  // into affected_flows_
    std::uint32_t link_begin, link_end;  // into affected_links_
  };
  std::vector<ComponentRange> components_;

  // Per-link state (sized once per topology).
  std::vector<double> link_capacity_;        // effective (after degradation)
  std::vector<double> link_base_capacity_;
  LinkFlowIncidence incidence_;  // link→flow lists, linked on read
  /// Flows activated since the lists were last read, in activation order:
  /// link_unlinked() links the ones still active before link_flows() or
  /// detach_from_network() reads a list.
  std::vector<FlowIndex> unlinked_;
  std::vector<std::uint32_t> link_active_count_;
  std::vector<double> link_weight_sum_;  // weighted occupancy for the solver
  std::vector<LinkId> used_links_;  // links with active flows (lazily pruned)
  std::vector<std::uint8_t> link_in_used_;
  /// Links with link_active_count_ > 0 right now. When most of them are
  /// dirty at once (giant completion batches: the mapreduce shuffle), the
  /// solve skips the component BFS and solves the whole active set
  /// directly — same rates (max-min independence both ways), fraction of
  /// the collection cost.
  std::uint32_t num_active_links_ = 0;
  std::vector<double> link_bytes_;

  std::vector<FlowIndex> active_flows_;

  // --- Dispatch-kernel state (DESIGN.md §12) -----------------------------
  // Per-ACTIVE-SLOT progress, indexed by the flow's position in
  // active_flows_ and swap-compacted with it, so this memory follows peak
  // concurrency rather than total flow count. A flow's byte/pipeline state
  // is only materialised ("settled") when its rate changes or it finishes;
  // in between, its absolute predicted finish time is the sole truth.
  struct SlotState {
    double remaining;     // bytes left as of settle_time
    double latency_left;  // pipeline-fill seconds left as of settle_time
    double settle_time;   // when remaining/latency_left were materialised
  };
  std::vector<SlotState> slots_;     // size == active_flows_.size()
  /// Rate slot_finish_ was computed with (-1 fresh). Kept out of SlotState
  /// on purpose: the advance sweep's unchanged-rate fast path reads ONLY
  /// this and slot_finish_, so splitting it keeps that path at 16 streamed
  /// bytes per slot instead of pulling the whole settle record in.
  std::vector<double> slot_rate_;
  std::vector<double> slot_finish_;  // absolute predicted finish per slot
  std::vector<std::uint32_t> active_pos_;  // flow -> slot (valid iff active)
  std::vector<FlowIndex> harvest_scratch_;  // completion batch this event
  /// Flow-index bitmap used to put a dense completion batch into canonical
  /// ascending-flow order without sorting: set a bit per harvested flow,
  /// then scan the touched word range with ctz. O(batch + range/64) — the
  /// mapreduce shuffle harvests ~30k flows per phase event. A batch whose
  /// word range exceeds batch * log2(batch) is sorted instead. Words are
  /// zeroed on extraction, so the vector stays all-zero between events.
  std::vector<std::uint64_t> finished_mask_;
  /// Completion candidates collected by every event's select phase (the
  /// fused whole-set sweep or collect_finish_candidates): distinct slots
  /// whose predicted finish was <= a running deadline bound derived from
  /// the running min finish. The bound only tightens as the scan proceeds,
  /// so the list is always a superset of the true harvest; the complete
  /// phase filters it against the actual deadline instead of re-scanning
  /// all of slot_finish_.
  std::vector<std::uint32_t> cand_slots_;

  /// Rebases slot s's remaining/latency_left to time `at` using the rate
  /// its finish time was computed with. Exact bitwise no-op when `at`
  /// equals the slot's settle time (both stored values are >= 0 and
  /// rate * 0 == 0), which is why skipped flows lose nothing.
  void settle_slot(std::uint32_t s, double at) noexcept;
  /// Settled view of an active flow's residual bytes / pipeline-fill time
  /// at time `at` without mutating the slot (AuditView reads).
  [[nodiscard]] double settled_remaining(FlowIndex f,
                                         double at) const noexcept;
  [[nodiscard]] double settled_latency_left(FlowIndex f,
                                            double at) const noexcept;
  /// Swap-compacts slot s out of active_flows_/slots_/slot_finish_,
  /// repointing active_pos_ of the moved tail flow. O(1) per removal.
  void remove_active_slot(std::uint32_t s) noexcept;
  /// The advance kernel: quantises each solved flow's raw rate, settles
  /// flows whose quantised rate differs from the one their finish time was
  /// computed with (slot_rate_), refreshes their predicted finish, and
  /// collects zero-rate actives into `zero_out`.
  void advance_flows(std::span<const FlowIndex> flows, double now,
                     std::vector<FlowIndex>& zero_out);
  /// Fused whole-set sweep for events whose solved span IS active_flows_
  /// (whole-set cache hits, threshold/bailed solves): iterates slots in
  /// order — skipping the flow->slot gather advance_flows needs for
  /// arbitrary spans — and folds the next-finish min and the completion
  /// candidates into the same pass instead of a separate
  /// collect_finish_candidates() scan. Bit-identical to advance_flows +
  /// collect_finish_candidates on such events: slot order equals the
  /// solved span's order there, and an unchanged rate compares equal before
  /// any slot state is touched. Returns the min predicted finish.
  /// When `slot_rates` is non-null it is this event's solved raw rates in
  /// slot order (the hit entry's rates on a whole-set solve-cache hit) and
  /// the sweep streams it instead of gathering rates_[f].
  [[nodiscard]] double advance_flows_whole(double now,
                                           std::vector<FlowIndex>& zero_out,
                                           const double* slot_rates);
  /// Minimum of slot_finish_ over all live slots; fills cand_slots_.
  [[nodiscard]] double collect_finish_candidates(double now);

  /// Dependency-free flows waiting for their release time, earliest first.
  /// Restart-backoff retries park here too (at now + backoff).
  std::vector<std::pair<double, FlowIndex>> release_queue_;  // min-heap
  FairShareSolver<EngineContext> solver_;
  /// True while a round log describes the active set as of the last
  /// whole-set solve plus the departures in departed_, so the next event
  /// resumes it (DESIGN.md §11) and advances only the flows it refreezes
  /// (§12). The log is solver_'s, or, after a whole-set solve-cache hit,
  /// the hit entry's, which that event restores first; a hit of an entry
  /// without one clears the flag. Needs unit weights; cleared by any
  /// activation, detach, capacity change or component solve.
  bool solve_log_valid_ = false;
  /// Set by an activation, a detach or a capacity change, cleared by every
  /// solve: false means only departures happened since the last solve. Only
  /// events with it set may probe or insert the solve cache.
  bool non_departure_change_ = false;
  bool unit_weights_ = false;  // every flow weight of this run is 1
  /// Completed since the last solve, in the order their slots were
  /// swap-removed; each one's active_pos_ still names the slot it left.
  std::vector<FlowIndex> departed_;
  Path route_scratch_;
  std::vector<FlowIndex> cancel_stack_;  // scratch for cancel_descendants

  // Dynamic-fault state (run(program, driver) only).
  [[nodiscard]] SimResult run_impl(const TrafficProgram& program,
                                   FaultDriver* driver);
  std::vector<std::uint8_t> retry_count_;  // per flow; see max_retries clamp
  std::vector<FlowIndex> zero_rate_scratch_;
  std::vector<std::pair<LinkId, double>> fault_changed_scratch_;

  // Invariant auditing (set_auditor). The audit state is only read when an
  // auditor is attached; last_event_ is a pointer store per loop phase,
  // cheap enough to maintain unconditionally so EngineError snapshots are
  // always populated.
  FlowAuditor* auditor_ = nullptr;
  const char* last_event_ = "start";

  [[nodiscard]] EngineError::Snapshot loop_snapshot(std::uint64_t events,
                                                    double now) const noexcept;
};

}  // namespace nestflow
