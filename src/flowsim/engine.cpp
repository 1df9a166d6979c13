#include "flowsim/engine.hpp"

#include "flowsim/audit.hpp"
#include "flowsim/phase_clock.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace nestflow {

namespace {

/// Min-heap order on release time. Deliberately no tie-break on the flow
/// index: equal-time pops follow heap order, a deterministic function of
/// the push sequence, and that pre-existing order is part of the engine's
/// bit-exact regression surface.
bool release_after(const std::pair<double, FlowIndex>& a,
                   const std::pair<double, FlowIndex>& b) {
  return a.first > b.first;
}

/// Snaps a raw solver rate down onto the geometric grid of spacing
/// (1 + EngineOptions::rate_quantum_rel); the identity when that is 0. The
/// map is a pure function, so remembering the last raw rate is exact:
/// consecutive flows of a symmetric batch share one raw rate and pay the
/// log/exp once per pass.
class RateQuantiser {
 public:
  explicit RateQuantiser(double quantum_rel)
      : log_step_(quantum_rel > 0.0 ? std::log1p(quantum_rel) : 0.0) {}
  [[nodiscard]] double operator()(double raw) {
    if (!(log_step_ > 0.0 && raw > 0.0)) return raw;
    if (raw != last_raw_) {
      last_raw_ = raw;
      last_ = std::exp(std::floor(std::log(raw) / log_step_) * log_step_);
    }
    return last_;
  }

 private:
  double log_step_;
  double last_raw_ = 0.0;  // no input reaching the memo is <= 0
  double last_ = 0.0;
};

/// Running minimum of the predicted finishes a scan visits, plus the slots
/// that may complete this event. A slot whose finish is <= now + (fmin -
/// now) * (1 + completion_batch_rel) is a possible completion (the
/// complete phase's deadline is that exact expression of the FINAL fmin,
/// or smaller when an arrival/fault caps dt, or fmin itself via the max
/// floor). The bound computed from the running fmin only ever tightens, so
/// every slot visited before the final fmin was known saw a LOOSER bound —
/// the candidates are always a superset of the true harvest, in slot order.
class FinishCandidates {
 public:
  FinishCandidates(double now, double batch_rel,
                   std::vector<std::uint32_t>& slots)
      : now_(now), batch_mult_(1.0 + batch_rel), slots_(slots) {
    slots_.clear();
  }
  void note(std::size_t s, double finish) {
    if (finish <= bound_) {
      slots_.push_back(static_cast<std::uint32_t>(s));
      if (finish < fmin_) {
        fmin_ = finish;
        // max floor: the deadline is floored at fmin itself (the product
        // can round below it), so the bound must be too.
        bound_ = std::max(now_ + (fmin_ - now_) * batch_mult_, fmin_);
      }
    }
  }
  [[nodiscard]] double fmin() const noexcept { return fmin_; }

 private:
  double now_;
  double batch_mult_;
  std::vector<std::uint32_t>& slots_;
  double fmin_ = std::numeric_limits<double>::infinity();
  double bound_ = std::numeric_limits<double>::infinity();
};

}  // namespace

FlowEngine::FlowEngine(const Topology& topology, EngineOptions options)
    : topology_(topology),
      options_(options),
      route_cache_active_(topology.routes_are_static() &&
                          !(options.adaptive_routing &&
                            topology.route_adaptive_reads_loads())) {
  // Floor the batching window at a couple of ulps so the flow that defines
  // dt always passes its own completion test despite rounding.
  options_.completion_batch_rel =
      std::max(options_.completion_batch_rel, 1e-12);

  const Graph& graph = topology_.graph();
  const auto num_links = graph.num_links();
  link_capacity_.resize(num_links);
  for (LinkId l = 0; l < num_links; ++l) {
    link_capacity_[l] = graph.link(l).capacity_bps;
  }
  link_base_capacity_ = link_capacity_;
  incidence_.reset(num_links);
  link_active_count_.assign(num_links, 0);
  link_weight_sum_.assign(num_links, 0.0);
  link_in_used_.assign(num_links, 0);
  link_bytes_.assign(num_links, 0.0);
  link_dirty_.assign(num_links, 0);
  link_in_component_.assign(num_links, 0);
}

void FlowEngine::set_capacity_factor(LinkId link, double factor) {
  if (link >= link_capacity_.size()) {
    throw std::out_of_range("set_capacity_factor: bad link");
  }
  if (std::isnan(factor)) {
    throw std::invalid_argument("set_capacity_factor: factor is NaN");
  }
  if (factor < 0.0) {
    throw std::invalid_argument(
        "set_capacity_factor: factor is negative; use 0 for a dead link");
  }
  if (factor > 1.0) {
    throw std::invalid_argument(
        "set_capacity_factor: factor exceeds 1 (links cannot exceed "
        "nominal capacity)");
  }
  link_capacity_[link] = link_base_capacity_[link] * factor;
  drop_solve_cache();
}

void FlowEngine::reset_capacity_factors() {
  link_capacity_ = link_base_capacity_;
  drop_solve_cache();
}

EngineError::Snapshot FlowEngine::loop_snapshot(std::uint64_t events,
                                                double now) const noexcept {
  EngineError::Snapshot snapshot;
  snapshot.events = events;
  snapshot.sim_time = now;
  snapshot.active_flows = active_flows_.size();
  snapshot.pending_flows = release_queue_.size();
  snapshot.last_event = last_event_;
  return snapshot;
}

void FlowEngine::drop_solve_cache() {
  // Correctness never needs this — every key embeds the capacity bits of
  // its links, so entries recorded under other capacities simply stop
  // matching — but fault sweeps that keep flipping factors would otherwise
  // accumulate unmatchable entries until the size cap bites.
  solve_cache_.clear();
  solve_cache_words_ = 0;
  solve_insert_armed_ = false;
  log_entry_ = nullptr;
}

bool FlowEngine::activate(FlowIndex f, double now, SimResult& result) {
  // flows()[f], not flow(f): f comes from validated engine state, and the
  // .at() bounds check is measurable at shuffle activation rates.
  const FlowSpec& spec = program_->flows()[f];
  const Graph& graph = topology_.graph();

  std::uint32_t offset;
  std::uint32_t len;
  const std::uint64_t pair_key = spec.pair_key();
  const RouteCacheEntry* cached =
      route_cache_active_ ? route_cache_.find(pair_key) : nullptr;
  if (cached != nullptr) {
    // Memoized full resource path (the NIC links are themselves functions
    // of (src, dst)): share the cached extent instead of routing + copying.
    ++result.route_cache_hits;
    offset = cached->offset;
    len = cached->length;
    path_shared_[f] = 1;
  } else {
    route_scratch_.clear();
    const RouteOutcome outcome = topology_.try_route(
        spec.src, spec.dst, route_scratch_,
        LinkLoads(link_active_count_, link_capacity_),
        options_.adaptive_routing);
    if (outcome.status == RouteStatus::kStranded) return false;
    if (outcome.status == RouteStatus::kRerouted) {
      ++result.rerouted_flows;
      result.reroute_extra_hops += outcome.extra_hops;
    }

    // Full resource path: injection NIC, transit links, consumption NIC.
    len = static_cast<std::uint32_t>(route_scratch_.links.size() + 2);
    if (len > std::numeric_limits<std::uint16_t>::max()) {
      // path_length_ is u16 on purpose (per-flow arrays scale with total
      // flow count); the deepest nested route here is tens of links.
      throw std::length_error("FlowEngine: route exceeds 65535 links");
    }
    if (route_cache_active_) ++result.route_cache_misses;
    const bool cache_owned =
        route_cache_active_ && route_cache_.size() < kMaxCachedRoutes;
    LinkId* dst;
    if (cache_owned) {
      // The cache takes ownership of the extent: it lives in the persistent
      // shared arena (never recycled, survives run() calls) so the
      // (offset, length) pair is a stable identity for this pair's path —
      // which is what the solve cache keys flows by.
      offset = static_cast<std::uint32_t>(shared_arena_.size());
      shared_arena_.resize(shared_arena_.size() + len);
      dst = shared_arena_.data() + offset;
      route_cache_.insert(pair_key, RouteCacheEntry{offset, len});
      path_shared_[f] = 1;
    } else {
      if (len < free_paths_by_length_.size() &&
          !free_paths_by_length_[len].empty()) {
        offset = free_paths_by_length_[len].back();
        free_paths_by_length_[len].pop_back();
      } else {
        offset = static_cast<std::uint32_t>(path_arena_.size());
        path_arena_.resize(path_arena_.size() + len);
      }
      dst = path_arena_.data() + offset;
      path_shared_[f] = 0;
    }
    dst[0] = graph.injection_link(spec.src);
    std::copy(route_scratch_.links.begin(), route_scratch_.links.end(),
              dst + 1);
    dst[len - 1] = graph.consumption_link(spec.dst);
  }

  path_offset_[f] = offset;
  path_length_[f] = static_cast<std::uint16_t>(len);
  state_[f] = FlowState::kActive;
  solve_log_valid_ = false;  // a resume only handles departures
  non_departure_change_ = true;

  // Claim the next dispatch slot (slot index == position in active_flows_).
  // Growth is manual 1.25x instead of the vector's doubling: at million-
  // endpoint scale the live+old copies of a doubling realloc would dominate
  // peak RSS, and run_impl pre-reserves the exact first wave anyway.
  active_pos_[f] = static_cast<std::uint32_t>(active_flows_.size());
  active_flows_.push_back(f);
  if (slots_.capacity() < active_flows_.size()) {
    const std::size_t want = std::max(
        active_flows_.size(), slots_.capacity() + slots_.capacity() / 4);
    slots_.reserve(want);
    slot_rate_.reserve(want);
    slot_finish_.reserve(want);
  }
  slots_.resize(active_flows_.size());
  slot_rate_.resize(active_flows_.size());
  slot_finish_.resize(active_flows_.size());
  SlotState& slot = slots_.back();
  slot.remaining = spec.bytes;
  // Pipeline-fill latency: one hop per transit link (the two NIC links are
  // endpoint-internal).
  slot.latency_left = options_.hop_latency_seconds > 0.0
                          ? options_.hop_latency_seconds * (len - 2)
                          : 0.0;
  // Sentinel: no real rate compares equal, so the next advance pass is
  // guaranteed to touch this flow (activation marks its links dirty, so it
  // is always in the solved set). It is never multiplied: settling at the
  // slot's own settle_time is an exact no-op.
  slot_rate_.back() = -1.0;
  slot.settle_time = now;

  // The incidence lists learn of f only when one is next read (link_flows).
  unlinked_.push_back(f);
  // Prefetch front-pass: the charge loop below touches three per-link
  // structures at random link ids. At figure scale they sit in cache, but
  // at 2^20 endpoints each is tens of MB and every first touch is a DRAM
  // miss — starting all of them before any is consumed lets the misses
  // overlap instead of serialising per link.
  for (const LinkId l : path_view(f)) {
    __builtin_prefetch(&link_weight_sum_[l], 1);
    __builtin_prefetch(&link_active_count_[l], 1);
    __builtin_prefetch(&link_dirty_[l], 1);
  }
  for (const LinkId l : path_view(f)) {
    link_weight_sum_[l] += spec.weight;
    mark_dirty(l);
    if (link_active_count_[l]++ == 0) {
      ++num_active_links_;
      if (!link_in_used_[l]) {
        link_in_used_[l] = 1;
        used_links_.push_back(l);
      }
    }
  }
  return true;
}

void FlowEngine::complete(FlowIndex f, double now,
                          std::vector<FlowIndex>& ready) {
  state_[f] = FlowState::kDone;
  last_event_ = "completion";
  // A completed flow delivered exactly its payload across every link of its
  // path; accounting once here is equivalent to (and much cheaper than)
  // accumulating rate*dt per event.
  if (solve_log_valid_) departed_.push_back(f);
  const FlowSpec& spec = program_->flows()[f];  // unchecked: f is active
  const double bytes = spec.bytes;
  const double weight = spec.weight;
  // f's incidence entries, if it was ever linked, just go stale: the lists
  // count them as their size minus link_active_count_ (LinkFlowIncidence).
  for (const LinkId l : path_view(f)) {
    link_bytes_[l] += bytes;
    if (--link_active_count_[l] == 0) --num_active_links_;
    // Zero exactly when the link empties so weight dust never accumulates.
    link_weight_sum_[l] =
        link_active_count_[l] == 0 ? 0.0 : link_weight_sum_[l] - weight;
    mark_dirty(l);
  }
  recycle_path(f);

  if (!flow_finish_times_scratch_.empty()) {
    flow_finish_times_scratch_[f] = now;
  }

  for (const FlowIndex child : dag_scratch_->children(f)) {
    // Children cancelled by a stranded ancestor stay cancelled.
    if (--pending_parents_[child] == 0 &&
        state_[child] == FlowState::kPending) {
      ready.push_back(child);
    }
  }
}

void FlowEngine::strand(FlowIndex f, SimResult& result) {
  state_[f] = FlowState::kCancelled;
  ++result.stranded_flows;
  result.undelivered_bytes += program_->flow(f).bytes;
  if (!flow_finish_times_scratch_.empty()) {
    flow_finish_times_scratch_[f] = std::numeric_limits<double>::quiet_NaN();
  }
  cancel_descendants(f, result);
}

void FlowEngine::detach_from_network(FlowIndex f) {
  // Undo the link occupancy activate() charged. Bytes the flow moved before
  // the teardown are not credited to this path: link_bytes_ counts payload
  // against the path that finally delivers it (see complete()).
  solve_log_valid_ = false;  // f may come back on another path
  non_departure_change_ = true;
  // Eager removal, not a stale entry: a detached flow may re-activate on a
  // DIFFERENT path (reroute, restart retry), and the lists' staleness
  // filter — "is the flow active?" — would then wrongly freeze it at shares
  // of links it no longer crosses (found by the chaos harness's max-min
  // optimality oracle, see src/verify/). So detach is a reader: it first
  // links every flow activated since the last read, f included if it is
  // one, and then drops f from each list of its path. Linking first also
  // keeps f out of unlinked_, where a re-activation would otherwise list it
  // twice.
  if (!unlinked_.empty()) link_unlinked();
  const double weight = program_->flow(f).weight;
  for (const LinkId l : path_view(f)) {
    if (--link_active_count_[l] == 0) --num_active_links_;
    link_weight_sum_[l] =
        link_active_count_[l] == 0 ? 0.0 : link_weight_sum_[l] - weight;
    mark_dirty(l);
    incidence_.remove(l, f);
  }
  recycle_path(f);
}

void FlowEngine::strand_active(FlowIndex f, SimResult& result) {
  detach_from_network(f);
  strand(f, result);
}

void FlowEngine::link_unlinked() {
  // Activation order, so each list keeps its flows in the order of their
  // most recent activation, exactly as appending at activation would; flows
  // that finished unread are skipped.
  incidence_.link(
      unlinked_, link_active_count_,
      [this](FlowIndex f) { return path_view(f); }, FlowActive{this});
  unlinked_.clear();
}

void FlowEngine::recycle_path(FlowIndex f) {
  // Cache-owned extents are shared across flows and live for the whole run.
  if (path_shared_[f]) return;
  const auto len = path_length_[f];
  if (len >= free_paths_by_length_.size()) {
    free_paths_by_length_.resize(len + 1);
  }
  free_paths_by_length_[len].push_back(path_offset_[f]);
}

bool FlowEngine::collect_dirty_components_partitioned() {
  // Seed with the dirty links that still carry active flows; a drained
  // dirty link contributes nothing itself, but each link of a completed
  // flow's path was marked dirty individually, so every component the
  // completion touched is reached through its surviving links. Each seed's
  // component is BFS-exhausted before the next seed starts, so every
  // component occupies a contiguous range of affected_flows_ and
  // affected_links_ — the unit solve_components() solves.
  //
  // BFS over the bipartite flow-link incidence; affected_links_ doubles as
  // the frontier queue. Each range is a *complete* connected component:
  // any flow sharing a link with an affected flow is affected, which is
  // exactly the closure that makes a sub-solve exact (rates of a component
  // depend on nothing outside it, and within it the solver's freeze
  // sequence is a pure function of content — see maxmin.hpp).
  affected_links_.clear();
  affected_flows_.clear();
  components_.clear();
  // Once the walk has pulled in more than half the active flows, finishing
  // it costs more than it can save — the whole-set solve it would justify
  // is exact for any superset. Bail, clear the marks, let the caller
  // promote.
  const std::size_t bail_flows = active_flows_.size() / 2;
  for (const LinkId seed : dirty_links_) link_dirty_[seed] = 0;
  for (const LinkId seed : dirty_links_) {
    if (link_active_count_[seed] == 0 || link_in_component_[seed]) continue;
    const auto flow_begin = static_cast<std::uint32_t>(affected_flows_.size());
    const auto link_begin = static_cast<std::uint32_t>(affected_links_.size());
    link_in_component_[seed] = 1;
    affected_links_.push_back(seed);
    for (std::size_t scan = link_begin; scan < affected_links_.size();
         ++scan) {
      for (const FlowIndex g : link_flows(affected_links_[scan])) {
        if (state_[g] != FlowState::kActive || flow_in_component_[g]) continue;
        flow_in_component_[g] = 1;
        affected_flows_.push_back(g);
        for (const LinkId l : path_view(g)) {
          if (!link_in_component_[l]) {
            link_in_component_[l] = 1;
            affected_links_.push_back(l);
          }
        }
      }
      if (affected_flows_.size() > bail_flows) {
        for (const LinkId l : affected_links_) link_in_component_[l] = 0;
        for (const FlowIndex g : affected_flows_) flow_in_component_[g] = 0;
        dirty_links_.clear();
        return true;
      }
    }
    components_.push_back(
        ComponentRange{flow_begin,
                       static_cast<std::uint32_t>(affected_flows_.size()),
                       link_begin,
                       static_cast<std::uint32_t>(affected_links_.size())});
  }
  dirty_links_.clear();
  for (const LinkId l : affected_links_) link_in_component_[l] = 0;
  for (const FlowIndex g : affected_flows_) flow_in_component_[g] = 0;
  return false;
}

void FlowEngine::prune_used_links() {
  std::erase_if(used_links_, [this](LinkId l) {
    if (link_active_count_[l] > 0) return false;
    link_in_used_[l] = 0;
    return true;
  });
}

void FlowEngine::solve_components(SimResult& result) {
  const EngineContext ctx{this};
  for (const ComponentRange& range : components_) {
    const std::span<const LinkId> links(
        affected_links_.data() + range.link_begin,
        range.link_end - range.link_begin);
    const std::span<const FlowIndex> flows(
        affected_flows_.data() + range.flow_begin,
        range.flow_end - range.flow_begin);
    result.solver_rounds +=
        solver_.solve(ctx, links, link_weight_sum_, flows, rates_);
  }
}

const double* FlowEngine::probe_solve_cache(SimResult& result) {
  solve_insert_armed_ = false;
  // The key identifies flows by their shared (route-cache-owned) arena
  // extents; a free-listed extent's offset means nothing across events, so
  // any unshared path forfeits memoization for this event.
  for (const FlowIndex f : active_flows_) {
    if (!path_shared_[f]) return nullptr;
  }

  // A key larger than the entire cache budget can never have been stored
  // (storing admits keys only under the budget), so the probe is a
  // guaranteed miss: skip materialising the key — at million-endpoint
  // scale a whole-set key runs to hundreds of MB — and record the miss the
  // built-and-compared path would have recorded. The store stays disarmed,
  // exactly as the arming check below would have decided.
  const std::size_t key_words =
      1 + 3 * used_links_.size() + active_flows_.size();
  if (key_words > options_.solve_cache_budget_words) {
    ++result.solve_cache_misses;
    return nullptr;
  }

  // Content key in used_links_ and slot order, deliberately NOT
  // canonicalised: with uniform weights a flow's rate is a pure function of
  // (its extent, the problem's content multiset) — equal-extent flows are
  // bit-exactly interchangeable in the solver — so position i of the key
  // determines position i's rate no matter how the problem was enumerated.
  // Sorting would dedup permutations of one problem into one entry, but
  // costs an O(n log n) sort per event that profiling showed dominates the
  // hit path; the steady regime re-enumerates problems in an identical
  // order anyway (the whole engine is deterministic), so permuted
  // duplicates are rare and the budget absorbs them. FNV-1a picks the
  // bucket; correctness rests on the full-content comparison below, never
  // on the hash.
  solve_key_.clear();
  solve_key_.reserve(key_words);
  std::uint64_t hash = 14695981039346656037ull;
  const auto push = [this, &hash](std::uint64_t word) {
    solve_key_.push_back(word);
    hash ^= word;
    hash *= 1099511628211ull;
  };
  push((static_cast<std::uint64_t>(used_links_.size()) << 32) |
       active_flows_.size());
  for (const LinkId l : used_links_) {
    push(l);
    push(std::bit_cast<std::uint64_t>(link_capacity_[l]));
    push(std::bit_cast<std::uint64_t>(link_weight_sum_[l]));
  }
  for (const FlowIndex f : active_flows_) {
    push((static_cast<std::uint64_t>(path_offset_[f]) << 32) |
         path_length_[f]);
  }
  solve_key_hash_ = hash;

  const auto [first, last] = solve_cache_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    SolveCacheEntry& entry = it->second;
    if (entry.key == solve_key_) {
      ++result.solve_cache_hits;
      log_entry_ = entry.log.empty() ? nullptr : &entry;
      return entry.rates.data();
    }
  }
  ++result.solve_cache_misses;
  solve_insert_armed_ =
      solve_cache_words_ + key_words + active_flows_.size() <=
      options_.solve_cache_budget_words;
  return nullptr;
}

void FlowEngine::store_solve_cache() {
  log_entry_ = nullptr;
  if (!solve_insert_armed_) return;
  solve_insert_armed_ = false;
  // The key buffer may have grown for a larger probe that did not store;
  // the budget counts what the entry allocates.
  solve_key_.shrink_to_fit();
  SolveCacheEntry entry{std::move(solve_key_), {}, {}};
  entry.rates.reserve(active_flows_.size());
  for (const FlowIndex f : active_flows_) entry.rates.push_back(rates_[f]);
  solve_cache_words_ += entry.key.size() + entry.rates.size();
  log_entry_ = &solve_cache_.emplace(solve_key_hash_, std::move(entry))->second;
}

// Out of line: it runs on a few events per run, and run_impl's loop is
// sensitive to what is inlined into it.
[[gnu::noinline]] void FlowEngine::save_or_restore_log() {
  // Undo the swap-removals newest first: a departed flow's active_pos_
  // still names the slot it left, which the then-tail flow moved into.
  // active_flows_ regrows within its capacity.
  for (std::size_t i = departed_.size(); i-- > 0;) {
    const FlowIndex f = departed_[i];
    const std::uint32_t s = active_pos_[f];
    const auto tail = static_cast<std::uint32_t>(active_flows_.size());
    FlowIndex back = f;
    if (s != tail) {
      back = active_flows_[s];
      active_pos_[back] = tail;
      active_flows_[s] = f;
    }
    active_flows_.push_back(back);
  }
  SavedRoundLog& log = log_entry_->log;
  if (log.empty()) {
    log = solver_.save_log(
        active_pos_, options_.solve_cache_budget_words - solve_cache_words_);
    solve_cache_words_ += log.words();
  } else {
    solver_.restore_log(EngineContext{this}, log, active_flows_);
  }
  for (const FlowIndex f : departed_) {
    const std::uint32_t s = active_pos_[f];
    const FlowIndex moved = active_flows_.back();
    active_flows_[s] = moved;
    active_pos_[moved] = s;
    active_flows_.pop_back();
  }
}

void FlowEngine::cancel_descendants(FlowIndex f, SimResult& result) {
  cancel_stack_.assign(1, f);
  while (!cancel_stack_.empty()) {
    const FlowIndex parent = cancel_stack_.back();
    cancel_stack_.pop_back();
    for (const FlowIndex child : dag_scratch_->children(parent)) {
      if (state_[child] != FlowState::kPending) continue;
      state_[child] = FlowState::kCancelled;
      if (!program_->flow(child).is_sync) {
        ++result.cancelled_flows;
        result.undelivered_bytes += program_->flow(child).bytes;
      }
      if (!flow_finish_times_scratch_.empty()) {
        flow_finish_times_scratch_[child] =
            std::numeric_limits<double>::quiet_NaN();
      }
      cancel_stack_.push_back(child);
    }
  }
}

void FlowEngine::apply_due_fault_events(FaultDriver& driver, double now,
                                        SimResult& result) {
  // The same relative tolerance as release-time admission, so an event
  // scripted exactly at a completion instant applies in the same iteration
  // that lands there.
  fault_changed_scratch_.clear();
  const std::size_t applied =
      driver.apply_due(now * (1.0 + 1e-12), fault_changed_scratch_);
  if (applied == 0) return;
  result.fault_events_applied += applied;
  last_event_ = "fault";
  for (const auto& [link, factor] : fault_changed_scratch_) {
    if (link >= link_capacity_.size()) {
      throw std::out_of_range(
          "FlowEngine: fault driver reported a link outside this topology");
    }
    // Write capacities directly instead of set_capacity_factor: dropping
    // the solve cache on every timeline event would defeat it, and keys
    // embed capacity bits, so stale entries can never match — and a repair
    // restores the exact pre-fault bits, re-hitting the old entries.
    const double capacity = link_base_capacity_[link] * factor;
    if (capacity == link_capacity_[link]) continue;
    link_capacity_[link] = capacity;
    mark_dirty(link);
    solve_log_valid_ = false;
    non_departure_change_ = true;
  }
}

bool FlowEngine::queue_retry(FlowIndex f, double now, SimResult& result) {
  // The per-flow counter is a byte (see max_retries); the guard keeps the
  // increment below from ever wrapping.
  if (retry_count_[f] >= std::min<std::uint32_t>(options_.max_retries, 255)) {
    return false;
  }
  const double delay =
      options_.retry_backoff_seconds * std::ldexp(1.0, retry_count_[f]);
  ++retry_count_[f];
  ++result.flow_retries;
  state_[f] = FlowState::kPending;
  release_queue_.emplace_back(now + delay, f);
  std::push_heap(release_queue_.begin(), release_queue_.end(), release_after);
  return true;
}

void FlowEngine::recover_flow(FlowIndex f, double now, double remaining_now,
                              SimResult& result) {
  last_event_ = "recovery";
  switch (options_.recovery_policy) {
    case RecoveryPolicy::kStrand:
      strand_active(f, result);
      return;
    case RecoveryPolicy::kReroute: {
      detach_from_network(f);
      if (!activate(f, now, result)) {
        // No surviving path right now; the flow's progress cannot be parked
        // (reroute keeps no retry schedule), so it strands.
        strand(f, result);
        return;
      }
      // activate() seeded a fresh slot with the full payload and restarted
      // the pipeline fill; transferred bytes carry over, the fill (a new
      // path) does not.
      slots_[active_pos_[f]].remaining = remaining_now;
      for (const LinkId l : path_view(f)) {
        if (link_capacity_[l] <= 0.0) {
          // A fault-oblivious topology handed back the same dead route;
          // tearing it down and re-activating forever would hang the run.
          remove_active_slot(active_pos_[f]);  // activate() appended f above
          strand_active(f, result);
          return;
        }
      }
      ++result.recovered_flows;
      return;
    }
    case RecoveryPolicy::kRestartBackoff:
      detach_from_network(f);
      if (!queue_retry(f, now, result)) strand(f, result);
      return;
  }
}

// ---------------------------------------------------------------------------
// Dispatch kernel (DESIGN.md §12). Per-flow progress is rebased
// ("settled") only when a flow's rate changes, and between touches the
// flow's absolute predicted finish time — written once per rate change — is
// the single source of truth the candidate scan reads. The ReferenceEngine
// (src/verify/) reproduces the same arithmetic with none of the laziness.

void FlowEngine::settle_slot(std::uint32_t s, double at) noexcept {
  SlotState& slot = slots_[s];
  const double elapsed = at - slot.settle_time;
  // Exact no-op at elapsed == 0 (both stored values are >= 0; rate * 0 is
  // 0), so fresh slots and already-settled flows lose nothing. This is also
  // why the -1 finish_rate sentinel is never multiplied.
  if (elapsed == 0.0) return;
  slot.latency_left = std::max(0.0, slot.latency_left - elapsed);
  slot.remaining =
      std::max(0.0, slot.remaining - slot_rate_[s] * elapsed);
  slot.settle_time = at;
}

double FlowEngine::settled_remaining(FlowIndex f, double at) const noexcept {
  const std::uint32_t s = active_pos_[f];
  const SlotState& slot = slots_[s];
  const double elapsed = at - slot.settle_time;
  if (elapsed == 0.0) return slot.remaining;
  return std::max(0.0, slot.remaining - slot_rate_[s] * elapsed);
}

double FlowEngine::settled_latency_left(FlowIndex f,
                                        double at) const noexcept {
  const SlotState& slot = slots_[active_pos_[f]];
  return std::max(0.0, slot.latency_left - (at - slot.settle_time));
}

void FlowEngine::remove_active_slot(std::uint32_t s) noexcept {
  const std::uint32_t last =
      static_cast<std::uint32_t>(active_flows_.size() - 1);
  if (s != last) {
    const FlowIndex moved = active_flows_[last];
    active_flows_[s] = moved;
    active_pos_[moved] = s;
    slots_[s] = slots_[last];
    slot_rate_[s] = slot_rate_[last];
    slot_finish_[s] = slot_finish_[last];
  }
  active_flows_.pop_back();
  slots_.pop_back();
  slot_rate_.pop_back();
  slot_finish_.pop_back();
}

// The two sweep kernels and the finish scan stay out of line. Inlined into
// run_impl's event loop, an LTO build no longer inlines settle_slot into
// the sweeps, whose changed-rate path (every slot of a freshly activated
// phase) slows by about a third, and the scan's loop ran at half speed on
// the N = 1024 mapreduce replay, where it reads a million finishes per
// resumed event.
[[gnu::noinline]] void FlowEngine::advance_flows(
    std::span<const FlowIndex> flows, double now,
    std::vector<FlowIndex>& zero_out) {
  // rates_ keeps the raw solver output; the quantised rate lives only in
  // slot_rate_, so every solved flow is quantised here from its raw rate
  // and compared with the quantised rate its finish time was computed
  // with.
  RateQuantiser quantise(options_.rate_quantum_rel);
  for (const FlowIndex f : flows) {
    const double r = quantise(rates_[f]);
    const std::uint32_t s = active_pos_[f];
    // Unchanged rate (bitwise): the stored absolute finish time is still
    // exact — this is the lazy-advance invariant, nothing to rewrite.
    if (r == slot_rate_[s]) continue;
    settle_slot(s, now);
    SlotState& slot = slots_[s];
    if (r <= 0.0 && slot.remaining > 0.0) {
      // A dead (capacity-0) link sits on the flow's path — it could never
      // finish as routed. Collected for the recovery policy.
      zero_out.push_back(f);
      continue;
    }
    slot_rate_[s] = r;
    // Explicit zero-rate guard for the scan: remaining == 0 with rate 0 is
    // a pure pipeline-fill tail (a rerouted/faulted flow that already
    // delivered its bytes), and remaining / rate would be 0/0 = NaN. The
    // transfer term of such a flow is 0 — only the fill remains.
    const double transfer = slot.remaining > 0.0 ? slot.remaining / r : 0.0;
    slot_finish_[s] = now + std::max(slot.latency_left, transfer);
  }
}

[[gnu::noinline]] double FlowEngine::advance_flows_whole(
    double now, std::vector<FlowIndex>& zero_out, const double* slot_rates) {
  // Same arithmetic as advance_flows, restricted to the case where the
  // solved span IS active_flows_: slot s holds solved flow s, so the
  // active_pos_ gather disappears and slots_/slot_finish_ stream
  // sequentially. The unchanged-rate test runs before any slot write, so
  // skipped flows are bitwise untouched either way; changed flows go
  // through the identical quantise/settle/refresh sequence.
  RateQuantiser quantise(options_.rate_quantum_rel);
  FinishCandidates cands(now, options_.completion_batch_rel, cand_slots_);
  const std::size_t n = active_flows_.size();
  for (std::size_t s = 0; s < n; ++s) {
    // slot_rates streams sequentially; the rates_[f] gather it replaces
    // is one DRAM miss per slot at million-flow scale. The fast path
    // touches only slot_rates/slot_rate_/slot_finish_ — the settle record
    // (slots_) is never pulled in for unchanged flows.
    const double r = quantise(slot_rates != nullptr
                                  ? slot_rates[s]
                                  : rates_[active_flows_[s]]);
    if (r == slot_rate_[s]) {
      cands.note(s, slot_finish_[s]);
      continue;
    }
    settle_slot(static_cast<std::uint32_t>(s), now);
    SlotState& slot = slots_[s];
    if (r <= 0.0 && slot.remaining > 0.0) {
      zero_out.push_back(active_flows_[s]);
      continue;
    }
    slot_rate_[s] = r;
    const double transfer = slot.remaining > 0.0 ? slot.remaining / r : 0.0;
    const double finish = now + std::max(slot.latency_left, transfer);
    slot_finish_[s] = finish;
    cands.note(s, finish);
  }
  return cands.fmin();
}

[[gnu::noinline]] double FlowEngine::collect_finish_candidates(double now) {
  FinishCandidates cands(now, options_.completion_batch_rel, cand_slots_);
  const std::size_t n = slot_finish_.size();
  for (std::size_t s = 0; s < n; ++s) cands.note(s, slot_finish_[s]);
  return cands.fmin();
}

SimResult FlowEngine::run(const TrafficProgram& program) {
  return run_impl(program, nullptr);
}

SimResult FlowEngine::run(const TrafficProgram& program, FaultDriver& faults) {
  return run_impl(program, &faults);
}

SimResult FlowEngine::run_impl(const TrafficProgram& program,
                               FaultDriver* driver) {
  program.validate(topology_.num_endpoints());
  const DependencyDag dag(program);
  program_ = &program;
  dag_scratch_ = &dag;

  const std::uint32_t n = program.num_flows();
  state_.assign(n, FlowState::kPending);
  pending_parents_ = dag.pending_parents();
  retry_count_.assign(n, 0);
  rates_.assign(n, 0.0);
  // active_pos_ entries are only read while their flow is active (activate
  // always writes first), so stale values from a previous run are fine —
  // resize instead of assign to skip an O(n) fill.
  active_pos_.resize(n);
  slots_.clear();
  slot_rate_.clear();
  slot_finish_.clear();
  // Kept all-zero between events by the harvest extraction loop; only needs
  // zeroing when the flow count grows.
  finished_mask_.assign((n + 63) / 64, 0);
  path_offset_.assign(n, 0);
  path_length_.assign(n, 0);
  path_shared_.assign(n, 0);
  path_arena_.clear();
  free_paths_by_length_.clear();
  // route_cache_ / shared_arena_ are deliberately NOT cleared: native routes
  // on a static-route topology are pure functions of (src, dst), so programs
  // run on one engine (ablation_mapping and ext_related run several; a
  // steady-state replay repeats one) route shared pairs straight from cache
  // on every run after the first.
  // Equal-weight flows are bit-exactly exchangeable inside a solver freeze
  // round (identical subtrahends commute in floating point), and unit
  // weights keep every link weight sum an integer; weighted ones are
  // neither, so memoized rates could differ from a fresh solve and a
  // warm-started solve could not rebuild link weights exactly. Both sit
  // out weighted runs to keep the bit-identity contract.
  unit_weights_ = program.unit_weights();
  // Under adaptive routing the route cache can still run (topologies whose
  // adaptive route ignores loads), but the solve cache stays off: it costs
  // a one-shot run more than it saves (DESIGN.md §6).
  solve_cache_active_ =
      route_cache_active_ && !options_.adaptive_routing && unit_weights_;
  solve_log_valid_ = false;
  log_entry_ = nullptr;
  non_departure_change_ = false;
  departed_.clear();
  solve_insert_armed_ = false;
  if (route_cache_active_ && !options_.adaptive_routing) {
    // Pre-size the route cache for the program's pair count so a cold run
    // never pays incremental rehashing of a million-entry table mid-loop.
    // An upper bound is fine (distinct pairs <= flows, insertion stops at
    // kMaxCachedRoutes) and reserve() is a no-op once the table is there.
    // Not under adaptive routing: those are the one-shot figure runs, where
    // a table sized for every flow costs more memory than its rehashes
    // cost time.
    route_cache_.reserve(std::min<std::size_t>(n, kMaxCachedRoutes));
  }
  for (const LinkId l : dirty_links_) link_dirty_[l] = 0;
  dirty_links_.clear();
  flow_in_component_.assign(n, 0);
  active_flows_.clear();
  used_links_.clear();
  std::fill(link_bytes_.begin(), link_bytes_.end(), 0.0);
  // Link occupancy must be clean from the previous run.
  assert(std::all_of(link_active_count_.begin(), link_active_count_.end(),
                     [](std::uint32_t c) { return c == 0; }));
  num_active_links_ = 0;
  std::fill(link_weight_sum_.begin(), link_weight_sum_.end(), 0.0);
  incidence_.reset(link_capacity_.size());
  unlinked_.clear();
  std::fill(link_in_used_.begin(), link_in_used_.end(), 0);
  solver_.resize(link_capacity_.size(), n);
  flow_finish_times_scratch_.clear();
  if (options_.record_flow_times) {
    flow_finish_times_scratch_.assign(n, 0.0);
  }

  SimResult result;
  result.num_flows = program.num_data_flows();

  std::vector<FlowIndex> ready = dag.roots();
  double now = 0.0;
  double weighted_active = 0.0;
  const EngineContext ctx{this};

  // Exact-fit slot reservation for the first activation wave (flows with no
  // dependencies and no future release time). On the big steady-state
  // recipes the first wave IS the peak concurrency, and nailing it up front
  // means the slot arrays never realloc mid-run — a doubling realloc at
  // peak would transiently hold old + new copies and poison peak RSS.
  {
    std::size_t immediate = 0;
    for (const FlowIndex f : ready) {
      const FlowSpec& spec = program.flow(f);
      if (!spec.is_sync && spec.release_seconds <= 0.0) ++immediate;
    }
    if (slots_.capacity() < immediate) {
      slots_.reserve(immediate);
      slot_rate_.reserve(immediate);
      slot_finish_.reserve(immediate);
    }
  }

  last_event_ = "start";
  // Consecutive events with frozen time and no state change; see the
  // kLivelock watchdog at the bottom of the loop.
  std::uint64_t zero_progress_events = 0;
  // An attached auditor sees the whole run: start, every event, end.
  FlowAuditor* const auditor = auditor_;
  PhaseClock clock(options_.time_solver);
  // Probe-first whole-set hint: set whenever an event that may memoize
  // solved the whole active set (threshold, BFS bail or a previous probe),
  // cleared after two consecutive probe misses. While set, such an event —
  // one with arrivals, such as each step of sweep3d's wavefront — skips the
  // component BFS and looks the whole-set key up directly, so a replay pays
  // one key build per arrival event instead of an O(active) component walk.
  // Departure-only events neither read nor set it. Purely a work-routing
  // decision: rates are bit-identical either way. Per run: every run's
  // first solve is a threshold solve, which never reads it.
  bool whole_set_hint = false;
  std::uint32_t whole_probe_misses = 0;
  if (auditor != nullptr) auditor->on_run_start(AuditView(*this, now, 0.0, 0));

  release_queue_.clear();
  // Timeline presence is frozen here: an exhausted driver (no events at
  // all) must leave every code path exactly as a driverless run, bit for
  // bit.
  const bool have_timeline =
      driver != nullptr && std::isfinite(driver->next_event_time());

  for (;;) {
    // Bring the fault state up to `now` before activating or solving:
    // routing and rate allocation must agree on which links are up.
    if (have_timeline) apply_due_fault_events(*driver, now, result);

    // Activate everything runnable; sync flows complete instantly and may
    // cascade more activations within the same pass. Flows whose release
    // time lies in the future are parked in the release queue.
    clock.restart();
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const FlowIndex f = ready[i];
      if (state_[f] != FlowState::kPending) continue;  // cancelled meanwhile
      last_event_ = "activation";
      if (route_cache_active_) {
        // Route-table lookups probe DRAM in hash order; start the probe for
        // a flow a few activations ahead so the bucket line is resident by
        // the time activate() reads it. ready may grow mid-loop (sync
        // cascades), so the bound is re-read each iteration.
        constexpr std::size_t kRouteLookahead = 8;
        if (i + kRouteLookahead < ready.size()) {
          const FlowSpec& ahead =
              program.flows()[ready[i + kRouteLookahead]];
          if (!ahead.is_sync) route_cache_.prefetch(ahead.pair_key());
        }
      }
      const FlowSpec& spec = program.flows()[f];
      if (spec.release_seconds > now * (1.0 + 1e-12) &&
          spec.release_seconds > 0.0) {
        release_queue_.emplace_back(spec.release_seconds, f);
        std::push_heap(release_queue_.begin(), release_queue_.end(),
                       release_after);
        continue;
      }
      if (spec.is_sync) {
        state_[f] = FlowState::kDone;
        if (!flow_finish_times_scratch_.empty()) {
          flow_finish_times_scratch_[f] = now;
        }
        for (const FlowIndex child : dag.children(f)) {
          if (--pending_parents_[child] == 0 &&
              state_[child] == FlowState::kPending) {
            ready.push_back(child);
          }
        }
      } else if (!activate(f, now, result)) {
        // No surviving path (dead endpoint or partition). Under restart
        // backoff the partition may heal — a repair event can precede the
        // retry — so the flow waits out its backoff instead of stranding;
        // otherwise graceful degradation instead of a routing crash or an
        // engine hang.
        if (options_.recovery_policy != RecoveryPolicy::kRestartBackoff ||
            !queue_retry(f, now, result)) {
          strand(f, result);
        }
      }
    }
    ready.clear();
    clock.lap(result.route_seconds);

    // The network is idle: jump straight to the next arrival.
    if (active_flows_.empty() && !release_queue_.empty()) {
      now = std::max(now, release_queue_.front().first);
    }
    // Re-admit everything due by `now`.
    while (!release_queue_.empty() &&
           release_queue_.front().first <= now * (1.0 + 1e-12)) {
      ready.push_back(release_queue_.front().second);
      std::pop_heap(release_queue_.begin(), release_queue_.end(),
                    release_after);
      release_queue_.pop_back();
    }
    if (!ready.empty()) continue;

    if (active_flows_.empty()) break;

    clock.restart();
    // Flows whose rates this event's solve (re)wrote; the quantise and
    // zero-rate recovery passes below enumerate exactly this set.
    std::span<const FlowIndex> solved = active_flows_;
    // A whole-set solve-cache hit's memoized rates, in slot order. The
    // event's fused sweep streams them instead of a scatter into rates_ and
    // its own gather from it: the sweep compares each quantised rate with
    // slot_rate_, never with rates_, and nothing reads the rates_ entries
    // it leaves unwritten before a solve rewrites them (a resume on the
    // entry's restored log reads and writes only the flows it refreezes).
    // The arena cannot reallocate before the sweep, since only a miss
    // stores.
    const double* whole_hit = nullptr;
    // The selection policy below only routes work: whole active set or
    // per-component ranges. Every choice reproduces the same rates
    // bit-for-bit — solving independent components together or apart is the
    // same arithmetic (the freeze sequence is a pure function of component
    // content, maxmin.hpp), and re-solving an untouched component
    // regenerates its frozen rates exactly — and every decision is a pure
    // function of engine state, never of timing.
    //
    // Threshold: most of the live fabric dirty (giant completion batches:
    // the mapreduce shuffle dirties nearly every link every event) means
    // the component BFS would walk the whole incidence only to rediscover
    // "everything" — solve the whole active set directly. Likewise when
    // only flows left since the last whole-set solve: resuming that solve's
    // round log (below) beats the walk, which on the paper's workloads
    // percolates to the whole set and bails anyway (DESIGN.md §11).
    //
    // Only an event that follows an activation, a detach or a capacity
    // change probes or stores the solve cache, and only for a whole-set
    // solve; a departure-only event resumes when the log is valid and
    // otherwise solves afresh (§6).
    const bool memoize = solve_cache_active_ && non_departure_change_;
    // Whole-set keys read used_links_ in order, and that order depends on
    // when drained links were pruned. Exactly the events that follow an
    // activation, a detach or a capacity change prune, so the order follows
    // the physical event sequence alone and a replay rebuilds the cold
    // run's keys even where it resumes or solves differently in between.
    // Every other event leaves drained links in place: a resume reads no
    // link list, and a fresh solve skips them by their zero weight.
    if (non_departure_change_) prune_used_links();
    bool whole =
        solve_log_valid_ || 2 * dirty_links_.size() >= num_active_links_;
    bool cache_probed = false;  // the whole set was probed this event
    if (!whole && memoize && whole_set_hint && !solve_cache_.empty()) {
      // Probe-first: recent arrival events solved the whole active set, so
      // its key likely repeats (phase-structured workloads replay
      // bit-identical allocation problems). Looking it up costs one key
      // build; a hit skips BOTH the component BFS and the solve. Misses are
      // tolerated once (the whole-set solve they promote re-earns the hint
      // via the store); twice in a row drops the hint and returns to
      // BFS-decided routing.
      whole_hit = probe_solve_cache(result);
      cache_probed = true;
      if (whole_hit != nullptr) {
        whole = true;
        whole_probe_misses = 0;
      } else if (++whole_probe_misses <= 1) {
        whole = true;
      } else {
        whole_set_hint = false;
        solve_insert_armed_ = false;  // no later store may take this key
        cache_probed = false;
      }
    }
    // Otherwise re-solve only the connected components touched by an
    // occupancy change; untouched components keep their frozen rates
    // (max-min independence — see DESIGN.md §6). The walk bails once it has
    // pulled in over half the active flows; a whole-set solve is then
    // cheaper and just as exact.
    if (!whole) whole = collect_dirty_components_partitioned();
    if (whole) {
      for (const LinkId l : dirty_links_) link_dirty_[l] = 0;
      dirty_links_.clear();
      if (memoize) {
        whole_set_hint = true;
        if (!cache_probed) {
          whole_probe_misses = 0;
          whole_hit = probe_solve_cache(result);
        }
      }
      if (whole_hit == nullptr) {
        if (solve_log_valid_) {
          // Only flows left since the last whole-set solve: resume its
          // round log above the earliest round a departed flow froze in
          // (DESIGN.md §11) — the same rates a fresh solve computes. Every
          // other flow keeps its raw rate in rates_, so only the flows the
          // resume froze anew can change rate. Right after a solve the
          // cache stored, the log is first saved into its entry; right
          // after a hit, the entry's log is first restored.
          if (log_entry_ != nullptr) save_or_restore_log();
          result.solver_rounds +=
              solver_.resume(ctx, departed_, active_flows_.size(), rates_);
          solved = solver_.refrozen_flows();
        } else {
          result.solver_rounds += solver_.solve(
              ctx, used_links_, link_weight_sum_, active_flows_, rates_);
        }
        // Memoize raw rates: the quantiser below writes only slot_rate_
        // and is a pure per-flow function, so replaying them through it on
        // a future hit lands on identical quantised values.
        store_solve_cache();
      }
      solve_log_valid_ =
          unit_weights_ && (whole_hit == nullptr || log_entry_ != nullptr);
    } else {
      // Per-component ranges, solved afresh: the solve cache holds only
      // whole-set solves.
      solve_components(result);
      solved = affected_flows_;
      solve_log_valid_ = false;
    }
    departed_.clear();
    non_departure_change_ = false;
    clock.lap(result.solve_seconds);
    // Everything from here to the end of the iteration is event dispatch,
    // timed as three laps — advance, select, complete — whose sum is
    // dispatch_seconds; the auditor's callback falls between two of them
    // and is charged to none.

    // --- Advance: settle rate-changed flows, refresh finish times --------
    // Only freshly solved flows can have changed rate; untouched components
    // and the flows a resume kept hold their raw rates, and so their
    // quantised ones, exactly as a full solve-and-requantise would
    // recompute them. Whole-set events (the span aliases active_flows_
    // itself — cache hits, threshold and bailed solves) take the fused
    // slot-order sweep, which also yields the select phase's min and
    // completion candidates for free. Every other event — resumed or
    // component-solved — advances its span and then scans the finishes.
    zero_rate_scratch_.clear();
    const bool whole_sweep = solved.data() == active_flows_.data() &&
                             solved.size() == active_flows_.size();
    double fused_fmin = std::numeric_limits<double>::infinity();
    if (whole_sweep) {
      fused_fmin =
          advance_flows_whole(now, zero_rate_scratch_, whole_hit);
    } else {
      advance_flows(solved, now, zero_rate_scratch_);
    }
    if (!zero_rate_scratch_.empty()) {
      // A rate of 0 with bytes left means a dead (capacity-0) link sits on
      // the flow's path — it could never finish as routed. Hand such flows
      // to the recovery policy (strand / reroute / restart-backoff) and
      // re-solve. Every recovery outcome leaves the active list (strand,
      // requeue) or re-enters it with a fresh slot (reroute), so slots are
      // freed first; the settled residual rides along because the slot that
      // held it is gone by the time the policy runs. Ascending flow order
      // makes recovery independent of solve enumeration order (and so of
      // the component partition).
      std::sort(zero_rate_scratch_.begin(), zero_rate_scratch_.end());
      for (const FlowIndex f : zero_rate_scratch_) {
        const std::uint32_t s = active_pos_[f];
        const double left = slots_[s].remaining;
        remove_active_slot(s);
        recover_flow(f, now, left, result);
      }
      clock.lap(result.advance_seconds);
      continue;
    }
    clock.lap(result.advance_seconds);

    // --- Select: earliest predicted finish, then arrival/fault caps ------
    const double fmin =
        whole_sweep ? fused_fmin : collect_finish_candidates(now);
    // dt is the gap to the earliest finish unless an arrival or fault event
    // lands first: both change the rate allocation, so time never steps
    // past them. Events due at `now` were applied at the top of the
    // iteration, so the next fault is strictly later and dt stays >= 0.
    const double flow_dt = fmin - now;
    double dt = flow_dt;
    if (!release_queue_.empty()) {
      dt = std::min(dt, std::max(0.0, release_queue_.front().first - now));
    }
    if (have_timeline) {
      const double next_fault = driver->next_event_time();
      if (std::isfinite(next_fault)) {
        dt = std::min(dt, std::max(0.0, next_fault - now));
      }
    }
    if (!std::isfinite(dt) || dt < 0.0) {
      throw EngineError(EngineError::Kind::kNonFiniteHorizon,
                        loop_snapshot(result.events, now));
    }

    ++result.events;
    if (options_.max_events != 0 && result.events > options_.max_events) {
      throw EngineError(EngineError::Kind::kMaxEventsExceeded,
                        loop_snapshot(result.events, now));
    }
    clock.lap(result.select_seconds);

    if (auditor != nullptr) {
      auditor->on_event(AuditView(*this, now, dt, result.events));
      clock.restart();
    }

    // --- Complete: harvest everything inside the batching window ---------
    // The deadline is absolute: old now + dt*(1 + batch_rel). When dt is
    // flow-defined (not capped by an arrival/fault), it is additionally
    // floored at fmin itself, because now + (fmin - now) can round BELOW
    // fmin — the defining flow must always pass its own completion test.
    // Survivors provably keep finish > deadline >= the new now (the
    // deadline product and sum are FP-monotone), so the next event's dt
    // stays non-negative.
    double deadline = now + dt * (1.0 + options_.completion_batch_rel);
    if (dt == flow_dt) deadline = std::max(deadline, fmin);
    now += dt;
    weighted_active += static_cast<double>(active_flows_.size()) * dt;
    result.peak_active_flows = std::max(
        result.peak_active_flows,
        static_cast<std::uint32_t>(active_flows_.size()));

    const std::size_t active_before = active_flows_.size();
    harvest_scratch_.clear();
    // The select phase already collected every possible completion (a
    // superset of distinct slots — see FinishCandidates); filter it against
    // the actual deadline instead of re-scanning a million slot finishes.
    for (const std::uint32_t s : cand_slots_) {
      if (slot_finish_[s] <= deadline) {
        harvest_scratch_.push_back(active_flows_[s]);
      }
    }
    // Process in ascending flow order — the order the ReferenceEngine
    // completes in, independent of the slot order swap-compaction permutes.
    // A batch whose flows lie far apart in index (nbodies' ring chains)
    // is sorted; a dense one goes through the flow bitmap, whose word-range
    // scan then costs less than the sort.
    if (harvest_scratch_.size() > 1) {
      std::size_t lo = finished_mask_.size();
      std::size_t hi = 0;
      for (const FlowIndex f : harvest_scratch_) {
        const std::size_t w = f >> 6;
        finished_mask_[w] |= 1ull << (f & 63u);
        lo = std::min(lo, w);
        hi = std::max(hi, w);
      }
      const std::size_t count = harvest_scratch_.size();
      if (hi - lo >= count * std::bit_width(count)) {
        for (const FlowIndex f : harvest_scratch_) finished_mask_[f >> 6] = 0;
        std::sort(harvest_scratch_.begin(), harvest_scratch_.end());
      } else {
        harvest_scratch_.clear();
        for (std::size_t w = lo; w <= hi; ++w) {
          std::uint64_t bits = finished_mask_[w];
          if (bits == 0) continue;
          finished_mask_[w] = 0;
          const FlowIndex base = static_cast<FlowIndex>(w << 6);
          do {
            harvest_scratch_.push_back(
                base + static_cast<FlowIndex>(std::countr_zero(bits)));
            bits &= bits - 1;
          } while (bits != 0);
        }
      }
    }
    const std::size_t batch = harvest_scratch_.size();
    const FlowSpec* const specs = program.flows().data();
    for (std::size_t i = 0; i < batch; ++i) {
      // Two-stage lookahead: the far stage pulls the flow-indexed records
      // in; the near stage reads them (now resident) to start the truly
      // random loads — the flow's slot (remove_active_slot's swap target)
      // and its path extent — early enough to hide DRAM latency under a
      // giant batch (the mapreduce shuffle completes ~30k flows per event).
      constexpr std::size_t kFar = 24;
      constexpr std::size_t kNear = 8;
      if (i + kFar < batch) {
        const FlowIndex pf = harvest_scratch_[i + kFar];
        __builtin_prefetch(&state_[pf]);
        __builtin_prefetch(&active_pos_[pf]);
        __builtin_prefetch(&path_offset_[pf]);
        __builtin_prefetch(&path_length_[pf]);
        __builtin_prefetch(&path_shared_[pf]);
        __builtin_prefetch(specs + pf);
        dag.prefetch_children(pf);
      }
      if (i + kNear < batch) {
        const FlowIndex pf = harvest_scratch_[i + kNear];
        const std::uint32_t ps = active_pos_[pf];
        __builtin_prefetch(&slots_[ps], 1);
        __builtin_prefetch(&slot_rate_[ps], 1);
        __builtin_prefetch(&slot_finish_[ps], 1);
        __builtin_prefetch(&active_flows_[ps], 1);
        __builtin_prefetch((path_shared_[pf] ? shared_arena_.data()
                                             : path_arena_.data()) +
                           path_offset_[pf]);
        // The removal that processes pf will move the then-tail flow into
        // pf's slot and rewrite that flow's active_pos_ entry — a random
        // store. The tail is consumed in order, so the flow kNear removals
        // from the back is (approximately, completions can skip) the one
        // that removal will move; start its position line now.
        if (active_flows_.size() > kNear) {
          __builtin_prefetch(
              &active_pos_[active_flows_[active_flows_.size() - 1 - kNear]],
              1);
        }
      }
      // Third stage: the near stage made the path extent resident, so the
      // link ids themselves are readable — start the per-link state loads
      // complete() will hit. A wash at figure scale (the link arrays live
      // in cache), but at 2^20 endpoints they are tens of MB each and
      // every first touch is a DRAM miss.
      constexpr std::size_t kLink = 3;
      if (i + kLink < batch) {
        for (const LinkId l : path_view(harvest_scratch_[i + kLink])) {
          __builtin_prefetch(&link_weight_sum_[l], 1);
          __builtin_prefetch(&link_active_count_[l], 1);
          __builtin_prefetch(&link_bytes_[l], 1);
        }
      }
      // Every harvested flow is a distinct active slot's, and completing
      // one only readies pending children, so each is still active here.
      const FlowIndex f = harvest_scratch_[i];
      assert(state_[f] == FlowState::kActive);
      remove_active_slot(active_pos_[f]);
      complete(f, now, ready);
    }

    // Watchdog: an event that advanced neither simulated time nor any flow's
    // lifecycle is only legal as a transient (e.g. a zero-dt arrival step).
    // A long unbroken run of them means the loop will never drain.
    if (dt > 0.0 || !ready.empty() ||
        active_flows_.size() != active_before) {
      zero_progress_events = 0;
    } else if (++zero_progress_events > kMaxZeroProgressEvents) {
      throw EngineError(EngineError::Kind::kLivelock,
                        loop_snapshot(result.events, now));
    }
    clock.lap(result.complete_seconds);
  }
  result.dispatch_seconds =
      result.advance_seconds + result.select_seconds + result.complete_seconds;

  for (FlowIndex f = 0; f < n; ++f) {
    if (state_[f] != FlowState::kDone &&
        state_[f] != FlowState::kCancelled) {
      throw EngineError(EngineError::Kind::kFlowNeverCompleted,
                        loop_snapshot(result.events, now));
    }
  }

  result.makespan = now;
  result.total_bytes = program.total_bytes();
  result.avg_active_flows = now > 0.0 ? weighted_active / now : 0.0;

  const Graph& graph = topology_.graph();
  for (LinkId l = 0; l < graph.num_links(); ++l) {
    const auto cls = static_cast<std::size_t>(graph.link(l).link_class);
    result.bytes_by_class[cls] += link_bytes_[l];
    if (now > 0.0 && link_capacity_[l] > 0.0) {
      result.max_link_utilization =
          std::max(result.max_link_utilization,
                   link_bytes_[l] / (link_capacity_[l] * now));
    }
  }
  if (options_.record_flow_times) {
    result.flow_finish_times = std::move(flow_finish_times_scratch_);
    flow_finish_times_scratch_.clear();
  }

  // program_ is still set here: the end-of-run view may read flow specs.
  if (auditor != nullptr) {
    auditor->on_run_end(AuditView(*this, now, 0.0, result.events), result);
  }

  program_ = nullptr;
  dag_scratch_ = nullptr;
  return result;
}

}  // namespace nestflow
