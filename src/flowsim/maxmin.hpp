// Max-min fair rate allocation (progressive filling / water-filling).
//
// Given a set of active flows, each pinned to a fixed path of capacitated
// links, the max-min fair allocation repeatedly finds the most contended
// link (smallest capacity-per-flow share), freezes every flow crossing it
// at that share, removes the frozen bandwidth everywhere, and continues
// until all flows are frozen. This is the bandwidth model of flow-level
// simulators such as INRFlow: instantaneous fair sharing with no transport
// dynamics.
//
// Key algorithmic fact exploited here: during progressive filling a link's
// fair share (remaining capacity / unfrozen flow count) is monotonically
// NON-DECREASING — freezing a flow at the global minimum share s removes s
// capacity and one flow from each of its links, and (c - s)/(n - 1) >= c/n
// whenever s <= c/n. Each round therefore only needs the minimum FRESH
// (share, link-id) pair over live links plus every link whose fresh share
// ties it bitwise; the batch freezes in ascending link-id order and frozen
// bandwidth is subtracted through per-link deferred-delta accumulators
// (one accumulated subtraction per surviving link per round). The freeze
// sequence is a strict (share, id) order — a pure function of component
// content — which is what lets the incremental engine solve one connected
// component in isolation and get bit-identical rates to a whole-network
// solve (see engine.cpp).
//
// One kernel identifies each round's batch, with a data-structure switch
// for adversarial instances:
//
//   Scan — struct-of-arrays saturation scan: residuals and unfrozen weight
//   sums live in two contiguous slot arrays (compacted over the live links
//   of this solve, not indexed by global link id), and each round sweeps
//   them once computing every live fresh share (one division, see the
//   residual-clamp invariant below), takes the minimum, then harvests
//   bitwise ties in a second sweep that recomputes the same quotients.
//   Dead slots (weight drained below epsilon) are compacted out in place
//   during the sweep. O(U) per round with streaming access — cheap when
//   rounds are few and batches are huge (symmetric workloads: the mapreduce
//   shuffle, nearest-neighbour exchanges at scale).
//
//   Heap fallback — once the cumulative scan work exceeds a small multiple
//   of the initial live-slot count (an instance needing O(U) singleton
//   rounds), the solve builds a lazy-revalidation min-heap keyed by the
//   current fresh shares and finishes on it. Shares only grow, so any
//   previously computed share lower-bounds the fresh one: pop a link,
//   recompute its fresh share, freeze if it is <= the next key (which
//   lower-bounds every other fresh share) else re-push. Ties are harvested
//   by draining keys <= the leader's share: every tied link's keys are <=
//   its fresh share == the leader's share, so the drain pops each at least
//   once; non-tied links re-enter with their fresh (> leader) key. This is
//   the PR-6 algorithm, operation for operation.
//
// Both produce the identical (share, id) minimum each round — the heap's
// freeze certificate selects exactly the lexicographic minimum fresh pair,
// the scan computes it directly, and the tie harvest in both collects
// exactly the set of live links whose fresh share equals it — so the
// switch point never changes a rate or a round count.
// tests/test_maxmin_properties.cpp pins this against a verbatim copy of
// the PR-6 solver, including a staircase instance that crosses the switch.
//
// Residual-clamp invariant: the PR-6 solver stored each link's raw
// residual and computed shares as max(residual, capacity*1e-12)/weight —
// the floor keeps FP drift from stalling the event loop on a dust link.
// This kernel instead stores the CLAMPED residual (init: the capacity
// itself, trivially >= its floor) and re-clamps at delta application:
// residual = max(residual - delta, capacity*1e-12). Because deltas are
// non-negative, max(max(r, c) - d, c) == max(r - d, c) holds bit-exactly
// (when r >= c the subtraction is the identical FP op; when r < c both
// sides pin to c, since subtracting d >= 0 cannot raise either operand
// above c), so every share equals PR-6's max(r, c)/w bitwise while the
// hot sweep pays one load and one division per slot — no floor array, no
// max in the inner loop.
//
// Freezing is two-pass per round: pass 1 walks the sorted batch freezing
// flows (marking them "new this round"); pass 2 re-walks the identical
// batch/incidence order, demoting the marks and accumulating path deltas.
// Splitting the passes lets the final round of a solve skip delta
// accumulation entirely (no unfrozen flow remains, so no future round
// reads link state), and an exact first-round
// broadcast handles the fully-symmetric case: when round one's batch is
// every live slot and no link weight sits in the epsilon dust zone, every
// active flow freezes at the same share, so rates are assigned by a
// single linear pass over the flow array with no incidence walk at all.
// Neither shortcut performs or skips any floating-point operation that a
// later round could observe, so both are bit-exact.
//
// The solver is a template over a context type so the one algorithm serves
// both the event engine (structure-of-arrays, incremental link occupancy)
// and a simple reference entry point used by tests:
//
//   struct Ctx {
//     double capacity(LinkId) const;
//     std::span<const FlowIndex> link_flows(LinkId) const;  // may contain
//                                                           // stale entries
//     bool flow_active(FlowIndex) const;
//     std::span<const LinkId> flow_path(FlowIndex) const;   // non-empty
//     double flow_weight(FlowIndex) const;  // > 0; 1.0 = plain fairness
//   };
//
// Weighted max-min: on each bottleneck the remaining capacity is split in
// proportion to weights (rate_f = weight_f * share, share = cap / sum of
// weights). With all weights 1 this is classic max-min; weights model the
// paper's future-work "bandwidth scheduling to give priority to critical
// flows". The monotonicity argument survives weighting: freezing at the
// global minimum share removes weight_f * share* <= cap_l * w_f / W_l from
// link l, so (cap - w*share*)/(W - w) >= cap/W.
//
// Warm start. solve() logs every round: the residual each slot it wrote
// held before the round and the weight the round removed from it, and the
// flows it froze. resume() re-solves after flows only LEFT the set
// of the last solve()/resume(), with unit weights and nothing else changed.
// Lemma: let k be the earliest round that froze a departed flow. Every
// round j < k repeats bit for bit without the departed flows. A departed
// flow is unfrozen through round j, so none of its links is in batch j
// (every active flow on a batch link freezes in that round); their fresh
// shares are strictly above round j's minimum (ties are harvested); and
// removing the departed weight only raises them further (r/(w-m) >= r/w
// holds in floating point too: the quotient rounds monotonically) or
// leaves a link no weight at all, which drops it from the search. No
// departed flow contributed a delta before round k, so every other
// link's residual and weight — and every rate and delta of round j — are
// the same floating-point operations on the same operands. resume()
// therefore rolls the slots back to the start of round k, subtracts the
// departed weight (integer weight sums, so in any order, exactly) and
// continues the round loop from there. Flows frozen before round k keep
// their rates: resume() neither reads nor writes their entries, so the
// caller's copy of them must still be the raw solver output, and
// refrozen_flows() names the flows whose rates it did rewrite. Rounds are
// indexed by order, not share, so this needs no monotonicity of the
// shares at all. With shares non-decreasing, round k is at or after the
// last round strictly below the lowest departed rate — the prefix
// tests/test_maxmin_properties.cpp checks from scratch.
//
// A solver instance owns mutable scratch (slot arrays, frozen flags, heap)
// and the round log of its last solve()/resume(); solve() starts afresh
// and only reads the context. solve() writes rates[f] only for the flows
// it is given, resume() only for the flows it refreezes. Fixed-shape
// scratch lives in one arena-backed allocation per instance, carved once
// per (links, flows) shape and reused across every solve of a run; the log
// lives in vectors sized by one solve (its frozen flows and its slot
// writes), so it follows the active set, not the program's total flow
// count.
//
// Saved logs. save_log() copies a solve()'s log into a SavedRoundLog with
// every flow named by its slot position in the solved set, and
// restore_log() rebuilds from such a copy the state that solve() left, in
// a solver whose flows have other indices, so resume() can follow. It is
// exact for an instance with the same links, capacities and weight sums
// and, at each position, a flow with the same path and unit weight:
//   * equal-path unit-weight flows are interchangeable: each freezes in the
//     first round that batches one of its links, and every rate a round
//     assigns is the round's share, so a round freezes the same positions
//     and subtracts the same value the same number of times from each link;
//   * the order of the flows within a round matters to nothing but the
//     order refrozen_flows() lists them in;
//   * each link appears at most once among a round's writes (a batch link
//     is never also a touched one), so a round's writes apply in any order.
// Per-link slot and round state is rebuilt, not stored: a link's starting
// weight is what its writes removed plus what it still carried at the end,
// and the round that left it no weight is the one a resume() reads from
// it. (For a batch link that is its batch round. A link drained by other
// bottlenecks gets the round that drained it, where a solve() leaves no
// round; every flow on it froze in that round or earlier, at a batch link
// of its own, so the minimum a resume() takes is the same.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "flowsim/flow.hpp"
#include "util/arena.hpp"

namespace nestflow {

/// A solve()'s round log saved by FairShareSolver::save_log. A round
/// records where its writes and frozen flows start. A write holds a link,
/// the weight the round removed from it as a count (saved logs have unit
/// weights, so the count is exact) and the residual the link held before
/// the round. The round writes are followed by the live links: one record
/// per link that still carried weight when the solve ended, with that
/// weight and its residual. Frozen flows are slot positions, in freeze
/// order. Each array is allocated once, at its final size.
struct SavedRoundLog {
  struct Round {
    std::uint32_t write_begin;
    std::uint32_t frozen_begin;
  };
  struct Write {
    LinkId link;
    std::uint32_t weight;
    double residual;
  };
  std::vector<Round> rounds;  // empty: no log
  std::vector<Write> writes;
  std::size_t num_writes = 0;  // round writes; the live records follow
  std::vector<std::uint32_t> frozen;

  [[nodiscard]] bool empty() const noexcept { return rounds.empty(); }
  /// 8-byte words its arrays occupy.
  [[nodiscard]] std::size_t words() const noexcept {
    return rounds.size() + 2 * writes.size() + (frozen.size() + 1) / 2;
  }
};

template <typename Ctx>
class FairShareSolver {
 public:
  /// Scratch arrays are carved from one arena block on first use (or when
  /// the shape grows) and reused across solves — the steady path performs
  /// no allocation.
  void resize(std::size_t num_links, std::size_t num_flows) {
    if (num_links == num_links_ && num_flows == num_flows_) return;
    num_links_ = num_links;
    num_flows_ = num_flows;
    std::size_t bytes = 0;
    bytes += ScratchArena::bytes_for<LinkId>(num_links);         // slot_link_
    bytes += ScratchArena::bytes_for<double>(num_links) * 2;     // SoA slots
    bytes += ScratchArena::bytes_for<std::uint32_t>(num_links);  // link_slot_
    bytes += ScratchArena::bytes_for<std::uint32_t>(num_links);  // link_round_
    bytes += ScratchArena::bytes_for<double>(2 * num_links);     // delta_
    bytes += ScratchArena::bytes_for<std::uint8_t>(num_links);   // in_batch_
    bytes += ScratchArena::bytes_for<std::uint8_t>(num_flows);   // frozen_
    arena_.reset(bytes);
    slot_link_ = arena_.carve<LinkId>(num_links);
    slot_residual_ = arena_.carve<double>(num_links);
    slot_weight_ = arena_.carve<double>(num_links);
    link_slot_ = arena_.carve<std::uint32_t>(num_links);
    link_round_ = arena_.carve<std::uint32_t>(num_links);
    delta_ = arena_.carve<double>(2 * num_links);
    in_batch_ = arena_.carve<std::uint8_t>(num_links);
    frozen_ = arena_.carve<std::uint8_t>(num_flows);
    // delta_ and in_batch_ are held at zero BETWEEN rounds by the round
    // epilogue; frozen_ is cleared per solve for the active flows only.
    // Zero all three once so the invariant starts true.
    std::memset(delta_.data(), 0, delta_.size_bytes());
    std::memset(in_batch_.data(), 0, in_batch_.size_bytes());
    std::memset(frozen_.data(), 0, frozen_.size_bytes());
    // The slot state the log describes is gone: only solve() may follow.
    log_rounds_.clear();
    log_writes_.clear();
    log_frozen_.clear();
    refrozen_begin_ = 0;
  }

  /// Computes rates for every flow in `active_flows`. `used_links` must
  /// cover every link on an active path; stale entries (weight 0) are
  /// skipped. `link_weight_sum[l]` is the total weight of active flows
  /// whose path crosses l. Rates are written into `rates` (indexed by
  /// FlowIndex). Logs every round for a later resume(). Returns the number
  /// of bottleneck links frozen (each round adds its batch size).
  std::uint64_t solve(const Ctx& ctx, std::span<const LinkId> used_links,
                      std::span<const double> link_weight_sum,
                      std::span<const FlowIndex> active_flows,
                      std::span<double> rates) {
    for (const FlowIndex f : active_flows) frozen_[f] = 0;
    log_rounds_.clear();
    log_writes_.clear();
    log_frozen_.clear();
    refrozen_begin_ = 0;

    // Gather the live links of this solve into compact SoA slots.
    std::uint32_t nslots = 0;
    bool dust_free = true;  // no link weight in (0, epsilon]: broadcast-safe
    for (const LinkId l : used_links) {
      const double weights = link_weight_sum[l];
      if (weights <= 0.0) continue;
      if (weights <= kWeightEpsilon) dust_free = false;
      slot_link_[nslots] = l;
      // Residuals store the CLAMPED value (see the header's residual-clamp
      // invariant); the capacity trivially satisfies it at init.
      slot_residual_[nslots] = ctx.capacity(l);
      slot_weight_[nslots] = weights;
      link_slot_[l] = nslots;
      link_round_[l] = kNoRound;
      ++nslots;
    }
    live_slots_ = nslots;
    return fill(ctx, active_flows.size(),
                dust_free ? active_flows : std::span<const FlowIndex>{},
                rates);
  }

  /// Re-solves after the flows in `departed` left the set the previous
  /// solve() or resume() of this instance solved, and nothing else changed:
  /// no flow arrived, no capacity moved, every flow weight is 1, and no
  /// other solve ran in between. `num_active` is the size of the remaining
  /// set, and the context still reports the departed flows' paths (they
  /// only have to be inactive). Writes `rates` for refrozen_flows() only;
  /// every other remaining flow keeps the rate the earlier solve wrote,
  /// which the caller must not have changed. Together they are
  /// bit-identical to solve() on the remaining set (see the header's
  /// warm-start lemma). Returns the bottleneck links it froze.
  std::uint64_t resume(const Ctx& ctx, std::span<const FlowIndex> departed,
                       std::size_t num_active, std::span<double> rates) {
    // The resume round: the earliest one that froze a departed flow. A
    // flow freezes in the first round that batches one of its links.
    auto keep = static_cast<std::uint32_t>(log_rounds_.size());
    for (const FlowIndex f : departed) {
      for (const LinkId l : ctx.flow_path(f)) {
        keep = std::min(keep, link_round_[l]);
      }
    }
    const bool partial = keep < log_rounds_.size();
    const std::size_t write_begin =
        partial ? log_rounds_[keep].write_begin : log_writes_.size();
    const std::size_t frozen_begin =
        partial ? log_rounds_[keep].frozen_begin : log_frozen_.size();

    // Undo the later rounds newest first, so each link ends on the residual
    // it held when the resume round began. A link whose slot the scan
    // compacted away since gets a fresh slot; it drained to exactly zero
    // weight (unit weights keep every weight sum an integer), so adding
    // back the weight each round removed rebuilds it.
    for (std::size_t i = log_writes_.size(); i-- > write_begin;) {
      const LoggedWrite& w = log_writes_[i];
      std::uint32_t s = link_slot_[w.link];
      if (s == kNoSlot) {
        s = live_slots_++;
        slot_link_[s] = w.link;
        slot_weight_[s] = 0.0;
        link_slot_[w.link] = s;
      }
      slot_residual_[s] = w.residual;
      slot_weight_[s] += w.removed_weight;
      link_round_[w.link] = kNoRound;
    }
    for (std::size_t i = frozen_begin; i < log_frozen_.size(); ++i) {
      frozen_[log_frozen_[i]] = 0;
    }
    log_rounds_.resize(keep);
    log_writes_.resize(write_begin);
    log_frozen_.resize(frozen_begin);

    // Every departed flow was still unfrozen when the resume round began,
    // so each of its links holds a slot carrying its weight.
    for (const FlowIndex f : departed) {
      const double weight = ctx.flow_weight(f);
      for (const LinkId l : ctx.flow_path(f)) {
        slot_weight_[link_slot_[l]] -= weight;
      }
    }
    refrozen_begin_ = frozen_begin;
    return fill(ctx, num_active - frozen_begin, {}, rates);
  }

  /// The flows the last solve() or resume() froze, in freeze order:
  /// exactly the flows whose rates it wrote. Valid until the next solve(),
  /// resume() or resize().
  [[nodiscard]] std::span<const FlowIndex> refrozen_flows() const noexcept {
    return std::span<const FlowIndex>(log_frozen_).subspan(refrozen_begin_);
  }

  /// Copies the round log of the last solve(), naming each frozen flow f
  /// by position_of[f], its slot position in the solved set (see the
  /// header's saved logs). The log must be unchanged since that solve() (no
  /// resume() in between) and every weight 1. Returns an empty log when
  /// the copy would take more than `max_words` words.
  [[nodiscard]] SavedRoundLog save_log(
      std::span<const std::uint32_t> position_of,
      std::size_t max_words) const {
    std::size_t num_live = 0;
    for (std::uint32_t s = 0; s < live_slots_; ++s) {
      num_live += slot_weight_[s] > 0.0;
    }
    const std::size_t words = log_rounds_.size() +
                              2 * (log_writes_.size() + num_live) +
                              (log_frozen_.size() + 1) / 2;
    if (words > max_words ||
        log_writes_.size() > std::numeric_limits<std::uint32_t>::max()) {
      return {};
    }
    SavedRoundLog log;
    log.rounds.reserve(log_rounds_.size());
    for (const LoggedRound& r : log_rounds_) {
      log.rounds.push_back({static_cast<std::uint32_t>(r.write_begin),
                            static_cast<std::uint32_t>(r.frozen_begin)});
    }
    log.writes.reserve(log_writes_.size() + num_live);
    for (const LoggedWrite& w : log_writes_) {
      log.writes.push_back(
          {w.link, static_cast<std::uint32_t>(w.removed_weight), w.residual});
    }
    log.num_writes = log_writes_.size();
    for (std::uint32_t s = 0; s < live_slots_; ++s) {
      if (slot_weight_[s] > 0.0) {
        log.writes.push_back({slot_link_[s],
                              static_cast<std::uint32_t>(slot_weight_[s]),
                              slot_residual_[s]});
      }
    }
    log.frozen.reserve(log_frozen_.size());
    for (const FlowIndex f : log_frozen_) log.frozen.push_back(position_of[f]);
    return log;
  }

  /// Rebuilds from a saved log the state its solve() left, with flow_at[p]
  /// the flow at slot position p, so that resume() follows exactly as it
  /// would after that solve() (see the header's saved logs). The context
  /// must report the saved solve's capacities. Writes no rate. O(writes +
  /// flows).
  void restore_log(const Ctx& ctx, const SavedRoundLog& log,
                   std::span<const FlowIndex> flow_at) {
    // One slot per link the log names, holding its capacity and every
    // weight it ever carried (integer sums, so exact in any order).
    // link_slot_ may hold anything from earlier solves: a link has its slot
    // only when that slot names it back.
    std::uint32_t nslots = 0;
    for (const SavedRoundLog::Write& w : log.writes) {
      std::uint32_t s = link_slot_[w.link];
      if (s >= nslots || slot_link_[s] != w.link) {
        s = nslots++;
        slot_link_[s] = w.link;
        slot_residual_[s] = ctx.capacity(w.link);
        slot_weight_[s] = 0.0;
        link_slot_[w.link] = s;
        link_round_[w.link] = kNoRound;
      }
      slot_weight_[s] += w.weight;
    }
    live_slots_ = nslots;

    // Replay the rounds: each write leaves its link at the residual it
    // logged (the next write of the link, or the live record, moves it on)
    // and removes its weight.
    log_rounds_.clear();
    log_writes_.clear();
    log_frozen_.clear();
    refrozen_begin_ = 0;
    for (std::size_t r = 0; r < log.rounds.size(); ++r) {
      log_rounds_.push_back(
          LoggedRound{log.rounds[r].write_begin, log.rounds[r].frozen_begin});
      const std::size_t end = r + 1 < log.rounds.size()
                                  ? log.rounds[r + 1].write_begin
                                  : log.num_writes;
      for (std::size_t i = log.rounds[r].write_begin; i < end; ++i) {
        const SavedRoundLog::Write& w = log.writes[i];
        const std::uint32_t s = link_slot_[w.link];
        log_writes_.push_back(LoggedWrite{w.link, w.residual,
                                          static_cast<double>(w.weight)});
        slot_residual_[s] = w.residual;
        slot_weight_[s] -= w.weight;
        if (slot_weight_[s] == 0.0) {
          link_round_[w.link] = static_cast<std::uint32_t>(r);
        }
      }
    }
    for (std::size_t i = log.num_writes; i < log.writes.size(); ++i) {
      slot_residual_[link_slot_[log.writes[i].link]] = log.writes[i].residual;
    }
    if (log.num_writes == 0) {
      // The first-round broadcast, which writes nothing: it batched every
      // live link.
      for (std::uint32_t s = 0; s < nslots; ++s) link_round_[slot_link_[s]] = 0;
    }
    for (const std::uint32_t p : log.frozen) {
      const FlowIndex f = flow_at[p];
      log_frozen_.push_back(f);
      frozen_[f] = kFrozenOld;
    }
  }

 private:
  /// Runs progressive-filling rounds from the current slot state until
  /// `live_flows` unfrozen flows are all frozen, logging each round.
  /// `broadcast_flows` is the whole flow set when a first-round broadcast
  /// may apply (a fresh solve with no dust weights), empty otherwise.
  std::uint64_t fill(const Ctx& ctx, std::size_t live_flows,
                     std::span<const FlowIndex> broadcast_flows,
                     std::span<double> rates) {
    const std::uint32_t nslots = live_slots_;
    bool use_heap = false;
    // The scan hands over to the heap once cumulative sweep work exceeds
    // this.
    const std::uint64_t scan_budget =
        std::uint64_t{kScanOpsFactor} * nslots + 4096;
    std::uint64_t scan_ops = 0;

    std::uint64_t rounds = 0;
    bool first_round = !broadcast_flows.empty();
    while (live_flows > 0) {
      double share;
      bool found;
      if (use_heap) {
        found = heap_round(share);
      } else {
        found = scan_round(share);
        scan_ops += live_slots_;
      }
      if (!found) break;  // every remaining link drained to dust
      rounds += batch_.size();
      const auto round = static_cast<std::uint32_t>(log_rounds_.size());
      log_rounds_.push_back(LoggedRound{log_writes_.size(),
                                        log_frozen_.size()});
      for (const LinkId bl : batch_) link_round_[bl] = round;

      if (first_round && batch_.size() == nslots &&
          all_paths_nonempty(ctx, broadcast_flows)) {
        // Every live link bottlenecks at once (fully symmetric instance):
        // every active flow freezes this round at the same share, so skip
        // the sort and the whole incidence walk — rates are a pure per-flow
        // function. No deltas would survive (every path link is in the
        // batch), so nothing downstream can observe the shortcut. The log
        // records the round with no writes: slot state stays as gathered,
        // which is the state a resume rolls back to.
        for (const FlowIndex f : broadcast_flows) {
          rates[f] = share * ctx.flow_weight(f);
        }
        log_frozen_.insert(log_frozen_.end(), broadcast_flows.begin(),
                           broadcast_flows.end());
        return rounds;
      }
      first_round = false;

      // Freeze the batch in ascending link id — the order serial pops
      // would visit equal-share entries — so the freeze sequence (and the
      // delta accumulation order below) stays a pure function of component
      // content: a component solved in isolation forms the same batches,
      // in the same order, as it does inside a whole-network solve.
      std::sort(batch_.begin(), batch_.end());
      for (const LinkId bl : batch_) in_batch_[bl] = 1;

      // Pass 1: freeze + assign rates, marking each flow "new this round"
      // (kFrozenNew). The mark replaces an explicit freeze-order array:
      // pass 2 re-walks the identical batch/incidence sequence and first
      // encounters reproduce the exact recording order.
      std::size_t nfrozen = 0;
      for (const LinkId bl : batch_) {
        for (const FlowIndex f : ctx.link_flows(bl)) {
          if (!ctx.flow_active(f) || frozen_[f]) continue;
          frozen_[f] = kFrozenNew;
          rates[f] = share * ctx.flow_weight(f);
          log_frozen_.push_back(f);
          ++nfrozen;
        }
      }
      live_flows -= nfrozen;

      // Pass 2: re-walk the batch demoting kFrozenNew marks (so each new
      // flow is processed exactly once, in pass 1's order) and accumulate
      // per-link deferred deltas. Skipped entirely on the final round — no
      // unfrozen flow remains, so no future round reads the link state
      // these deltas would update; the leftover kFrozenNew marks are
      // harmless (every solve resets frozen_ for its active flows, a
      // resume for the flows of the rounds it redoes, and stale incidence
      // entries are screened by flow_active).
      if (live_flows > 0) {
        for (const LinkId bl : batch_) {
          for (const FlowIndex f : ctx.link_flows(bl)) {
            if (!ctx.flow_active(f) || frozen_[f] != kFrozenNew) continue;
            frozen_[f] = kFrozenOld;
            const double weight = ctx.flow_weight(f);
            const double rate = rates[f];
            for (const LinkId l2 : ctx.flow_path(f)) {
              if (in_batch_[l2]) continue;  // zeroed wholesale below
              // delta_ interleaves (cap, weight) per link so each
              // accumulation touches one cache line; a zero weight slot
              // doubles as the "first touch this round" flag (weights are
              // strictly positive, so a touched slot can never read 0).
              double* const d = &delta_[2 * l2];
              if (d[1] == 0.0) touched_.push_back(l2);
              d[0] += rate;
              d[1] += weight;
            }
          }
        }
        // One deferred subtraction per surviving link, re-clamped to the
        // capacity floor (the residual-clamp invariant — bit-exact against
        // PR-6's floor-at-share-time because deltas are non-negative);
        // shares still only grow, so outstanding heap keys remain valid
        // lower bounds. Links whose slot was compacted away (drained to
        // dust in an earlier round) absorb nothing: their state is never
        // read again.
        for (const LinkId l2 : touched_) {
          double* const d = &delta_[2 * l2];
          const std::uint32_t s = link_slot_[l2];
          if (s != kNoSlot) {
            log_writes_.push_back(LoggedWrite{l2, slot_residual_[s], d[1]});
            slot_residual_[s] = std::max(slot_residual_[s] - d[0],
                                         ctx.capacity(l2) * 1e-12);
            slot_weight_[s] -= d[1];
          }
          d[0] = 0.0;
          d[1] = 0.0;
        }
        touched_.clear();
      }
      for (const LinkId bl : batch_) {
        const std::uint32_t s = link_slot_[bl];
        log_writes_.push_back(
            LoggedWrite{bl, slot_residual_[s], slot_weight_[s]});
        slot_weight_[s] = 0.0;
        in_batch_[bl] = 0;
      }

      if (!use_heap && scan_ops > scan_budget) {
        // Too many sweep rounds for this instance: build the heap from the
        // current fresh shares (valid lower bounds — shares only grow) and
        // finish with lazy revalidation. Batch selection stays identical;
        // only the search data structure changes.
        build_heap_from_slots();
        use_heap = true;
      }
    }
    return rounds;
  }
  struct Entry {
    double share;
    LinkId link;
    /// Min-heap via std::*_heap (max-heap algorithms, inverted compare);
    /// ties broken by link id for determinism.
    bool operator<(const Entry& other) const noexcept {
      if (share != other.share) return share > other.share;
      return link > other.link;
    }
  };

  /// Weight dust below this is treated as "no unfrozen flows left".
  static constexpr double kWeightEpsilon = 1e-9;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// link_round_ value of a link no logged round batched.
  static constexpr std::uint32_t kNoRound = 0xFFFFFFFFu;
  /// frozen_ states: 0 = live, kFrozenOld = frozen in a completed round,
  /// kFrozenNew = frozen by the current round's pass 1, pending its pass-2
  /// delta replay (also left behind by a solve's final round, where pass 2
  /// is skipped — per-solve resets make that unobservable).
  static constexpr std::uint8_t kFrozenOld = 1;
  static constexpr std::uint8_t kFrozenNew = 2;
  /// The solve switches scan -> heap after sweeping ~this many multiples
  /// of the initial live-slot count.
  static constexpr std::uint32_t kScanOpsFactor = 8;

  /// Remaining per-unit-weight share of a slot. The capacity floor that
  /// keeps FP drift from stalling the event loop is already folded into
  /// the stored residual (the residual-clamp invariant, see the header),
  /// so the fresh share is a single division.
  [[nodiscard]] double slot_share(std::uint32_t s) const noexcept {
    return slot_residual_[s] / slot_weight_[s];
  }

  /// One scan round: sweep live slots computing fresh shares (compacting
  /// drained slots out in place), take the minimum, harvest bitwise ties
  /// into batch_. Returns false when no live slot remains.
  bool scan_round(double& share_out) {
    const std::uint32_t n = live_slots_;
    std::uint32_t out = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::uint32_t s = 0; s < n; ++s) {
      const double w = slot_weight_[s];
      if (w <= kWeightEpsilon) {
        // Drained to dust: fully frozen via other bottlenecks. Compact the
        // slot away; shares only grow, so it can never come back live.
        link_slot_[slot_link_[s]] = kNoSlot;
        continue;
      }
      if (out != s) {
        slot_link_[out] = slot_link_[s];
        slot_residual_[out] = slot_residual_[s];
        slot_weight_[out] = w;
        link_slot_[slot_link_[out]] = out;
      }
      const double fresh = slot_residual_[out] / w;
      if (fresh < best) best = fresh;
      ++out;
    }
    live_slots_ = out;
    if (out == 0) return false;
    batch_.clear();
    // Ties are harvested by recomputing each quotient — same operands,
    // same bits as the minimum sweep — rather than storing per-slot shares
    // (a full extra double array at million-link scale).
    for (std::uint32_t s = 0; s < out; ++s) {
      if (slot_residual_[s] / slot_weight_[s] == best) {
        batch_.push_back(slot_link_[s]);
      }
    }
    share_out = best;
    return true;
  }

  /// One heap round: lazy revalidation + tie drain, operation for
  /// operation the PR-6 algorithm (over slot state instead of per-link
  /// arrays). Marks harvested links in in_batch_ for drain dedup; the
  /// caller clears the marks. Returns false when the heap runs dry.
  bool heap_round(double& share_out) {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end());
      const LinkId l = heap_.back().link;
      heap_.pop_back();
      const std::uint32_t s = link_slot_[l];
      // Fully frozen via other bottlenecks (floor absorbs FP dust).
      if (s == kNoSlot || slot_weight_[s] <= kWeightEpsilon) continue;
      const double share = slot_share(s);
      if (!heap_.empty() && Entry{share, l} < heap_.front()) {
        // Stale key: the link's fresh (share, id) priority dropped below
        // the next candidate's lower bound. Re-queue fresh and look again.
        heap_.push_back(Entry{share, l});
        std::push_heap(heap_.begin(), heap_.end());
        continue;
      }
      // share <= every other link's current fresh share: l leads the
      // round. Harvest every link tied with it. Any live link's keys
      // lower-bound its fresh share (shares only grow), and fresh shares
      // are >= share, so draining keys <= share pops every tied link at
      // least once. Non-tied links popped here re-enter with their fresh
      // key (> share); duplicate keys of links already in the batch are
      // dropped via in_batch_.
      batch_.clear();
      batch_.push_back(l);
      in_batch_[l] = 1;
      while (!heap_.empty() && !(heap_.front().share > share)) {
        std::pop_heap(heap_.begin(), heap_.end());
        const LinkId cand = heap_.back().link;
        heap_.pop_back();
        const std::uint32_t cs = link_slot_[cand];
        if (in_batch_[cand] || cs == kNoSlot ||
            slot_weight_[cs] <= kWeightEpsilon) {
          continue;
        }
        const double fresh = slot_share(cs);
        if (fresh == share) {
          batch_.push_back(cand);
          in_batch_[cand] = 1;
        } else {
          heap_.push_back(Entry{fresh, cand});
          std::push_heap(heap_.begin(), heap_.end());
        }
      }
      share_out = share;
      return true;
    }
    return false;
  }

  /// Seeds the heap from the current live slots' fresh shares (the
  /// mid-solve switch). Fresh shares are exact current values, trivially
  /// valid lower bounds for all future rounds.
  void build_heap_from_slots() {
    heap_.clear();
    const std::uint32_t n = live_slots_;
    for (std::uint32_t s = 0; s < n; ++s) {
      if (slot_weight_[s] <= kWeightEpsilon) continue;
      heap_.push_back(Entry{slot_share(s), slot_link_[s]});
    }
    std::make_heap(heap_.begin(), heap_.end());
  }

  /// The broadcast shortcut only matches the freeze-walk when every active
  /// flow actually crosses a batch link; a (contract-violating) empty-path
  /// flow would never be frozen by the walk. Checked only when the
  /// broadcast condition already fired, so the steady path never pays it.
  [[nodiscard]] bool all_paths_nonempty(
      const Ctx& ctx, std::span<const FlowIndex> active_flows) const {
    for (const FlowIndex f : active_flows) {
      if (ctx.flow_path(f).empty()) return false;
    }
    return true;
  }

  // All fixed-shape scratch is carved from one arena block (see resize()).
  // Slot arrays are compact over the live links of the CURRENT solve;
  // link_slot_, delta_, in_batch_ are indexed by global link id; frozen_
  // by flow index.
  ScratchArena arena_;
  std::size_t num_links_ = 0;
  std::size_t num_flows_ = 0;
  std::span<LinkId> slot_link_;
  std::span<double> slot_residual_;  // clamped (residual-clamp invariant)
  std::span<double> slot_weight_;
  std::span<std::uint32_t> link_slot_;
  std::span<std::uint32_t> link_round_;  // logged round that batched l
  std::span<double> delta_;  // (cap, weight) pairs, held 0 between rounds
  std::span<std::uint8_t> in_batch_;  // held 0 between rounds
  std::span<std::uint8_t> frozen_;  // 0 / kFrozenOld / kFrozenNew

  std::uint32_t live_slots_ = 0;  // shrinks under scan compaction
  std::vector<LinkId> batch_;
  std::vector<LinkId> touched_;
  std::vector<Entry> heap_;

  // The round log of the last solve() or resume() (see the header): per
  // round where its slot writes and frozen flows start.
  // Writes hold the residual a slot had before the round and the weight
  // the round removed from it — a delta, not an absolute weight, because a
  // resume subtracts departed weight underneath the kept rounds. Sized by
  // the active flows and the link updates of one solve.
  struct LoggedRound {
    std::size_t write_begin;
    std::size_t frozen_begin;
  };
  struct LoggedWrite {
    LinkId link;
    double residual;
    double removed_weight;
  };
  std::vector<LoggedRound> log_rounds_;
  std::vector<LoggedWrite> log_writes_;
  std::vector<FlowIndex> log_frozen_;  // in freeze order, round by round
  std::size_t refrozen_begin_ = 0;  // log_frozen_ index of resume's first
};

/// Standalone entry point: max-min rates for explicit paths over explicit
/// capacities (all weights 1). Exercised directly by unit/property tests
/// and re-solved from scratch every event by the ReferenceEngine
/// (src/verify/); the engine uses the same template with its incremental
/// context. Each link's flows are enumerated in flow_paths order.
[[nodiscard]] std::vector<double> maxmin_fair_rates(
    std::span<const double> link_capacities,
    const std::vector<std::vector<LinkId>>& flow_paths);

/// Weighted variant: rates on shared bottlenecks split proportionally to
/// `flow_weights` (same size as flow_paths, all > 0).
[[nodiscard]] std::vector<double> maxmin_fair_rates(
    std::span<const double> link_capacities,
    const std::vector<std::vector<LinkId>>& flow_paths,
    std::span<const double> flow_weights);

}  // namespace nestflow
