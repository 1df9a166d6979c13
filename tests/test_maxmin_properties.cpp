// Property-based tests of the max-min solver, independent of the engine:
// random instances checked against the water-filling axioms (feasibility,
// the bottleneck/saturation certificate, permutation invariance) rather
// than hand-computed rates. These are the same oracles the runtime
// InvariantAuditor applies to live engine state (src/verify/); here they
// pin the solver itself over a much wider instance space.
#include "flowsim/maxmin.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace nestflow {
namespace {

struct Instance {
  std::vector<double> capacities;
  std::vector<std::vector<LinkId>> paths;
  std::vector<double> weights;
};

Instance random_instance(std::uint64_t seed, bool weighted) {
  Prng prng(seed, 0x3A3Du);
  Instance inst;
  const auto num_links = static_cast<std::size_t>(prng.next_in(3, 20));
  const auto num_flows = static_cast<std::size_t>(prng.next_in(1, 30));
  inst.capacities.resize(num_links);
  for (auto& c : inst.capacities) c = 1.0 + 99.0 * prng.next_double();
  inst.paths.resize(num_flows);
  std::vector<LinkId> all_links(num_links);
  std::iota(all_links.begin(), all_links.end(), LinkId{0});
  for (auto& path : inst.paths) {
    // Sample 1..5 distinct links via a partial shuffle.
    const auto hops = static_cast<std::size_t>(
        prng.next_in(1, static_cast<std::int64_t>(std::min<std::size_t>(
                            5, num_links))));
    prng.shuffle(std::span<LinkId>(all_links));
    path.assign(all_links.begin(),
                all_links.begin() + static_cast<std::ptrdiff_t>(hops));
  }
  inst.weights.resize(num_flows, 1.0);
  if (weighted) {
    for (auto& w : inst.weights) {
      w = static_cast<double>(prng.next_in(1, 4));
    }
  }
  return inst;
}

std::vector<double> solve(const Instance& inst) {
  return maxmin_fair_rates(inst.capacities, inst.paths, inst.weights);
}

/// Feasibility: per-link allocated rate never exceeds capacity (beyond FP
/// rounding) and every rate is strictly positive.
void expect_feasible(const Instance& inst, const std::vector<double>& rates) {
  ASSERT_EQ(rates.size(), inst.paths.size());
  for (const double r : rates) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.0);
  }
  std::vector<double> load(inst.capacities.size(), 0.0);
  for (std::size_t f = 0; f < inst.paths.size(); ++f) {
    for (const LinkId l : inst.paths[f]) load[l] += rates[f];
  }
  for (std::size_t l = 0; l < load.size(); ++l) {
    EXPECT_LE(load[l], inst.capacities[l] * (1.0 + 1e-9))
        << "link " << l << " oversubscribed";
  }
}

/// Bottleneck certificate: an allocation is max-min optimal iff every flow
/// crosses some link that is (a) saturated and (b) where the flow's
/// rate/weight share is maximal among the link's flows. (Bertsekas &
/// Gallager's characterisation; no flow can be raised without lowering an
/// equal-or-smaller share.)
void expect_bottlenecked(const Instance& inst,
                         const std::vector<double>& rates) {
  std::vector<double> load(inst.capacities.size(), 0.0);
  std::vector<double> max_share(inst.capacities.size(), 0.0);
  for (std::size_t f = 0; f < inst.paths.size(); ++f) {
    const double share = rates[f] / inst.weights[f];
    for (const LinkId l : inst.paths[f]) {
      load[l] += rates[f];
      max_share[l] = std::max(max_share[l], share);
    }
  }
  for (std::size_t f = 0; f < inst.paths.size(); ++f) {
    const double share = rates[f] / inst.weights[f];
    bool bottlenecked = false;
    for (const LinkId l : inst.paths[f]) {
      const bool saturated = load[l] >= inst.capacities[l] * (1.0 - 1e-6);
      const bool maximal = share >= max_share[l] * (1.0 - 1e-6);
      if (saturated && maximal) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked)
        << "flow " << f << " (rate " << rates[f]
        << ") has no saturated bottleneck link with maximal share";
  }
}

TEST(MaxminProperties, RandomInstancesFeasibleAndBottlenecked) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Instance inst = random_instance(seed, /*weighted=*/false);
    const auto rates = solve(inst);
    expect_feasible(inst, rates);
    expect_bottlenecked(inst, rates);
  }
}

TEST(MaxminProperties, WeightedInstancesFeasibleAndBottlenecked) {
  for (std::uint64_t seed = 1000; seed < 1200; ++seed) {
    const Instance inst = random_instance(seed, /*weighted=*/true);
    const auto rates = solve(inst);
    expect_feasible(inst, rates);
    expect_bottlenecked(inst, rates);
  }
}

TEST(MaxminProperties, PermutationInvariance) {
  // Max-min rates are a property of the flow SET, not the order flows are
  // presented in: permute the flows, solve, map back, and compare.
  for (std::uint64_t seed = 2000; seed < 2100; ++seed) {
    const Instance inst = random_instance(seed, seed % 2 == 0);
    const auto rates = solve(inst);

    Prng prng(seed, 0x9E12u);
    std::vector<std::size_t> perm(inst.paths.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    prng.shuffle(std::span<std::size_t>(perm));

    Instance shuffled = inst;
    for (std::size_t f = 0; f < perm.size(); ++f) {
      shuffled.paths[f] = inst.paths[perm[f]];
      shuffled.weights[f] = inst.weights[perm[f]];
    }
    const auto shuffled_rates = solve(shuffled);
    for (std::size_t f = 0; f < perm.size(); ++f) {
      const double expected = rates[perm[f]];
      EXPECT_NEAR(shuffled_rates[f], expected, std::abs(expected) * 1e-9)
          << "seed " << seed << " flow " << perm[f];
    }
  }
}

TEST(MaxminProperties, SingleLinkSplitsEvenly) {
  const std::vector<double> caps = {12.0};
  const std::vector<std::vector<LinkId>> paths = {{0}, {0}, {0}};
  const auto rates = maxmin_fair_rates(caps, paths);
  for (const double r : rates) EXPECT_DOUBLE_EQ(r, 4.0);
}

TEST(MaxminProperties, WeightedSingleLinkSplitsProportionally) {
  const std::vector<double> caps = {12.0};
  const std::vector<std::vector<LinkId>> paths = {{0}, {0}};
  const std::vector<double> weights = {1.0, 2.0};
  const auto rates = maxmin_fair_rates(caps, paths, weights);
  EXPECT_DOUBLE_EQ(rates[0], 4.0);
  EXPECT_DOUBLE_EQ(rates[1], 8.0);
}

TEST(MaxminProperties, ClassicParkingLot) {
  // Long flow over both links, one short flow per link: the long flow gets
  // the fair share of the tighter link, shorts mop up the residual.
  const std::vector<double> caps = {10.0, 4.0};
  const std::vector<std::vector<LinkId>> paths = {{0, 1}, {0}, {1}};
  const auto rates = maxmin_fair_rates(caps, paths);
  EXPECT_NEAR(rates[0], 2.0, 1e-9);  // bottlenecked on link 1 (4/2)
  EXPECT_NEAR(rates[1], 8.0, 1e-9);  // residual of link 0
  EXPECT_NEAR(rates[2], 2.0, 1e-9);
}

TEST(MaxminProperties, UnsharedFlowsGetFullCapacity) {
  const std::vector<double> caps = {3.0, 7.0};
  const std::vector<std::vector<LinkId>> paths = {{0}, {1}};
  const auto rates = maxmin_fair_rates(caps, paths);
  EXPECT_DOUBLE_EQ(rates[0], 3.0);
  EXPECT_DOUBLE_EQ(rates[1], 7.0);
}

// ---------------------------------------------------------------------------
// Differential pinning of the kernelized solver (scan with heap fallback,
// serial and pool-sharded) against a VERBATIM copy of the pre-kernel
// solver. The header argues they are bit-identical; these tests make the
// argument empirical: the kernel, and the maxmin_fair_rates entry point the
// ReferenceEngine solves with, must reproduce the old solver's rates (and
// the kernel its round counts) bit for bit (EXPECT_EQ on doubles, no
// tolerance) across random, tie-heavy, power-law, and staircase instances.

/// The batched water-filling solver exactly as it shipped before the
/// kernel rewrite: interleaved (capacity, weight-sum) per-link state, a
/// lazy-revalidation min-heap with tie draining, single-pass freeze +
/// deferred-delta accumulation, shares floored at capacity*1e-12 at read
/// time. Kept here as the behavioural yardstick — do NOT "improve" it;
/// its value is that it does not change.
template <typename Ctx>
class Pr6FairShareSolver {
 public:
  void resize(std::size_t num_links, std::size_t num_flows) {
    state_.resize(2 * num_links);
    delta_.resize(2 * num_links, 0.0);
    in_batch_.resize(num_links, 0);
    frozen_.resize(num_flows);
  }

  std::uint64_t solve(const Ctx& ctx, std::span<const LinkId> used_links,
                      std::span<const double> link_weight_sum,
                      std::span<const FlowIndex> active_flows,
                      std::span<double> rates) {
    for (const FlowIndex f : active_flows) frozen_[f] = 0;

    heap_.clear();
    for (const LinkId l : used_links) {
      const double weights = link_weight_sum[l];
      if (weights <= 0.0) continue;
      state_[2 * l] = ctx.capacity(l);
      state_[2 * l + 1] = weights;
      heap_.push_back(Entry{state_[2 * l] / weights, l});
    }
    std::make_heap(heap_.begin(), heap_.end());

    std::uint64_t rounds = 0;
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end());
      const LinkId l = heap_.back().link;
      heap_.pop_back();
      if (state_[2 * l + 1] <= kWeightEpsilon) continue;
      const double share = fair_share(l, ctx.capacity(l));
      if (!heap_.empty() && Entry{share, l} < heap_.front()) {
        heap_.push_back(Entry{share, l});
        std::push_heap(heap_.begin(), heap_.end());
        continue;
      }
      batch_.clear();
      batch_.push_back(l);
      in_batch_[l] = 1;
      while (!heap_.empty() && !(heap_.front().share > share)) {
        std::pop_heap(heap_.begin(), heap_.end());
        const LinkId cand = heap_.back().link;
        heap_.pop_back();
        if (in_batch_[cand] || state_[2 * cand + 1] <= kWeightEpsilon) {
          continue;
        }
        const double fresh = fair_share(cand, ctx.capacity(cand));
        if (fresh == share) {
          batch_.push_back(cand);
          in_batch_[cand] = 1;
        } else {
          heap_.push_back(Entry{fresh, cand});
          std::push_heap(heap_.begin(), heap_.end());
        }
      }
      std::sort(batch_.begin(), batch_.end());
      rounds += batch_.size();
      for (const LinkId bl : batch_) {
        for (const FlowIndex f : ctx.link_flows(bl)) {
          if (!ctx.flow_active(f) || frozen_[f]) continue;
          frozen_[f] = 1;
          const double weight = ctx.flow_weight(f);
          const double rate = share * weight;
          rates[f] = rate;
          for (const LinkId l2 : ctx.flow_path(f)) {
            if (in_batch_[l2]) continue;
            double* const d = &delta_[2 * l2];
            if (d[1] == 0.0) touched_.push_back(l2);
            d[0] += rate;
            d[1] += weight;
          }
        }
      }
      for (const LinkId l2 : touched_) {
        double* const d = &delta_[2 * l2];
        state_[2 * l2] -= d[0];
        state_[2 * l2 + 1] -= d[1];
        d[0] = 0.0;
        d[1] = 0.0;
      }
      touched_.clear();
      for (const LinkId bl : batch_) {
        state_[2 * bl + 1] = 0.0;
        in_batch_[bl] = 0;
      }
    }
    return rounds;
  }

 private:
  struct Entry {
    double share;
    LinkId link;
    bool operator<(const Entry& other) const noexcept {
      if (share != other.share) return share > other.share;
      return link > other.link;
    }
  };

  static constexpr double kWeightEpsilon = 1e-9;

  [[nodiscard]] double fair_share(LinkId l, double capacity) const noexcept {
    return std::max(state_[2 * l], capacity * 1e-12) / state_[2 * l + 1];
  }

  std::vector<double> state_;
  std::vector<LinkId> batch_;
  std::vector<LinkId> touched_;
  std::vector<double> delta_;
  std::vector<std::uint8_t> in_batch_;
  std::vector<std::uint8_t> frozen_;
  std::vector<Entry> heap_;
};

/// Counted-CSR link->flow incidence over an Instance — the same context
/// shape the reference entry point builds, reproduced locally so both
/// solvers see byte-identical inputs in byte-identical enumeration order.
struct CsrContext {
  std::span<const double> capacities;
  const std::vector<std::vector<LinkId>>* paths = nullptr;
  std::vector<std::uint32_t> link_offsets;
  std::vector<FlowIndex> link_flow_arena;
  std::span<const double> weights;

  [[nodiscard]] double capacity(LinkId l) const { return capacities[l]; }
  [[nodiscard]] std::span<const FlowIndex> link_flows(LinkId l) const {
    return std::span<const FlowIndex>(link_flow_arena)
        .subspan(link_offsets[l], link_offsets[l + 1] - link_offsets[l]);
  }
  [[nodiscard]] bool flow_active(FlowIndex) const { return true; }
  [[nodiscard]] std::span<const LinkId> flow_path(FlowIndex f) const {
    return (*paths)[f];
  }
  [[nodiscard]] double flow_weight(FlowIndex f) const {
    return weights.empty() ? 1.0 : weights[f];
  }
};

struct SolveInputs {
  CsrContext ctx;
  std::vector<LinkId> used;
  std::vector<double> weight_sums;
  std::vector<FlowIndex> active;
};

SolveInputs build_inputs(const Instance& inst) {
  const std::size_t num_links = inst.capacities.size();
  const std::size_t num_flows = inst.paths.size();
  SolveInputs in;
  in.ctx.capacities = inst.capacities;
  in.ctx.paths = &inst.paths;
  in.ctx.weights = inst.weights;
  in.ctx.link_offsets.assign(num_links + 1, 0);
  in.weight_sums.assign(num_links, 0.0);
  std::size_t total = 0;
  for (std::size_t f = 0; f < num_flows; ++f) {
    for (const LinkId l : inst.paths[f]) {
      if (in.weight_sums[l] == 0.0) in.used.push_back(l);
      in.weight_sums[l] += inst.weights[f];
      ++in.ctx.link_offsets[l + 1];
      ++total;
    }
  }
  for (std::size_t l = 0; l < num_links; ++l) {
    in.ctx.link_offsets[l + 1] += in.ctx.link_offsets[l];
  }
  in.ctx.link_flow_arena.resize(total);
  std::vector<std::uint32_t> fill(in.ctx.link_offsets.begin(),
                                  in.ctx.link_offsets.end() - 1);
  for (std::size_t f = 0; f < num_flows; ++f) {
    for (const LinkId l : inst.paths[f]) {
      in.ctx.link_flow_arena[fill[l]++] = static_cast<FlowIndex>(f);
    }
  }
  in.active.resize(num_flows);
  std::iota(in.active.begin(), in.active.end(), FlowIndex{0});
  return in;
}

struct SolveResult {
  std::vector<double> rates;
  std::uint64_t rounds = 0;
};

SolveResult solve_kernel(const Instance& inst, ThreadPool* pool = nullptr) {
  const SolveInputs in = build_inputs(inst);
  FairShareSolver<CsrContext> solver;
  solver.resize(inst.capacities.size(), inst.paths.size());
  SolveResult r;
  r.rates.assign(inst.paths.size(), 0.0);
  r.rounds =
      solver.solve(in.ctx, in.used, in.weight_sums, in.active, r.rates, pool);
  return r;
}

SolveResult solve_pr6(const Instance& inst) {
  const SolveInputs in = build_inputs(inst);
  Pr6FairShareSolver<CsrContext> solver;
  solver.resize(inst.capacities.size(), inst.paths.size());
  SolveResult r;
  r.rates.assign(inst.paths.size(), 0.0);
  r.rounds = solver.solve(in.ctx, in.used, in.weight_sums, in.active, r.rates);
  return r;
}

/// EXPECT_EQ on doubles is an exact == — the bitwise pin (rates are
/// strictly positive, so there is no -0.0/NaN ambiguity to worry about).
void expect_identical(const SolveResult& got, const SolveResult& want,
                      const char* what, std::uint64_t seed) {
  ASSERT_EQ(got.rates.size(), want.rates.size());
  EXPECT_EQ(got.rounds, want.rounds) << what << " seed " << seed;
  for (std::size_t f = 0; f < got.rates.size(); ++f) {
    EXPECT_EQ(got.rates[f], want.rates[f])
        << what << " seed " << seed << " flow " << f;
  }
}

void expect_matches_pr6(const Instance& inst, std::uint64_t seed) {
  const SolveResult ref = solve_pr6(inst);
  expect_identical(solve_kernel(inst), ref, "kernel vs pr6", seed);
  SolveResult entry{solve(inst), ref.rounds};
  expect_identical(entry, ref, "maxmin_fair_rates vs pr6", seed);
}

/// Tie-heavy adversary: one power-of-two capacity everywhere and small
/// integer weights, so fresh shares collide bitwise all the time — the
/// batched tie harvest (and the first-round broadcast shortcut, when the
/// whole instance ties at once) is the hot path, not the exception.
Instance tie_heavy_instance(std::uint64_t seed) {
  Prng prng(seed, 0x71E5u);
  Instance inst;
  const auto num_links = static_cast<std::size_t>(prng.next_in(4, 12));
  const auto num_flows = static_cast<std::size_t>(prng.next_in(20, 80));
  inst.capacities.assign(num_links, 16.0);
  inst.paths.resize(num_flows);
  std::vector<LinkId> all_links(num_links);
  std::iota(all_links.begin(), all_links.end(), LinkId{0});
  for (auto& path : inst.paths) {
    const auto hops = static_cast<std::size_t>(
        prng.next_in(1, static_cast<std::int64_t>(std::min<std::size_t>(
                            3, num_links))));
    prng.shuffle(std::span<LinkId>(all_links));
    path.assign(all_links.begin(),
                all_links.begin() + static_cast<std::ptrdiff_t>(hops));
  }
  inst.weights.resize(num_flows);
  for (auto& w : inst.weights) w = static_cast<double>(prng.next_in(1, 3));
  return inst;
}

/// Power-law adversary: capacities spread over ~30 binades, so shares
/// almost never tie and the solver grinds through many singleton rounds —
/// the scan's worst case and the heap fallback's reason to exist.
Instance power_law_instance(std::uint64_t seed) {
  Prng prng(seed, 0xB10Cu);
  Instance inst;
  const auto num_links = static_cast<std::size_t>(prng.next_in(8, 40));
  const auto num_flows = static_cast<std::size_t>(prng.next_in(10, 60));
  inst.capacities.resize(num_links);
  for (auto& c : inst.capacities) {
    c = std::ldexp(1.0 + prng.next_double(),
                   static_cast<int>(prng.next_in(-6, 24)));
  }
  inst.paths.resize(num_flows);
  std::vector<LinkId> all_links(num_links);
  std::iota(all_links.begin(), all_links.end(), LinkId{0});
  for (auto& path : inst.paths) {
    const auto hops = static_cast<std::size_t>(prng.next_in(1, 5));
    prng.shuffle(std::span<LinkId>(all_links));
    path.assign(all_links.begin(),
                all_links.begin() + static_cast<std::ptrdiff_t>(hops));
  }
  inst.weights.resize(num_flows, 1.0);
  return inst;
}

/// Staircase adversary: n links with strictly increasing capacities and
/// one two-hop flow per link — every round freezes a single link, so an
/// n-link instance runs n-ish singleton rounds. Large n drives the
/// cumulative scan work over its budget and forces the mid-solve
/// scan->heap switch.
Instance staircase_instance(std::size_t n) {
  Instance inst;
  inst.capacities.resize(n);
  inst.paths.resize(n);
  inst.weights.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    inst.capacities[i] = 1.0 + static_cast<double>(i);
    inst.paths[i] = {static_cast<LinkId>(i),
                     static_cast<LinkId>((i * 7 + 13) % n)};
    inst.weights[i] = static_cast<double>(1 + i % 3);
  }
  return inst;
}

TEST(MaxminKernel, RandomInstancesMatchPr6ReferenceBitwise) {
  // One full chaos-matrix worth of seeds (231), alternating weighted and
  // unweighted random instances.
  for (std::uint64_t seed = 3000; seed < 3231; ++seed) {
    expect_matches_pr6(random_instance(seed, seed % 2 == 1), seed);
  }
}

TEST(MaxminKernel, TieHeavyInstancesMatchAndSatisfyAxioms) {
  for (std::uint64_t seed = 4000; seed < 4100; ++seed) {
    const Instance inst = tie_heavy_instance(seed);
    expect_matches_pr6(inst, seed);
    const SolveResult r = solve_kernel(inst);
    expect_feasible(inst, r.rates);
    expect_bottlenecked(inst, r.rates);
  }
}

TEST(MaxminKernel, PowerLawInstancesMatchAndSatisfyAxioms) {
  for (std::uint64_t seed = 5000; seed < 5100; ++seed) {
    const Instance inst = power_law_instance(seed);
    expect_matches_pr6(inst, seed);
    const SolveResult r = solve_kernel(inst);
    expect_feasible(inst, r.rates);
    expect_bottlenecked(inst, r.rates);
  }
}

TEST(MaxminKernel, AutoSwitchesMidSolveAndStaysBitIdentical) {
  // 600 links x ~600 singleton rounds sweeps ~180k slots, far past the
  // scan budget of 8*600 + 4096 — the scan->heap switch fires mid-solve
  // (around round ~16) and the remaining rounds run on the rebuilt heap.
  const Instance inst = staircase_instance(600);
  expect_matches_pr6(inst, 600);
  const SolveResult r = solve_kernel(inst);
  expect_feasible(inst, r.rates);
  expect_bottlenecked(inst, r.rates);
}

TEST(MaxminKernel, ShardedSolveIsBitIdenticalToSerial) {
  // 131072 live links = 2 * the solver's shard grain, the floor at which a
  // pooled solve actually shards its scans. Two capacity classes keep the
  // round count tiny (every sweep is a huge tie batch), and a sprinkling
  // of two-hop flows exercises delta accumulation between sharded rounds.
  constexpr std::size_t kLinks = 131072;
  Instance inst;
  inst.capacities.resize(kLinks);
  inst.paths.resize(kLinks);
  for (std::size_t l = 0; l < kLinks; ++l) {
    inst.capacities[l] = (l % 2 == 0) ? 8.0 : 16.0;
    inst.paths[l] = {static_cast<LinkId>(l)};
  }
  for (std::size_t l = 0; l < kLinks; l += 1024) {
    inst.paths.push_back({static_cast<LinkId>(l),
                          static_cast<LinkId>(l + 1)});
  }
  inst.weights.assign(inst.paths.size(), 1.0);

  const SolveResult serial = solve_kernel(inst);
  ThreadPool pool(4);
  const SolveResult sharded = solve_kernel(inst, &pool);
  expect_identical(sharded, serial, "sharded vs serial", kLinks);
  expect_feasible(inst, serial.rates);
  expect_bottlenecked(inst, serial.rates);
}

TEST(MaxminKernel, ShardedBroadcastIsBitIdenticalToSerial) {
  // Fully symmetric giant instance: every slot ties in round one, so the
  // pooled path runs one sharded sweep + harvest and then the sharded
  // broadcast rate write. Every flow must land exactly on its capacity.
  constexpr std::size_t kLinks = 131072;
  Instance inst;
  inst.capacities.assign(kLinks, 8.0);
  inst.paths.resize(kLinks);
  for (std::size_t l = 0; l < kLinks; ++l) {
    inst.paths[l] = {static_cast<LinkId>(l)};
  }
  inst.weights.assign(kLinks, 1.0);

  const SolveResult serial = solve_kernel(inst);
  ThreadPool pool(4);
  const SolveResult sharded = solve_kernel(inst, &pool);
  expect_identical(sharded, serial, "sharded broadcast vs serial", kLinks);
  for (const double r : serial.rates) EXPECT_EQ(r, 8.0);
}

}  // namespace
}  // namespace nestflow
