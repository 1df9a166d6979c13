// LinkFlowIncidence on its own: batch linking against per-flow add, the
// one-growth-per-batch rule, compaction, removal and reset.
#include "flowsim/incidence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace nestflow {
namespace {

/// Flows with fixed paths over a few links, each active or finished, and
/// the per-link count of active flows the table's callers keep.
struct Flows {
  explicit Flows(std::size_t num_links) : live(num_links, 0) {}

  FlowIndex start(std::vector<LinkId> path) {
    for (const LinkId l : path) ++live[l];
    paths.push_back(std::move(path));
    active.push_back(1);
    return static_cast<FlowIndex>(paths.size() - 1);
  }
  void finish(FlowIndex f) {
    active[f] = 0;
    for (const LinkId l : paths[f]) --live[l];
  }
  [[nodiscard]] auto is_active() const {
    return [this](FlowIndex f) { return active[f] != 0; };
  }
  void link(LinkFlowIncidence& table, std::span<const FlowIndex> batch) const {
    table.link(
        batch, live,
        [this](FlowIndex f) { return std::span<const LinkId>(paths[f]); },
        is_active());
  }
  /// What per-flow add() at each activation would have appended.
  void add_each(LinkFlowIncidence& table,
                std::span<const FlowIndex> batch) const {
    for (const FlowIndex f : batch) {
      if (!active[f]) continue;
      for (const LinkId l : paths[f]) table.add(l, f);
    }
  }
  [[nodiscard]] std::vector<FlowIndex> active_in(
      std::span<const FlowIndex> list) const {
    std::vector<FlowIndex> out;
    for (const FlowIndex f : list) {
      if (active[f]) out.push_back(f);
    }
    return out;
  }

  std::vector<std::vector<LinkId>> paths;
  std::vector<std::uint8_t> active;
  std::vector<std::uint32_t> live;
};

std::vector<FlowIndex> as_vector(std::span<const FlowIndex> list) {
  return {list.begin(), list.end()};
}

/// Batches over a small fabric, with flows finishing between batches (some
/// before they were ever linked): each batch-linked list holds exactly the
/// active flows of the per-flow list, in the same order, although the
/// batch-linked lists compact their stale entries and the per-flow ones
/// never do.
TEST(Incidence, BatchLinkMatchesPerFlowAdd) {
  constexpr std::size_t kLinks = 12;
  std::mt19937 rng(20261020);
  Flows flows(kLinks);
  LinkFlowIncidence batched;
  LinkFlowIncidence per_flow;
  batched.reset(kLinks);
  per_flow.reset(kLinks);
  for (int round = 0; round < 40; ++round) {
    std::vector<FlowIndex> batch;
    const int starts = 1 + static_cast<int>(rng() % 24);
    for (int i = 0; i < starts; ++i) {
      std::vector<LinkId> path;
      const int hops = 1 + static_cast<int>(rng() % 4);
      for (int h = 0; h < hops; ++h) {
        const auto l = static_cast<LinkId>(rng() % kLinks);
        if (std::find(path.begin(), path.end(), l) == path.end()) {
          path.push_back(l);
        }
      }
      batch.push_back(flows.start(std::move(path)));
    }
    // Some flows finish before the batch is linked, a few of them from the
    // batch itself: those are never linked.
    for (FlowIndex f = 0; f < flows.paths.size(); ++f) {
      if (flows.active[f] && rng() % 3 == 0) flows.finish(f);
    }
    flows.link(batched, batch);
    flows.add_each(per_flow, batch);
    for (LinkId l = 0; l < kLinks; ++l) {
      const auto got = as_vector(batched.flows(l));
      const auto want = flows.active_in(per_flow.flows(l));
      EXPECT_EQ(flows.active_in(got), want) << "link " << l << " round "
                                            << round;
      EXPECT_EQ(want.size(), flows.live[l]) << "link " << l;
    }
  }
}

/// A batch onto lists that hold stale entries (under half of each list, so
/// nothing is compacted) and onto extents that relocate gives exactly the
/// entries per-flow add gives.
TEST(Incidence, BatchLinkKeepsStaleEntriesLikePerFlowAdd) {
  Flows flows(3);
  LinkFlowIncidence batched;
  LinkFlowIncidence per_flow;
  batched.reset(3);
  per_flow.reset(3);
  std::vector<FlowIndex> first;
  for (int i = 0; i < 6; ++i) first.push_back(flows.start({0, 1}));
  flows.link(batched, first);
  flows.add_each(per_flow, first);
  flows.finish(first[1]);
  flows.finish(first[4]);  // 2 of 6 stale on links 0 and 1

  std::vector<FlowIndex> second;
  for (int i = 0; i < 9; ++i) second.push_back(flows.start({1, 0, 2}));
  flows.link(batched, second);
  flows.add_each(per_flow, second);
  for (LinkId l = 0; l < 3; ++l) {
    EXPECT_EQ(as_vector(batched.flows(l)), as_vector(per_flow.flows(l)))
        << "link " << l;
  }
  EXPECT_EQ(batched.flows(0).size(), 15u);  // stale entries 1 and 4 kept
}

/// One batch grows each extent at most once: empty extents get exactly the
/// room the batch needs, a full one relocates once to the larger of that
/// and double its capacity, and a full one more than half stale is
/// compacted in place instead.
TEST(Incidence, BatchGrowsEachExtentAtMostOnce) {
  Flows flows(3);
  LinkFlowIncidence table;
  table.reset(3);
  EXPECT_EQ(table.arena_size(), 0u);

  std::vector<FlowIndex> wave;
  for (int i = 0; i < 100; ++i) wave.push_back(flows.start({0, 1}));
  for (int i = 0; i < 10; ++i) wave.push_back(flows.start({2}));
  flows.link(table, wave);
  EXPECT_EQ(table.arena_size(), 210u);  // 100 + 100 + 10, each exact

  // Per-flow add pays every doubling on the way: 4 + 8 + ... + 128 for
  // each list of 100, 4 + 8 + 16 for the list of 10.
  LinkFlowIncidence per_flow;
  per_flow.reset(3);
  flows.add_each(per_flow, wave);
  EXPECT_EQ(per_flow.arena_size(), 252u + 252u + 28u);

  // Full link 0 (100 entries, none stale) takes one more flow: one
  // relocation at double capacity.
  const std::vector<FlowIndex> one = {flows.start({0})};
  flows.link(table, one);
  EXPECT_EQ(table.arena_size(), 210u + 200u);

  // Full link 2 (10 entries) takes 50 more: one relocation, sized for all.
  std::vector<FlowIndex> fifty;
  for (int i = 0; i < 50; ++i) fifty.push_back(flows.start({2}));
  flows.link(table, fifty);
  EXPECT_EQ(table.arena_size(), 410u + 60u);
  EXPECT_EQ(table.flows(2).size(), 60u);

  // Full link 1 (100 entries) with 60 of them finished takes 30 more:
  // compacted in place to 40, room for 30, no growth.
  for (int i = 0; i < 60; ++i) flows.finish(wave[i]);
  std::vector<FlowIndex> thirty;
  for (int i = 0; i < 30; ++i) thirty.push_back(flows.start({1}));
  flows.link(table, thirty);
  EXPECT_EQ(table.arena_size(), 470u);
  EXPECT_EQ(as_vector(table.flows(1)).size(), 70u);
  EXPECT_EQ(flows.active_in(table.flows(1)), as_vector(table.flows(1)));
}

/// read() compacts a list more than half stale, keeping survivor order,
/// and leaves one at most half stale as it is.
TEST(Incidence, CompactionKeepsSurvivorOrder) {
  Flows flows(2);
  LinkFlowIncidence table;
  table.reset(2);
  std::vector<FlowIndex> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(flows.start({0, 1}));
  flows.link(table, batch);

  for (const FlowIndex f : {0u, 2u, 4u, 6u, 8u}) flows.finish(f);
  // Exactly half stale: returned as it is, stale entries included.
  EXPECT_EQ(as_vector(table.read(0, flows.live[0], flows.is_active())),
            as_vector(batch));
  flows.finish(9);  // now 6 of 10
  EXPECT_EQ(as_vector(table.read(0, flows.live[0], flows.is_active())),
            (std::vector<FlowIndex>{1, 3, 5, 7}));
  EXPECT_EQ(table.flows(0).size(), 4u);
  EXPECT_EQ(table.flows(1).size(), 10u);  // link 1 was not read
}

/// A flow queued twice leaves a full list with as many active entries as
/// the live count: the batch refuses it instead of sizing the extent from
/// a count that would wrap.
TEST(Incidence, FlowQueuedTwiceIsRejected) {
  Flows flows(1);
  LinkFlowIncidence table;
  table.reset(1);
  const std::vector<FlowIndex> batch = {flows.start({0})};
  flows.link(table, batch);  // an extent of exactly one slot
  EXPECT_THROW(flows.link(table, batch), std::logic_error);
}

TEST(Incidence, RemoveDropsOneFlowKeepingOrder) {
  Flows flows(2);
  LinkFlowIncidence table;
  table.reset(2);
  std::vector<FlowIndex> batch;
  for (int i = 0; i < 5; ++i) batch.push_back(flows.start({0, 1}));
  flows.link(table, batch);
  table.remove(0, 2);
  EXPECT_EQ(as_vector(table.flows(0)), (std::vector<FlowIndex>{0, 1, 3, 4}));
  EXPECT_EQ(as_vector(table.flows(1)), as_vector(batch));
  table.remove(0, 7);  // absent: nothing changes
  EXPECT_EQ(table.flows(0).size(), 4u);
}

/// reset() empties every list but keeps the layout, so relinking the same
/// flows allocates nothing; a different link count starts afresh.
TEST(Incidence, ResetKeepsLayout) {
  Flows flows(4);
  LinkFlowIncidence table;
  table.reset(4);
  std::vector<FlowIndex> batch;
  for (int i = 0; i < 20; ++i) {
    batch.push_back(flows.start({static_cast<LinkId>(i % 3), 3}));
  }
  flows.link(table, batch);
  const std::size_t arena = table.arena_size();
  std::vector<std::vector<FlowIndex>> lists;
  for (LinkId l = 0; l < 4; ++l) lists.push_back(as_vector(table.flows(l)));

  table.reset(4);
  for (LinkId l = 0; l < 4; ++l) EXPECT_TRUE(table.flows(l).empty());
  EXPECT_EQ(table.arena_size(), arena);
  flows.link(table, batch);
  EXPECT_EQ(table.arena_size(), arena);
  for (LinkId l = 0; l < 4; ++l) {
    EXPECT_EQ(as_vector(table.flows(l)), lists[l]) << "link " << l;
  }

  table.reset(5);
  EXPECT_EQ(table.arena_size(), 0u);
}

}  // namespace
}  // namespace nestflow
