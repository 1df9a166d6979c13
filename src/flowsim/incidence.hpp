// Flat link→flow incidence table (CSR-style structure-of-arrays).
//
// The engine's hot loops — dirty-component discovery and the max-min solve
// — walk "which active flows cross link l" for thousands of links per
// event. A vector-of-vectors puts every link's list in its own heap block
// (one allocation per link, no locality across links); this table instead
// packs all lists into ONE arena, with each link owning a contiguous
// extent {offset, size, capacity}:
//
//   - add() appends in place; when an extent is full it is relocated to
//     the arena tail with doubled capacity (the old extent becomes garbage
//     until the next reset(), bounding waste by ~1x the live data — the
//     same amortisation as vector growth, but paid once per *arena*, not
//     once per link).
//   - Removal is lazy: completed flows stay in the list as stale entries
//     (the reader filters on its own activity predicate) and are counted
//     via note_stale(); when a link's stale majority passes the compaction
//     threshold, compact() drops them in place, preserving survivor order
//     — list order is part of the engine's determinism contract, since the
//     solver and the component BFS both enumerate flows in list order.
//   - reset() (called once per run) keeps every extent's offset/capacity,
//     so warm runs re-fill the same arena with zero allocation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "flowsim/flow.hpp"
#include "graph/graph.hpp"

namespace nestflow {

class LinkFlowIncidence {
 public:
  /// Empties every per-link list. Extents (and the arena) are kept when the
  /// link count is unchanged, so repeated runs reuse the warmed layout.
  void reset(std::size_t num_links) {
    if (extents_.size() != num_links) {
      extents_.assign(num_links, Extent{});
      slots_.clear();
    } else {
      for (Extent& e : extents_) {
        e.size = 0;
        e.stale = 0;
      }
    }
  }

  /// Appends f to l's list (amortised O(1); relocates the extent on growth).
  void add(LinkId l, FlowIndex f) {
    Extent& e = extents_[l];
    if (e.size == e.capacity) {
      const std::uint32_t grown =
          e.capacity == 0 ? kInitialCapacity : e.capacity * 2;
      const auto offset = static_cast<std::uint32_t>(slots_.size());
      slots_.resize(slots_.size() + grown);
      std::copy_n(slots_.begin() + e.offset, e.size, slots_.begin() + offset);
      e.offset = offset;
      e.capacity = grown;
    }
    slots_[e.offset + e.size++] = f;
  }

  /// l's list, stale entries included (filter with your activity predicate).
  [[nodiscard]] std::span<const FlowIndex> flows(LinkId l) const {
    const Extent& e = extents_[l];
    return {slots_.data() + e.offset, e.size};
  }

  /// Starts the load of l's extent record early (the engine's completion
  /// loop prefetches each upcoming flow's per-link state; the extent is
  /// touched by note_stale/should_compact on every path link).
  void prefetch(LinkId l) const noexcept {
    __builtin_prefetch(extents_.data() + l, 1);
  }

  /// Records that one of l's entries went inactive (lazy removal). Only
  /// valid for flows that stay inactive: readers filter stale entries with
  /// an activity predicate, which cannot tell "done" from "moved to another
  /// path". A flow that may become active again elsewhere (reroute, restart
  /// retry) must be remove()d eagerly instead.
  void note_stale(LinkId l) { ++extents_[l].stale; }

  /// Eagerly drops every occurrence of f from l's list, preserving survivor
  /// order. O(list length); used on the rare recovery detach path (see
  /// note_stale).
  void remove(LinkId l, FlowIndex f) {
    Extent& e = extents_[l];
    FlowIndex* const begin = slots_.data() + e.offset;
    FlowIndex* out = begin;
    for (std::uint32_t i = 0; i < e.size; ++i) {
      if (begin[i] != f) *out++ = begin[i];
    }
    e.size = static_cast<std::uint32_t>(out - begin);
    e.stale = std::min(e.stale, e.size);
  }

  /// True once stale entries dominate l's list enough to be worth dropping.
  [[nodiscard]] bool should_compact(LinkId l) const {
    const Extent& e = extents_[l];
    return e.stale > e.size / 2 && e.stale > kCompactionFloor;
  }

  /// Drops entries failing `keep` from l's list, preserving survivor order.
  template <typename Keep>
  void compact(LinkId l, Keep&& keep) {
    Extent& e = extents_[l];
    FlowIndex* const begin = slots_.data() + e.offset;
    FlowIndex* out = begin;
    for (std::uint32_t i = 0; i < e.size; ++i) {
      if (keep(begin[i])) *out++ = begin[i];
    }
    e.size = static_cast<std::uint32_t>(out - begin);
    e.stale = 0;
  }

  /// Arena words currently allocated (live + relocation garbage) — exposed
  /// for tests and capacity diagnostics.
  [[nodiscard]] std::size_t arena_size() const noexcept {
    return slots_.size();
  }

 private:
  struct Extent {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
    std::uint32_t stale = 0;
  };

  static constexpr std::uint32_t kInitialCapacity = 4;
  static constexpr std::uint32_t kCompactionFloor = 8;

  std::vector<Extent> extents_;
  std::vector<FlowIndex> slots_;
};

}  // namespace nestflow
