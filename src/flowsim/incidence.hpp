// Flat link→flow incidence table (CSR-style structure-of-arrays).
//
// The engine's hot loops — dirty-component discovery and the max-min solve
// — walk "which active flows cross link l" for thousands of links per
// event. A vector-of-vectors puts every link's list in its own heap block
// (one allocation per link, no locality across links); this table instead
// packs all lists into ONE arena, with each link owning a contiguous
// extent {offset, size, capacity}.
//
// Lists are brought up to date when they are read, not when flows start
// or finish. The engine keeps the flows it activated since the last read
// and links them in one batch the next time the component walk, a solver
// freeze pass or a detach reads a list, so an event that reads no list —
// a solve-cache hit, a resume that freezes no link — pays nothing here:
//
//   - link() appends every still-active flow of a batch to each list its
//     path crosses, in batch order. A full extent is made room for once
//     per batch: compacted when more than half stale, else relocated to
//     the arena tail with room for every entry the batch still brings and
//     at least double its capacity (the old extent is left in the arena as
//     garbage, the same amortisation as vector growth, paid once per arena
//     rather than per link). A first batch onto empty extents — the
//     million-flow shuffle wave — therefore allocates each at its exact
//     size.
//   - Removal is lazy: completed flows stay in the list as stale entries
//     (the reader filters on its own activity predicate). A list's stale
//     count is its size minus the caller's count of active flows on the
//     link, which is exact once every active flow is linked, so
//     completions do no list work at all. read() compacts a list that is
//     more than half stale before returning it, preserving survivor order
//     — list order is part of the engine's determinism contract, since the
//     solver and the component walk both enumerate flows in list order.
//   - remove() drops a flow eagerly (a detached flow may come back on
//     another path, which the activity predicate cannot tell apart).
//   - reset() (called once per run) keeps every extent's offset/capacity,
//     so warm runs re-fill the same arena with zero allocation.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
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
      for (Extent& e : extents_) e.size = 0;
    }
  }

  /// Appends f to l's list (amortised O(1); relocates the extent at double
  /// capacity when it is full).
  void add(LinkId l, FlowIndex f) {
    Extent& e = extents_[l];
    if (e.size == e.capacity) {
      relocate(e, e.capacity == 0 ? kInitialCapacity : e.capacity * 2);
    }
    slots_[e.offset + e.size++] = f;
  }

  /// Appends every flow of `batch` that passes `active` to the list of each
  /// link on its path (`path_of(f)`), in batch order, so every list holds
  /// the active entries per-flow add() would leave, in the same order.
  /// `live[l]` counts the active flows crossing l, linked or in the batch.
  /// A full extent is made room for once per batch (see the header).
  template <typename PathOf, typename Active>
  void link(std::span<const FlowIndex> batch,
            std::span<const std::uint32_t> live, PathOf&& path_of,
            Active&& active) {
    for (const FlowIndex f : batch) {
      if (!active(f)) continue;
      for (const LinkId l : path_of(f)) {
        Extent& e = extents_[l];
        if (e.size == e.capacity) make_room(e, live[l], active);
        add(l, f);
      }
    }
  }

  /// l's list as it stands, stale entries included, without linking or
  /// compacting anything — exposed for tests; the engine reads with read().
  [[nodiscard]] std::span<const FlowIndex> flows(LinkId l) const {
    const Extent& e = extents_[l];
    return {slots_.data() + e.offset, e.size};
  }

  /// l's list after compacting it when more than half of it is stale.
  /// `live` counts the active flows crossing l, every one of them linked.
  template <typename Active>
  [[nodiscard]] std::span<const FlowIndex> read(LinkId l, std::uint32_t live,
                                                Active&& active) {
    Extent& e = extents_[l];
    assert(live <= e.size);
    if (e.size - live > e.size / 2) compact(e, active);
    return {slots_.data() + e.offset, e.size};
  }

  /// Eagerly drops every occurrence of f from l's list, preserving survivor
  /// order. O(list length); used on the rare recovery detach path.
  void remove(LinkId l, FlowIndex f) {
    compact(extents_[l], [f](FlowIndex g) { return g != f; });
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
  };

  static constexpr std::uint32_t kInitialCapacity = 4;

  /// Drops entries failing `keep` from e's list, preserving survivor order.
  template <typename Keep>
  void compact(Extent& e, Keep&& keep) {
    FlowIndex* const begin = slots_.data() + e.offset;
    FlowIndex* out = begin;
    for (std::uint32_t i = 0; i < e.size; ++i) {
      if (keep(begin[i])) *out++ = begin[i];
    }
    e.size = static_cast<std::uint32_t>(out - begin);
  }

  /// Moves e to a fresh extent of `capacity` slots at the arena tail.
  void relocate(Extent& e, std::uint32_t capacity) {
    const auto offset = static_cast<std::uint32_t>(slots_.size());
    slots_.resize(slots_.size() + capacity);
    std::copy_n(slots_.begin() + e.offset, e.size, slots_.begin() + offset);
    e.offset = offset;
    e.capacity = capacity;
  }

  /// Called by link() on a full extent: every active entry is already in
  /// the list or still to come in the batch, so `live` minus the active
  /// entries present is exactly what the batch still appends. Compacts
  /// when more than half the list is stale, then relocates once if the
  /// rest of the batch would not fit, so the batch grows the extent at most
  /// once.
  template <typename Active>
  void make_room(Extent& e, std::uint32_t live, Active& active) {
    const FlowIndex* const begin = slots_.data() + e.offset;
    std::uint32_t present = 0;
    for (std::uint32_t i = 0; i < e.size; ++i) present += active(begin[i]);
    if (present >= live) {
      // The flow being linked is active and not yet present, so a flow was
      // queued twice or `live` is stale; `pending` would wrap and ask the
      // arena for billions of slots.
      throw std::logic_error("LinkFlowIncidence: live count below the "
                             "active entries of a list");
    }
    const std::uint32_t pending = live - present;
    if (e.size - present > e.size / 2) compact(e, active);
    const std::uint32_t need = e.size + pending;
    if (need > e.capacity) relocate(e, std::max(need, e.capacity * 2));
  }

  std::vector<Extent> extents_;
  std::vector<FlowIndex> slots_;
};

}  // namespace nestflow
