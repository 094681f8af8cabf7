// The open list of both A* searches (the global PathFinder router and the
// de-virtualizer): a min-heap of {key, cost} entries ordered by one
// integer compare.
//
// The key packs an entry's estimate and node id: the order-preserving bits
// of the float `est` in the high 32 bits, the node id in the low 32. So
// `a.key < b.key` is exactly `(a.est, a.node) < (b.est, b.node)`, the order
// both searches pop in.
//
// On distinct keys that order is strict, so any correct min-heap pops the
// same sequence. But a node reached twice at costs whose estimates round
// to the same float leaves two entries with one key. The searches skip
// the stale one either way, yet whether it is popped before the search
// ends shows in their pop counters (RoutingResult::heap_pops, stored in
// route artifacts; DecodeStats::nodes_expanded, part of the service
// fingerprint). So this is a binary heap with libstdc++'s sift rules, and
// it holds its entries in exactly the layout std::priority_queue over the
// same comparator would: push sifts up past strictly greater parents; pop
// and heapify move the hole down to a leaf along the minimal child (the
// right one on a tie) and sift the displaced entry up from there. A 4-ary
// heap decodes about 8% faster but reorders equal keys, which changes
// those counters.
//
// The storage keeps its capacity across clear(), so a search reuses the
// previous search's allocation.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vbs {

class MinHeap {
 public:
  struct Entry {
    std::uint64_t key;  ///< key_of(est, node)
    float cost;         ///< path cost of the entry, for the stale check
    std::int32_t node() const {
      return static_cast<std::int32_t>(static_cast<std::uint32_t>(key));
    }
  };

  /// Orders by (est, node): `est` must not be NaN, `node` must be >= 0.
  /// -0.0 and +0.0 compare equal as floats, so both map to one key.
  static std::uint64_t key_of(float est, std::int32_t node) {
    std::uint32_t bits = std::bit_cast<std::uint32_t>(est);
    if (bits == 0x80000000u) bits = 0;  // -0.0 -> +0.0
    // Flipping every bit of a negative float and only the sign bit of a
    // non-negative one makes the unsigned order match the float order.
    bits = (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
    return (static_cast<std::uint64_t>(bits) << 32) |
           static_cast<std::uint32_t>(node);
  }

  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  void clear() { v_.clear(); }

  void push(float est, std::int32_t node, float cost) {
    v_.push_back({key_of(est, node), cost});
    sift_up(v_.size() - 1, 0, v_.back());
  }

  /// Appends without restoring the heap order; call heapify() before the
  /// next pop. Seeding a search this way costs O(n) instead of O(n log n).
  void push_unordered(float est, std::int32_t node, float cost) {
    v_.push_back({key_of(est, node), cost});
  }
  void heapify() {
    const std::size_t n = v_.size();
    if (n < 2) return;
    for (std::size_t i = (n - 2) / 2 + 1; i-- > 0;) place_from(i, n, v_[i]);
  }

  /// Removes and returns the minimum entry; the heap must not be empty.
  Entry pop() {
    const Entry top = v_.front();
    const Entry last = v_.back();
    v_.pop_back();
    if (!v_.empty()) place_from(0, v_.size(), last);
    return top;
  }

 private:
  /// Fills the hole at `hole` (of the first `n` entries) with `e`: the
  /// hole first descends to a leaf, then `e` rises to its place.
  void place_from(std::size_t hole, std::size_t n, Entry e) {
    const std::size_t top = hole;
    for (std::size_t child; (child = 2 * hole + 1) < n; hole = child) {
      if (child + 1 < n && v_[child + 1].key <= v_[child].key) ++child;
      v_[hole] = v_[child];
    }
    sift_up(hole, top, e);
  }

  void sift_up(std::size_t hole, std::size_t top, Entry e) {
    while (hole > top) {
      const std::size_t parent = (hole - 1) / 2;
      if (v_[parent].key <= e.key) break;
      v_[hole] = v_[parent];
      hole = parent;
    }
    v_[hole] = e;
  }

  std::vector<Entry> v_;
};

}  // namespace vbs
