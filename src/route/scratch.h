// PathFinder search state in structure-of-arrays layout: every
// per-RR-node field lives in its own contiguous array (one stride per
// field), instead of being interleaved through per-node structs. The A*
// relaxation touches path_cost/back_node/back_edge/epoch_of for the same
// node index — keeping each in its own array means the inner loop streams
// four independent strides the prefetcher can follow, and fields a given
// pass never reads (tree compaction) stay out of its cache footprint
// entirely.
//
// Epoch discipline: O(V) clears are replaced by stamp arrays — a node's
// entry is valid only when its stamp equals the current epoch. Every epoch
// family advances through ONE reset path (bump_epoch): on wrap the stamp
// arrays are cleared and the epoch restarts at 1, so a 4-billion-search-old
// stamp can never alias a live one. The arenas keep their capacity across
// sinks, nets and iterations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "util/telemetry.h"

namespace vbs {

struct RouterScratch {
  // Reusable search heap entry.
  struct HeapEntry {
    float est;   ///< path cost + weighted heuristic
    float path;  ///< path cost so far
    std::int32_t node;
    // Min-heap by (est, node id) — the node id tie-break keeps expansion
    // deterministic across runs and platforms.
    bool operator>(const HeapEntry& o) const {
      if (est != o.est) return est > o.est;
      return node > o.node;
    }
  };

  // Per-connection A* state, epoch-stamped to avoid O(V) clears.
  std::vector<float> path_cost;
  std::vector<std::int32_t> back_node;
  std::vector<std::int64_t> back_edge;
  std::vector<std::uint32_t> epoch_of;
  std::uint32_t epoch = 0;
  std::vector<HeapEntry> heap;
  std::vector<std::pair<int, std::int64_t>> path_scratch;
  // Tree compaction scratch: keep flags, usefulness, index remap, and an
  // epoch-stamped sink marker per RR node (stamped under tree_epoch).
  std::vector<std::uint8_t> keep;
  std::vector<std::uint8_t> useful;
  std::vector<std::int32_t> remap;
  std::vector<std::uint32_t> sink_mark;
  // O(1) tree-junction lookup in backtrack: rr node -> index in the
  // current net's route tree, epoch-stamped per route_net call.
  std::vector<std::int32_t> tree_idx_of;
  std::vector<std::uint32_t> tree_epoch_of;
  std::uint32_t tree_epoch = 0;
  long long heap_pops = 0;
  long long bbox_retries = 0;

  /// THE epoch-reset path: every stamp family (search, tree) advances
  /// through here. Returns the new
  /// epoch; on wrap clears the family's stamp arrays so stale stamps cannot
  /// alias the restarted counter.
  static std::uint32_t bump_epoch(
      std::uint32_t& epoch_counter,
      std::initializer_list<std::vector<std::uint32_t>*> stamps) {
    if (++epoch_counter == 0) {
      for (std::vector<std::uint32_t>* v : stamps) {
        std::fill(v->begin(), v->end(), 0u);
      }
      epoch_counter = 1;
      // Once per 2^32 bumps per family; the counter is for visibility
      // that the wrap path actually runs in long-lived processes.
      telem::counter_add("route.epoch_wrap_resets");
    }
    return epoch_counter;
  }

  std::uint32_t begin_search() { return bump_epoch(epoch, {&epoch_of}); }
  std::uint32_t begin_tree() {
    return bump_epoch(tree_epoch, {&tree_epoch_of, &sink_mark});
  }

  void init(int num_nodes) {
    const auto n = static_cast<std::size_t>(num_nodes);
    path_cost.assign(n, 0.0f);
    back_node.assign(n, -1);
    back_edge.assign(n, -1);
    epoch_of.assign(n, 0);
    epoch = 0;
    sink_mark.assign(n, 0);
    tree_idx_of.assign(n, -1);
    tree_epoch_of.assign(n, 0);
    tree_epoch = 0;
  }
};

}  // namespace vbs
