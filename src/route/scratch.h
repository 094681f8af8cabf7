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
// family advances through bump_epoch (util/epoch.h), which clears the
// family's stamps when the counter wraps. The arenas, the heap included,
// keep their capacity across sinks, nets and iterations.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/epoch.h"
#include "util/min_heap.h"

namespace vbs {

struct RouterScratch {
  // Per-connection A* state, epoch-stamped to avoid O(V) clears.
  std::vector<float> path_cost;
  std::vector<std::int32_t> back_node;
  std::vector<std::int64_t> back_edge;
  std::vector<std::uint32_t> epoch_of;
  std::uint32_t epoch = 0;
  /// A* open list, keyed by (est, node id): the node id tie-break keeps
  /// expansion deterministic across runs and platforms, and MinHeap's own
  /// sift rules make heap_pops (stored in the route artifact) independent
  /// of the standard library.
  MinHeap heap;
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
