// PathFinder negotiated-congestion router (McMurchie & Ebeling, FPGA'95),
// the algorithm VPR uses, over the fabric's routing-resource graph.
//
// Each net is routed as a tree grown sink by sink with A*-directed Dijkstra
// expansion; congestion is negotiated across iterations through present-
// usage and history costs until no routing resource is overused.
//
// Search options (RouterOptions; `flow_bench` measures the defaults
// against the textbook baseline):
//   * bounded_box (default ON): expansion and tree seeding restricted to
//     the box around the sink and the nearest tree point plus `bb_margin`
//     tiles, VPR's classic pruning. A connection that cannot complete
//     inside its box is retried with the net's whole terminal box and
//     finally with no box at all, so bounding never turns a routable
//     design into an unroutable one.
//   * incremental_reroute (default ON): congested nets keep the legal part
//     of their tree across iterations and reroute only the connections
//     crossing overused nodes, instead of whole-net rip-up.
//   * astar_fac (default 1.5): calibrated heuristic weight, see below.
//
// Fixed hot-path structure (no options): each iteration precomputes one
// float congestion cost per RR node, kept in sync on every occupancy
// change, so the A* inner loop reads a single contiguous stride; the open
// list is the MinHeap (util/min_heap.h) shared with the de-virtualizer,
// whose packed (estimate, node id) keys compare in one integer compare.
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/fabric.h"
#include "netlist/netlist.h"
#include "route/scratch.h"

namespace vbs {

/// Routing terminals of one net, as global RR nodes.
struct NetSpec {
  NetId net = kNoNet;
  int source = -1;
  std::vector<int> sinks;
};

struct RouteRequest {
  std::vector<NetSpec> nets;
};

/// A routed net: a tree over RR nodes. nodes[0] is the source (parent -1);
/// every other entry records the RR node, its parent entry index, and the
/// fabric edge (switch) index used to reach it — enough to recover the
/// exact set of programmable switches to turn on.
struct NetRoute {
  struct TreeNode {
    std::int32_t rr;
    std::int32_t parent;       ///< index into nodes, -1 for the source
    std::int64_t fabric_edge;  ///< index into the fabric edge array, -1 at source
  };
  std::vector<TreeNode> nodes;
};

struct RouterOptions {
  int max_iterations = 50;
  double first_iter_pres = 0.0;   ///< free overlap on the first iteration
  double initial_pres = 0.5;      ///< present-congestion factor, iteration 2
  double pres_mult = 1.8;         ///< growth per iteration
  double hist_fac = 1.0;          ///< history accumulation per overuse
  /// A* heuristic weight (>1 trades wire quality for search speed). The
  /// default was calibrated on the MCNC-like suite (see BENCH_flow.json):
  /// versus the 1.15 the seed shipped, 1.5 cuts heap pops ~2x at ~2% more
  /// wire; the empty-fabric per-tile scale underestimates congested-
  /// iteration costs, so a stronger weight keeps the wave directed.
  double astar_fac = 1.5;
  /// Abort as unroutable when the overused-node count has not improved for
  /// this many iterations (0 = disabled). Used by the minimum-channel-width
  /// search to cut hopeless trials short.
  int stall_abort = 0;
  /// Stalls to absorb by ripping up EVERY net — trees, occupancy and
  /// history — and renegotiating from scratch instead of aborting (0 =
  /// abort on first stall). A seeded route (seed_routes) that painted
  /// itself into a corner gets a second attempt identical to an unseeded
  /// route this way, so its verdict after the restart matches a cold
  /// router's exactly. Only meaningful with stall_abort > 0.
  int stall_restarts = 0;
  /// Restrict each connection's expansion (and its tree seeds) to the box
  /// around the sink and the nearest point of the current route tree,
  /// grown by `bb_margin` tiles (default on). A failing connection
  /// automatically retries with the whole terminal box and then unbounded,
  /// so this is a pure pruning optimization, never a routability change.
  bool bounded_box = true;
  /// Tiles added on every side of the bounding box.
  int bb_margin = 3;
  /// On reroute iterations, keep the legal part of a congested net's tree
  /// and reroute only the connections whose path crosses an overused node,
  /// instead of ripping up and rebuilding the whole net (default on).
  /// Off = the textbook whole-net rip-up, the flow_bench baseline.
  bool incremental_reroute = true;
};

/// Per-PathFinder-iteration counters, for perf trajectories (flow_bench)
/// and congestion-convergence debugging.
struct RouteIterStats {
  int iteration = 0;
  double seconds = 0.0;            ///< wall time of this iteration
  long long heap_pops = 0;         ///< pops spent in this iteration
  std::size_t rerouted_nets = 0;   ///< nets (re)routed this iteration
  std::size_t overused_nodes = 0;  ///< congestion after this iteration
};

struct RoutingResult {
  bool success = false;
  int iterations = 0;
  std::vector<NetRoute> routes;  ///< parallel to RouteRequest::nets
  std::size_t total_wire_nodes = 0;
  std::size_t overused_nodes = 0;  ///< at exit (0 on success)
  long long heap_pops = 0;  ///< A* heap pops over every search
  /// Connections that failed inside their bounding box and were retried
  /// with a grown / unbounded box (0 unless the box was too tight).
  long long bbox_retries = 0;
  std::vector<RouteIterStats> iter_stats;  ///< one entry per iteration
};

class PathfinderRouter {
 public:
  /// `width_limit` > 0 keeps only the TOP width_limit channel tracks
  /// (track >= chan_width - width_limit); the rest are masked out of the
  /// routing graph, emulating a narrower fabric without rebuilding it
  /// (node ids stay stable). Because pin stubs cross the highest track
  /// first, the kept subgraph is connectivity-isomorphic to a real
  /// width_limit-wide fabric (plus dead stub tails past the lowest kept
  /// track). Used by the minimum-channel-width search to share one fabric
  /// across trial widths; terminals must sit on unmasked wires (I/O ports
  /// come from build_route_request's io_tracks_from_top mode).
  /// 0 = the fabric's full width.
  PathfinderRouter(const Fabric& fabric, RouteRequest request,
                   int width_limit = 0);

  /// Seeds the router with a prior solution (parallel to the request's
  /// nets), e.g. the surviving tree of a wider-channel routing in the MCW
  /// search. For each net the maximal legal subtree is kept: nodes on
  /// masked tracks are dropped (with their subtrees), then branches that no
  /// longer reach a sink. Must be called before route(), at most once.
  void seed_routes(const std::vector<NetRoute>& prior);

  RoutingResult route(const RouterOptions& opts = {});

 private:
  /// Inclusive tile-coordinate expansion window.
  struct BBox {
    int x0, y0, x1, y1;
    bool contains(Point p) const {
      return p.x >= x0 && p.x <= x1 && p.y >= y0 && p.y <= y1;
    }
    friend bool operator==(const BBox&, const BBox&) = default;
  };

  void add_occ(int v, int d);

  bool route_net(std::size_t net_idx, const RouterOptions& opts,
                 RouterScratch& s, NetRoute& route);
  /// One A* wave from the current tree of `net_idx` to `sink` within `box`.
  bool expand_to_sink(const NetRoute& route, int sink, double astar_fac,
                      const BBox& box, RouterScratch& s);
  /// Expansion window for escalation level 0 (sink-to-tree connection box
  /// plus margin), 1 (whole terminal box, grown margin), 2 (whole fabric).
  BBox expansion_box(std::size_t net_idx, Point sink_pos, Point near_pos,
                     int level, const RouterOptions& opts) const;
  void rip_up(std::size_t net_idx);
  /// Drops tree nodes sitting on (or downstream of) an overused node, plus
  /// any surviving branch that no longer leads to a sink, releasing their
  /// occupancy. Keeps the source. Re-stamps s.tree_idx_of for the kept
  /// nodes under the current tree epoch.
  void prune_overused(std::size_t net_idx, RouterScratch& s, NetRoute& route);
  bool net_congested(const NetRoute& route) const;

  /// Per-net iteration body (congested check + route); returns false on
  /// an unroutable net. `full` forces routing regardless of congestion
  /// (first iteration, or the iteration after a stall restart).
  bool iteration_net(std::size_t net_idx, bool full,
                     const RouterOptions& opts, std::size_t* rerouted);

  const Fabric& fabric_;
  RouteRequest request_;
  std::vector<NetRoute> routes_;

  /// Refreshes node_cost_ (the precomputed per-iteration congestion-cost
  /// stride) from hist_/occ_ under `pres_fac`, and remembers the factor so
  /// occupancy changes can keep single entries in sync.
  void refresh_node_costs(double pres_fac);

  // Per-RR-node congestion state.
  std::vector<std::uint16_t> occ_;
  std::vector<float> hist_;
  /// float((1+hist)(1+pres_fac*occ)) per node, valid for the current
  /// iteration: the A* inner loop reads this one contiguous stride instead
  /// of touching hist_ and occ_ and redoing the arithmetic per edge
  /// relaxation.
  std::vector<float> node_cost_;
  double pres_fac_ = 0.0;  ///< factor node_cost_ was computed under
  /// kFree = plain wire; kPinOnly = pin-stub seg-0 node, usable only as a
  /// net's own terminal (prevents shorting foreign signals onto LUT pins);
  /// kMasked = track >= width_limit, not part of this trial's fabric.
  enum NodeClass : std::uint8_t { kFree = 0, kPinOnly = 1, kMasked = 2 };
  std::vector<std::uint8_t> node_class_;

  /// Terminal bounding box of each net (tile coordinates, no margin).
  std::vector<BBox> net_box_;

  RouterScratch main_;  ///< search state shared by every net route
};

}  // namespace vbs
