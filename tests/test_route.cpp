// Router tests: end-to-end routing validity (via electrical connectivity
// extraction), congestion negotiation, pin reservation, and the minimum-
// channel-width search.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bitstream/bitstream.h"
#include "bitstream/connectivity.h"
#include "flow/flow.h"
#include "netlist/generator.h"
#include "route/mcw.h"
#include "route/routing_stats.h"

namespace vbs {
namespace {

FlowOptions small_opts(int w = 8) {
  FlowOptions o;
  o.arch.chan_width = w;
  return o;
}

TEST(Route, TinyDesignRoutesAndVerifies) {
  GenParams p;
  p.n_lut = 12;
  p.n_pi = 3;
  p.n_po = 3;
  p.seed = 2;
  FlowResult r = run_flow(generate_netlist(p), 4, 4, small_opts());
  ASSERT_TRUE(r.routed());
  const BitVector raw = generate_raw_bitstream(*r.fabric, r.netlist, r.packed,
                                               r.placement, r.routing.routes);
  EXPECT_EQ(raw.size(), r.fabric->config_bits_total());
  EXPECT_EQ(verify_connectivity(*r.fabric, raw, r.netlist, r.packed,
                                r.placement),
            "");
}

class RouteSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteSweep, MediumDesignsRouteCleanly) {
  GenParams p;
  p.n_lut = 80;
  p.n_pi = 8;
  p.n_po = 8;
  p.seed = GetParam();
  FlowOptions o = small_opts(10);
  o.seed = GetParam();
  FlowResult r = run_flow(generate_netlist(p), 10, 10, o);
  ASSERT_TRUE(r.routed());
  // No overused nodes at exit and every net tree is rooted at its source.
  EXPECT_EQ(r.routing.overused_nodes, 0u);
  const BitVector raw = generate_raw_bitstream(*r.fabric, r.netlist, r.packed,
                                               r.placement, r.routing.routes);
  EXPECT_EQ(verify_connectivity(*r.fabric, raw, r.netlist, r.packed,
                                r.placement),
            "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteSweep, ::testing::Values(1, 5, 9));

TEST(Route, TreesAreWellFormed) {
  GenParams p;
  p.n_lut = 40;
  p.seed = 4;
  FlowResult r = run_flow(generate_netlist(p), 7, 7, small_opts());
  ASSERT_TRUE(r.routed());
  for (const NetRoute& route : r.routing.routes) {
    if (route.nodes.empty()) continue;
    EXPECT_EQ(route.nodes[0].parent, -1);
    EXPECT_EQ(route.nodes[0].fabric_edge, -1);
    for (std::size_t k = 1; k < route.nodes.size(); ++k) {
      const auto& tn = route.nodes[k];
      ASSERT_GE(tn.parent, 0);
      ASSERT_LT(tn.parent, static_cast<std::int32_t>(k));
      // The recorded fabric edge really joins parent and child wires.
      const Fabric::Edge& e =
          r.fabric->edge_at(static_cast<std::size_t>(tn.fabric_edge));
      EXPECT_EQ(e.to, tn.rr);
    }
  }
}

TEST(Route, NoNodeSharedBetweenNets) {
  GenParams p;
  p.n_lut = 60;
  p.seed = 6;
  FlowResult r = run_flow(generate_netlist(p), 8, 8, small_opts());
  ASSERT_TRUE(r.routed());
  std::map<int, int> owner;
  for (std::size_t n = 0; n < r.routing.routes.size(); ++n) {
    std::set<int> mine;
    for (const auto& tn : r.routing.routes[n].nodes) mine.insert(tn.rr);
    for (const int rr : mine) {
      const auto [it, fresh] = owner.insert({rr, static_cast<int>(n)});
      EXPECT_TRUE(fresh) << "wire " << rr << " used by nets " << it->second
                         << " and " << n;
    }
  }
}

TEST(Route, PinsOnlyUsedAsOwnTerminals) {
  // A LUT pin wire may appear in a route only if it is that net's own
  // source or one of its sinks — never a foreign net's through-wire.
  GenParams p;
  p.n_lut = 50;
  p.seed = 8;
  FlowResult r = run_flow(generate_netlist(p), 8, 8, small_opts());
  ASSERT_TRUE(r.routed());
  const MacroModel& mm = r.fabric->macro();
  std::set<int> pin_nodes;
  for (int my = 0; my < r.fabric->height(); ++my) {
    for (int mx = 0; mx < r.fabric->width(); ++mx) {
      for (int pin = 0; pin < mm.spec().lb_pins(); ++pin) {
        pin_nodes.insert(r.fabric->global_node(mx, my, mm.pin_node(pin)));
      }
    }
  }
  const RouteRequest req =
      build_route_request(*r.fabric, r.netlist, r.packed, r.placement);
  ASSERT_EQ(req.nets.size(), r.routing.routes.size());
  for (std::size_t n = 0; n < req.nets.size(); ++n) {
    std::set<int> own_terminals{req.nets[n].source};
    own_terminals.insert(req.nets[n].sinks.begin(), req.nets[n].sinks.end());
    for (const auto& tn : r.routing.routes[n].nodes) {
      if (!pin_nodes.count(tn.rr)) continue;
      EXPECT_TRUE(own_terminals.count(tn.rr))
          << "net " << n << " routed through a foreign LUT pin wire";
    }
  }
}

TEST(Route, UnroutableAtTinyWidthRoutableAtLarge) {
  GenParams p;
  p.n_lut = 90;
  p.n_pi = 8;
  p.n_po = 8;
  p.seed = 3;
  const Netlist nl = generate_netlist(p);

  FlowOptions tight = small_opts(2);
  tight.route.max_iterations = 8;
  FlowResult rt = run_flow(nl, 10, 10, tight);
  EXPECT_FALSE(rt.routed());

  FlowResult wide = run_flow(nl, 10, 10, small_opts(12));
  EXPECT_TRUE(wide.routed());
}

TEST(Route, McwSearchFindsMinimum) {
  GenParams p;
  p.n_lut = 60;
  p.n_pi = 6;
  p.n_po = 6;
  p.seed = 11;
  const Netlist nl = generate_netlist(p);
  ArchSpec spec;
  spec.chan_width = 12;
  const PackedDesign pd = pack_netlist(nl, spec);
  const Placement pl = place_design(nl, pd, spec, 9, 9, {});

  McwOptions mo;
  mo.router.max_iterations = 20;
  const McwResult res = find_min_channel_width(spec, nl, pd, pl, mo);
  ASSERT_GT(res.mcw, 1);
  EXPECT_LE(res.mcw, 12);
  // Minimality: one track fewer must be unroutable (modulo router effort —
  // use the same options the search used).
  ArchSpec below = spec;
  below.chan_width = res.mcw - 1;
  if (below.chan_width >= 2) {
    bool track_ok = true;
    for (const IoSlot& s : pl.io_loc) track_ok &= s.track < below.chan_width;
    if (track_ok) {
      const Fabric f(below, 9, 9);
      PathfinderRouter router(f, build_route_request(f, nl, pd, pl));
      EXPECT_FALSE(router.route(mo.router).success);
    }
  }
}

TEST(Route, WidthLimitMasksExcessTracks) {
  // Routing a W=12 fabric with width_limit 6 must behave like a 6-track
  // fabric: only the top 6 tracks survive, so no route may touch a wire of
  // tracks 0..5, and I/O terminals (from-top ports) stay reachable.
  GenParams p;
  p.n_lut = 60;
  p.n_pi = 6;
  p.n_po = 6;
  p.seed = 11;
  const Netlist nl = generate_netlist(p);
  ArchSpec spec;
  spec.chan_width = 12;
  const PackedDesign pd = pack_netlist(nl, spec);
  PlaceOptions popts;
  popts.io_per_tile = 3;  // keep logical I/O tracks below the limit
  const Placement pl = place_design(nl, pd, spec, 9, 9, popts);
  for (const IoSlot& s : pl.io_loc) ASSERT_LT(s.track, 6);
  const Fabric fabric(spec, 9, 9);
  const RouteRequest req =
      build_route_request(fabric, nl, pd, pl, /*io_tracks_from_top=*/true);

  const int limit = 6;
  PathfinderRouter router(fabric, req, limit);
  const RoutingResult rr = router.route({});
  ASSERT_TRUE(rr.success);

  const MacroModel& mm = fabric.macro();
  std::set<int> masked;
  for (int my = 0; my < fabric.height(); ++my) {
    for (int mx = 0; mx < fabric.width(); ++mx) {
      for (int t = 0; t < spec.chan_width - limit; ++t) {
        masked.insert(fabric.global_node(mx, my, mm.xw(t)));
        masked.insert(fabric.global_node(mx, my, mm.ys(t)));
        for (int s = 0; s <= spec.pins_on_x(); ++s) {
          masked.insert(fabric.global_node(mx, my, mm.x(t, s)));
        }
        for (int s = 0; s <= spec.pins_on_y(); ++s) {
          masked.insert(fabric.global_node(mx, my, mm.y(t, s)));
        }
      }
    }
  }
  for (const NetRoute& route : rr.routes) {
    for (const auto& tn : route.nodes) {
      EXPECT_FALSE(masked.count(tn.rr)) << "route uses a masked track wire";
    }
  }
}

TEST(Route, SeededRouterReusesPriorSolution) {
  // Seeding a fresh router with a full prior solution leaves nothing to
  // search on the first iteration: the reroute converges with a fraction
  // of the cold pops and identical sink connectivity.
  GenParams p;
  p.n_lut = 60;
  p.n_pi = 6;
  p.n_po = 6;
  p.seed = 11;
  const Netlist nl = generate_netlist(p);
  ArchSpec spec;
  spec.chan_width = 10;
  const PackedDesign pd = pack_netlist(nl, spec);
  const Placement pl = place_design(nl, pd, spec, 9, 9, {});
  const Fabric fabric(spec, 9, 9);
  const RouteRequest req = build_route_request(fabric, nl, pd, pl);

  PathfinderRouter cold(fabric, req);
  const RoutingResult base = cold.route({});
  ASSERT_TRUE(base.success);

  PathfinderRouter seeded(fabric, req);
  seeded.seed_routes(base.routes);
  const RoutingResult warm = seeded.route({});
  ASSERT_TRUE(warm.success);
  EXPECT_EQ(warm.iterations, 1);
  EXPECT_LT(warm.heap_pops, base.heap_pops / 4);
  EXPECT_EQ(warm.total_wire_nodes, base.total_wire_nodes);
}

TEST(RoutingStats, CountsSwitchesAndCorrelation) {
  GenParams p;
  p.n_lut = 40;
  p.seed = 19;
  FlowResult r = run_flow(generate_netlist(p), 7, 7, small_opts());
  ASSERT_TRUE(r.routed());
  const RoutingStats st = compute_routing_stats(*r.fabric, r.routing.routes);
  ASSERT_EQ(st.switches_per_macro.size(),
            static_cast<std::size_t>(r.fabric->num_macros()));
  // Total switches equal total tree edges.
  std::size_t edges = 0;
  for (const NetRoute& route : r.routing.routes) {
    for (const auto& tn : route.nodes) edges += (tn.fabric_edge >= 0);
  }
  std::size_t counted = 0;
  for (const int s : st.switches_per_macro) {
    counted += static_cast<std::size_t>(s);
    EXPECT_LE(s, r.fabric->spec().nroute_bits());
  }
  EXPECT_EQ(counted, edges);
  EXPECT_GT(st.switch_utilization, 0.0);
  EXPECT_LT(st.switch_utilization, 1.0);
  EXPECT_EQ(st.total_wire_nodes, r.routing.total_wire_nodes);
  for (std::size_t m = 0; m < st.nets_per_macro.size(); ++m) {
    // A macro can't host more nets than switches.
    EXPECT_LE(st.nets_per_macro[m], st.switches_per_macro[m]);
  }
}

TEST(RoutingStats, PearsonBasics) {
  EXPECT_DOUBLE_EQ(pearson({1, 2, 3}, {2, 4, 6}), 1.0);
  EXPECT_DOUBLE_EQ(pearson({1, 2, 3}, {6, 4, 2}), -1.0);
  EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {2, 4, 6}), 0.0);  // degenerate
  EXPECT_DOUBLE_EQ(pearson({1, 2}, {1}), 0.0);           // size mismatch
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {1, 3, 2, 4}), 0.8, 1e-12);
}

TEST(Route, DeterministicResult) {
  GenParams p;
  p.n_lut = 40;
  p.seed = 13;
  const Netlist nl = generate_netlist(p);
  FlowResult a = run_flow(nl, 7, 7, small_opts());
  FlowResult b = run_flow(nl, 7, 7, small_opts());
  ASSERT_TRUE(a.routed());
  ASSERT_TRUE(b.routed());
  ASSERT_EQ(a.routing.routes.size(), b.routing.routes.size());
  for (std::size_t i = 0; i < a.routing.routes.size(); ++i) {
    ASSERT_EQ(a.routing.routes[i].nodes.size(),
              b.routing.routes[i].nodes.size());
    for (std::size_t k = 0; k < a.routing.routes[i].nodes.size(); ++k) {
      EXPECT_EQ(a.routing.routes[i].nodes[k].rr,
                b.routing.routes[i].nodes[k].rr);
    }
  }
}

}  // namespace
}  // namespace vbs
