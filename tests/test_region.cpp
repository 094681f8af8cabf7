// RegionModel tests: clustering geometry, port numbering, field widths.
#include <gtest/gtest.h>

#include <set>

#include "vbs/region_model.h"

namespace vbs {
namespace {

ArchSpec spec5() {
  ArchSpec s;
  s.chan_width = 5;
  return s;
}

TEST(RegionModel, ClusterOneMatchesMacroModel) {
  const RegionModel rm(spec5(), 1);
  const MacroModel mm(spec5());
  EXPECT_EQ(rm.num_nodes(), mm.num_nodes());
  EXPECT_EQ(rm.num_ports(), mm.num_ports());
  // Identical port numbering at c=1 (VBS compatibility).
  for (int port = 0; port < rm.num_ports(); ++port) {
    EXPECT_EQ(rm.port_node(port), mm.port_node(port));
  }
  EXPECT_EQ(rm.port_field_bits(), spec5().port_field_bits());
}

TEST(RegionModel, PortCountsScaleWithCluster) {
  for (int c : {1, 2, 3, 4}) {
    const RegionModel rm(spec5(), c);
    EXPECT_EQ(rm.num_ports(), 4 * c * 5 + c * c * 7) << "c=" << c;
  }
}

TEST(RegionModel, InternalBoundariesAreMerged) {
  const ArchSpec s = spec5();
  const RegionModel rm(s, 2);
  const MacroModel mm(s);
  const int px = s.pins_on_x(), py = s.pins_on_y();
  for (int t = 0; t < s.chan_width; ++t) {
    EXPECT_EQ(rm.node_of(0, 0, mm.x(t, px)), rm.node_of(1, 0, mm.xw(t)));
    EXPECT_EQ(rm.node_of(0, 0, mm.y(t, py)), rm.node_of(0, 1, mm.ys(t)));
  }
  const int merges = s.chan_width * (2 * 1 + 2 * 1);
  EXPECT_EQ(rm.num_nodes(), 4 * mm.num_nodes() - merges);
}

TEST(RegionModel, PerimeterPortsAreDistinctNodes) {
  const RegionModel rm(spec5(), 3);
  std::set<int> nodes;
  for (int port = 0; port < rm.num_ports(); ++port) {
    const int n = rm.port_node(port);
    EXPECT_TRUE(nodes.insert(n).second) << "port " << port;
    EXPECT_EQ(rm.node_port(n), port);
  }
}

TEST(RegionModel, InteriorNodesHaveNoPort) {
  const RegionModel rm(spec5(), 2);
  int interior = 0;
  for (int n = 0; n < rm.num_nodes(); ++n) interior += (rm.node_port(n) < 0);
  EXPECT_EQ(interior, rm.num_nodes() - rm.num_ports());
}

TEST(RegionModel, FieldWidthsMatchPaperFormulas) {
  const RegionModel r1(spec5(), 1);
  EXPECT_EQ(r1.port_field_bits(), 5u);   // ceil(log2(4*5+7+1))
  EXPECT_EQ(r1.route_count_bits(), 4u);  // ceil(log2(2*5))
  const RegionModel r2(spec5(), 2);
  // 4cW + c^2 L + 1 = 40 + 28 + 1 = 69 -> 7 bits.
  EXPECT_EQ(r2.port_field_bits(), 7u);
  // Clusters widen the route-count field to the endpoint width.
  EXPECT_EQ(r2.route_count_bits(), 7u);
}

TEST(RegionModel, SwitchBitsCoverRegionPayload) {
  const RegionModel rm(spec5(), 2);
  std::set<int> bits;
  const auto& points = rm.macro().switch_points();
  for (int m = 0; m < rm.num_macros(); ++m) {
    for (std::size_t pi = 0; pi < points.size(); ++pi) {
      for (int pair = 0; pair < points[pi].n_switches(); ++pair) {
        EXPECT_TRUE(
            bits.insert(rm.switch_bit(m, static_cast<int>(pi), pair)).second);
      }
    }
  }
  EXPECT_EQ(static_cast<int>(bits.size()),
            rm.num_macros() * spec5().nroute_bits());
  EXPECT_EQ(*bits.begin(), 0);
}

TEST(RegionModel, AdjacencySymmetric) {
  const RegionModel rm(spec5(), 2);
  for (int n = 0; n < rm.num_nodes(); ++n) {
    for (const RegionModel::Adj& a : rm.adjacency(n)) {
      bool back = false;
      for (const RegionModel::Adj& b : rm.adjacency(a.to)) {
        back |= (b.to == n && b.bit == a.bit);
      }
      EXPECT_TRUE(back);
    }
  }
}

TEST(RegionModel, TilesWithinCluster) {
  const RegionModel rm(spec5(), 3);
  for (int n = 0; n < rm.num_nodes(); ++n) {
    const Point t = rm.node_tile(n);
    EXPECT_GE(t.x, 0);
    EXPECT_LT(t.x, 3);
    EXPECT_GE(t.y, 0);
    EXPECT_LT(t.y, 3);
  }
}

TEST(RegionModel, RejectsBadCluster) {
  EXPECT_THROW(RegionModel(spec5(), 0), std::invalid_argument);
  EXPECT_THROW(RegionModel(spec5(), 64), std::invalid_argument);
}

}  // namespace
}  // namespace vbs
