// De-virtualizer unit tests on hand-crafted connection lists: the stateful
// greedy decode, fan-out sharing, port reservation, failure modes.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "flow/pipeline.h"
#include "netlist/mcnc.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "vbs/devirtualizer.h"
#include "vbs/region_model.h"

namespace vbs {
namespace {

ArchSpec spec5() {
  ArchSpec s;
  s.chan_width = 5;
  return s;
}

/// Union-find over region nodes given a decoded routing payload: the test's
/// independent model of what the switches connect.
class PayloadConn {
 public:
  PayloadConn(const RegionModel& rm, const BitVector& payload) : rm_(&rm) {
    parent_.resize(static_cast<std::size_t>(rm.num_nodes()));
    std::iota(parent_.begin(), parent_.end(), 0);
    const auto& points = rm.macro().switch_points();
    for (int m = 0; m < rm.num_macros(); ++m) {
      const int ux = m % rm.cluster(), uy = m / rm.cluster();
      for (std::size_t pi = 0; pi < points.size(); ++pi) {
        const SwitchPoint& pt = points[pi];
        for (int pair = 0; pair < pt.n_switches(); ++pair) {
          if (!payload.get(static_cast<std::size_t>(
                  rm.switch_bit(m, static_cast<int>(pi), pair)))) {
            continue;
          }
          const auto [ai, bi] = pt.pair_arms(pair);
          unite(rm.node_of(ux, uy, pt.arms[ai]),
                rm.node_of(ux, uy, pt.arms[bi]));
        }
      }
    }
  }

  bool connected(int port_a, int port_b) {
    return find(rm_->port_node(port_a)) == find(rm_->port_node(port_b));
  }

 private:
  int find(int a) {
    while (parent_[static_cast<std::size_t>(a)] != a) {
      a = parent_[static_cast<std::size_t>(a)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(a)])];
    }
    return a;
  }
  void unite(int a, int b) { parent_[static_cast<std::size_t>(find(a))] = find(b); }

  const RegionModel* rm_;
  std::vector<int> parent_;
};

VbsEntry entry_with(std::vector<VbsConnection> conns, int c = 1) {
  VbsEntry e;
  e.logic.resize(static_cast<std::size_t>(c) * c);
  e.conns = std::move(conns);
  return e;
}

TEST(Devirtualizer, StraightThroughTrack) {
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  // west track 2 -> east track 2.
  const int in = rm.port_of_side(Side::kWest, 0, 2);
  const int out = rm.port_of_side(Side::kEast, 0, 2);
  BitVector payload;
  ASSERT_TRUE(dv.decode_entry(entry_with({{static_cast<std::uint16_t>(in),
                                           static_cast<std::uint16_t>(out)}}),
                              payload));
  EXPECT_GT(payload.popcount(), 0u);
  PayloadConn pc(rm, payload);
  EXPECT_TRUE(pc.connected(in, out));
  // An undeclared port must stay isolated.
  EXPECT_FALSE(pc.connected(in, rm.port_of_side(Side::kNorth, 0, 2)));
}

TEST(Devirtualizer, TrackToPinAndFanout) {
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  const auto in = static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 0, 1));
  const auto pin = static_cast<std::uint16_t>(rm.port_of_pin(0, 0, 2));
  const auto east = static_cast<std::uint16_t>(rm.port_of_side(Side::kEast, 0, 1));
  BitVector payload;
  DecodeStats stats;
  ASSERT_TRUE(
      dv.decode_entry(entry_with({{in, pin}, {in, east}}), payload, &stats));
  EXPECT_EQ(stats.pairs_routed, 2);
  PayloadConn pc(rm, payload);
  EXPECT_TRUE(pc.connected(in, pin));
  EXPECT_TRUE(pc.connected(in, east));  // fan-out: same signal
}

TEST(Devirtualizer, PinToPinThroughChannel) {
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  // LUT output (pin L-1 = 6) feeding back to an input pin of the same LB.
  const auto out_pin = static_cast<std::uint16_t>(rm.port_of_pin(0, 0, 6));
  const auto in_pin = static_cast<std::uint16_t>(rm.port_of_pin(0, 0, 3));
  BitVector payload;
  ASSERT_TRUE(dv.decode_entry(entry_with({{out_pin, in_pin}}), payload));
  PayloadConn pc(rm, payload);
  EXPECT_TRUE(pc.connected(out_pin, in_pin));
}

TEST(Devirtualizer, TwoSignalsStayDisjoint) {
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  const auto in1 = static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 0, 0));
  const auto out1 = static_cast<std::uint16_t>(rm.port_of_side(Side::kEast, 0, 0));
  const auto in2 = static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 0, 3));
  const auto out2 = static_cast<std::uint16_t>(rm.port_of_side(Side::kEast, 0, 3));
  BitVector payload;
  ASSERT_TRUE(
      dv.decode_entry(entry_with({{in1, out1}, {in2, out2}}), payload));
  PayloadConn pc(rm, payload);
  EXPECT_TRUE(pc.connected(in1, out1));
  EXPECT_TRUE(pc.connected(in2, out2));
  EXPECT_FALSE(pc.connected(in1, in2));
}

TEST(Devirtualizer, RejectsSharedOutAcrossSignals) {
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  const auto in1 = static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 0, 0));
  const auto in2 = static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 0, 1));
  const auto out = static_cast<std::uint16_t>(rm.port_of_side(Side::kEast, 0, 2));
  BitVector payload;
  EXPECT_FALSE(dv.decode_entry(entry_with({{in1, out}, {in2, out}}), payload));
}

TEST(Devirtualizer, RejectsSelfLoop) {
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  BitVector payload;
  EXPECT_FALSE(dv.decode_entry(entry_with({{3, 3}}), payload));
}

TEST(Devirtualizer, RawEntryCopiedThrough) {
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  VbsEntry e = entry_with({});
  e.raw = true;
  e.raw_routing = BitVector(static_cast<std::size_t>(spec5().nroute_bits()));
  e.raw_routing.set(17, true);
  BitVector payload;
  DecodeStats stats;
  ASSERT_TRUE(dv.decode_entry(e, payload, &stats));
  EXPECT_EQ(payload, e.raw_routing);
  EXPECT_EQ(stats.raw_entries, 1);
}

TEST(Devirtualizer, DeterministicAcrossInstancesAndRepeats) {
  const RegionModel rm(spec5(), 1);
  const VbsEntry e = entry_with({
      {static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 0, 1)),
       static_cast<std::uint16_t>(rm.port_of_pin(0, 0, 0))},
      {static_cast<std::uint16_t>(rm.port_of_pin(0, 0, 6)),
       static_cast<std::uint16_t>(rm.port_of_side(Side::kNorth, 0, 4))},
  });
  Devirtualizer dv1(rm), dv2(rm);
  BitVector p1, p2, p3;
  ASSERT_TRUE(dv1.decode_entry(e, p1));
  ASSERT_TRUE(dv2.decode_entry(e, p2));
  ASSERT_TRUE(dv1.decode_entry(e, p3));  // reuse after prior decode
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1, p3);
}

TEST(Devirtualizer, ClusterCrossRegionRoute) {
  const RegionModel rm(spec5(), 2);
  Devirtualizer dv(rm);
  // West of the cluster, second row, to a pin in the far corner macro.
  const auto in = static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 1, 2));
  const auto pin = static_cast<std::uint16_t>(rm.port_of_pin(1, 0, 4));
  BitVector payload;
  ASSERT_TRUE(dv.decode_entry(entry_with({{in, pin}}, 2), payload));
  PayloadConn pc(rm, payload);
  EXPECT_TRUE(pc.connected(in, pin));
}

TEST(Devirtualizer, SaturatedMacroFailsGracefully) {
  // Fill every track with straight-through signals (2W of them — each
  // switch-box point supports an E-W and an N-S crossing simultaneously),
  // then demand a pin-to-pin feedback route. Pin stubs can only meet
  // through track segments, which are all owned by other signals, so the
  // decode must fail rather than short anything together.
  const RegionModel rm(spec5(), 1);
  Devirtualizer dv(rm);
  std::vector<VbsConnection> conns;
  for (int t = 0; t < 5; ++t) {
    conns.push_back({static_cast<std::uint16_t>(rm.port_of_side(Side::kWest, 0, t)),
                     static_cast<std::uint16_t>(rm.port_of_side(Side::kEast, 0, t))});
    conns.push_back({static_cast<std::uint16_t>(rm.port_of_side(Side::kNorth, 0, t)),
                     static_cast<std::uint16_t>(rm.port_of_side(Side::kSouth, 0, t))});
  }
  BitVector payload;
  ASSERT_TRUE(dv.decode_entry(entry_with(conns), payload));  // 2W signals fit
  PayloadConn pc(rm, payload);
  EXPECT_TRUE(pc.connected(rm.port_of_side(Side::kWest, 0, 0),
                           rm.port_of_side(Side::kEast, 0, 0)));
  EXPECT_FALSE(pc.connected(rm.port_of_side(Side::kWest, 0, 0),
                            rm.port_of_side(Side::kNorth, 0, 0)));

  conns.push_back({static_cast<std::uint16_t>(rm.port_of_pin(0, 0, 6)),
                   static_cast<std::uint16_t>(rm.port_of_pin(0, 0, 0))});
  DecodeStats stats;
  EXPECT_FALSE(dv.decode_entry(entry_with(conns), payload, &stats));
  EXPECT_EQ(stats.pairs_failed, 1);
}

// Pins the decode work and result for the golden tseng image (the flow of
// Determinism.GoldenTrajectoryArtifactHashes: W=20, seed 1, placer effort
// 0.25). The constants were recorded with the decoder's earlier
// std::priority_queue open list, which MinHeap must reproduce. The stream
// bytes are pinned elsewhere; this catches a search change that keeps them
// but pops a different number of heap entries (nodes_expanded) or decodes
// different switches (the payload hash).
// Like the trajectory test, the constants assume this toolchain's libm
// exp/pow (the placer's acceptance test uses them).
TEST(Devirtualizer, GoldenTsengDecodeStats) {
  const McncCircuit& c = mcnc_by_name("tseng");
  FlowOptions fo;
  fo.arch.chan_width = 20;
  fo.seed = 1;
  fo.place.effort = 0.25;
  FlowPipeline pipe(make_mcnc_like(c, 1), c.size, c.size, fo);
  ThreadPool serial(1);
  const ImageDecode d = decode_images({&pipe.vbs_image()}, serial).front();
  ASSERT_TRUE(d.error.empty()) << d.error;
  std::uint64_t h = kFnvOffset64;
  for (const BitVector& p : d.payloads) {
    h = hash_u64(h, p.size());
    for (const std::uint64_t w : p.words()) h = hash_u64(h, w);
  }
  EXPECT_EQ(d.decode.nodes_expanded, 1538059);
  EXPECT_EQ(d.decode.negotiation_iterations, 2717);
  EXPECT_EQ(d.decode.pairs_routed, 12033);
  EXPECT_EQ(d.decode.pairs_failed, 0);
  EXPECT_EQ(d.decode.entries_decoded, 827);
  EXPECT_EQ(d.decode.raw_entries, 0);
  EXPECT_EQ(h, 0x37b31cab0e903c5aull);
}

}  // namespace
}  // namespace vbs
