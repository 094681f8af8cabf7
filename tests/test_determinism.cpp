// Same-seed determinism regression: two runs of the whole flow must agree
// bit for bit — placements AND route trees — with bounded-box routing on
// and off. The flow is advertised as reproducible from a single seed
// (BENCH_flow.json trajectories, encode_ablation comparisons and the
// determinism of the VBS coding itself all depend on it), so any hidden
// iteration-order or uninitialized-state dependence is a bug.
//
// Beyond run-to-run agreement, a golden trajectory pins the artifact
// content hashes of one Table II circuit, so any change to the seed ->
// result function (RNG draw order, batch boundaries, net order) fails here
// instead of silently moving every committed artifact. The minimum-
// channel-width search promises the same answer warm or cold.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "flow/flow.h"
#include "flow/pipeline.h"
#include "netlist/generator.h"
#include "netlist/mcnc.h"
#include "route/mcw.h"
#include "route/route_request.h"

namespace vbs {
namespace {

Netlist test_netlist(std::uint64_t seed) {
  GenParams p;
  p.n_lut = 90;
  p.n_pi = 8;
  p.n_po = 8;
  p.seed = seed;
  return generate_netlist(p);
}

FlowOptions flow_opts(bool bounded_box) {
  FlowOptions o;
  o.arch.chan_width = 10;
  o.seed = 5;
  o.route.bounded_box = bounded_box;
  return o;
}

void expect_identical_routing(const RoutingResult& a, const RoutingResult& b,
                              const char* what) {
  ASSERT_EQ(a.success, b.success) << what;
  ASSERT_EQ(a.routes.size(), b.routes.size()) << what;
  EXPECT_EQ(a.heap_pops, b.heap_pops) << what;
  EXPECT_EQ(a.bbox_retries, b.bbox_retries) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  for (std::size_t n = 0; n < a.routes.size(); ++n) {
    const auto& ra = a.routes[n].nodes;
    const auto& rb = b.routes[n].nodes;
    ASSERT_EQ(ra.size(), rb.size()) << what << " net " << n;
    for (std::size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra[k].rr, rb[k].rr) << what << " net " << n << " node " << k;
      EXPECT_EQ(ra[k].parent, rb[k].parent)
          << what << " net " << n << " node " << k;
      EXPECT_EQ(ra[k].fabric_edge, rb[k].fabric_edge)
          << what << " net " << n << " node " << k;
    }
  }
}

void expect_identical(const FlowResult& a, const FlowResult& b) {
  // Placement: byte-identical LUT and I/O assignments.
  ASSERT_EQ(a.placement.lut_loc.size(), b.placement.lut_loc.size());
  for (std::size_t i = 0; i < a.placement.lut_loc.size(); ++i) {
    EXPECT_EQ(a.placement.lut_loc[i], b.placement.lut_loc[i]) << "LUT " << i;
  }
  ASSERT_EQ(a.placement.io_loc.size(), b.placement.io_loc.size());
  for (std::size_t i = 0; i < a.placement.io_loc.size(); ++i) {
    EXPECT_EQ(a.placement.io_loc[i], b.placement.io_loc[i]) << "I/O " << i;
  }
  expect_identical_routing(a.routing, b.routing, "flow");
}

TEST(Determinism, SameSeedSameFlowBoundedBox) {
  FlowResult a = run_flow(test_netlist(3), 11, 11, flow_opts(true));
  FlowResult b = run_flow(test_netlist(3), 11, 11, flow_opts(true));
  ASSERT_TRUE(a.routed());
  expect_identical(a, b);
}

TEST(Determinism, SameSeedSameFlowUnboundedBox) {
  FlowResult a = run_flow(test_netlist(3), 11, 11, flow_opts(false));
  FlowResult b = run_flow(test_netlist(3), 11, 11, flow_opts(false));
  ASSERT_TRUE(a.routed());
  expect_identical(a, b);
}

/// Content hash (bytes 13-20, little-endian) of a vbs.artifact.v1 file.
std::uint64_t artifact_content_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string bytes = ss.str();
  EXPECT_GE(bytes.size(), 21u) << path;
  if (bytes.size() < 21) return 0;
  std::uint64_t h = 0;
  for (int i = 0; i < 8; ++i) {
    h |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[13 + i]))
         << (8 * i);
  }
  return h;
}

// The golden trajectory: tseng at W=20, seed 1, placer effort 0.25. The
// expected hashes are those of the trajectory every committed artifact and
// BENCH counter was produced with. A failure here means the seed ->
// artifact function moved (RNG draw order, batch boundaries, net order,
// encoder): every committed artifact, BENCH counter and vbs_ratio moves
// with it. The hashes assume IEEE-754 doubles without FMA contraction and
// the libm exp/pow results of the reference toolchain.
TEST(Determinism, GoldenTrajectoryArtifactHashes) {
  const McncCircuit& c = mcnc_by_name("tseng");
  FlowOptions fo;
  fo.arch.chan_width = 20;
  fo.seed = 1;
  fo.place.effort = 0.25;
  FlowPipeline pipe(make_mcnc_like(c, 1), c.size, c.size, fo);
  pipe.run_to(Stage::kEncode);
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("vbs_golden_" + std::to_string(::getpid())))
          .string();
  pipe.save_checkpoint(dir, Stage::kEncode);
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"pack.art", 0x1ea0f2c2c4007db1ull},
      {"place.art", 0xfcfd9801e4adf456ull},
      {"route.art", 0x2efa7bd66ab92bcdull},
      {"encode.art", 0x65131e137d489122ull},
  };
  for (const auto& [name, hash] : expected) {
    EXPECT_EQ(artifact_content_hash(dir + "/" + name), hash) << name;
  }
  std::filesystem::remove_all(dir);
}

// Warm-started MCW trials (seeded with the previous routable solution's
// surviving tree) must land on the same minimum width as cold trials, for
// measurably less search work. bigkey and tseng are the suite circuits
// whose searches have no deeply-infeasible trial widths, so the
// warm-seeding savings dominate cleanly; see bench/README.md for the
// whole-suite cost profile.
TEST(Determinism, McwWarmStartMatchesColdSearch) {
  for (const char* name : {"bigkey", "tseng"}) {
    SCOPED_TRACE(name);
    const McncCircuit c = mcnc_by_name(name);
    const Netlist nl = make_mcnc_like(c, 1);
    ArchSpec spec;
    spec.chan_width = 20;
    const PackedDesign pd = pack_netlist(nl, spec);
    const Placement pl = place_design(nl, pd, spec, c.size, c.size, {});

    McwOptions warm;
    McwOptions cold = warm;
    cold.warm_start = false;
    const McwResult rw = find_min_channel_width(spec, nl, pd, pl, warm);
    const McwResult rc = find_min_channel_width(spec, nl, pd, pl, cold);
    ASSERT_GT(rw.mcw, 1);
    EXPECT_EQ(rw.mcw, rc.mcw);
    EXPECT_EQ(rw.trials, rc.trials);  // same trial widths either way
    EXPECT_LT(rw.heap_pops, rc.heap_pops)
        << "warm seeding should cut search work";
    // Per-trial logs cover every trial and sum to the totals.
    ASSERT_EQ(rw.trial_log.size(), static_cast<std::size_t>(rw.trials));
    long long pops = 0;
    for (const McwTrial& t : rw.trial_log) pops += t.heap_pops;
    EXPECT_EQ(pops, rw.heap_pops);
  }
}

// An explicitly requested placer seed of 1 must be honored, not silently
// replaced by the flow seed (the old `seed == 1 ? flow : place` smell).
TEST(Determinism, ExplicitPlacerSeedOneIsHonored) {
  const Netlist nl = test_netlist(3);
  ArchSpec arch;
  arch.chan_width = 10;

  FlowOptions inherit;  // place.seed = 0: placement follows the flow seed
  inherit.arch = arch;
  inherit.seed = 5;
  FlowOptions pinned = inherit;  // placement pinned to seed 1
  pinned.place.seed = 1;
  FlowOptions flow1 = inherit;  // flow seed 1 => inherited placement seed 1
  flow1.seed = 1;

  const FlowResult a = run_flow(nl, 11, 11, pinned);
  const FlowResult b = run_flow(nl, 11, 11, flow1);
  ASSERT_EQ(a.placement.lut_loc.size(), b.placement.lut_loc.size());
  for (std::size_t i = 0; i < a.placement.lut_loc.size(); ++i) {
    EXPECT_EQ(a.placement.lut_loc[i], b.placement.lut_loc[i]);
  }

  const FlowResult c = run_flow(nl, 11, 11, inherit);  // seed 5 placement
  bool same = a.placement.lut_loc.size() == c.placement.lut_loc.size();
  if (same) {
    for (std::size_t i = 0; i < a.placement.lut_loc.size(); ++i) {
      same = same && a.placement.lut_loc[i] == c.placement.lut_loc[i];
    }
  }
  EXPECT_FALSE(same) << "seed-1 placement should differ from seed-5";
}

}  // namespace
}  // namespace vbs
