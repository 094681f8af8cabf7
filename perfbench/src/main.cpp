// vbs_perfbench: the repository benchmark (see ../README.md).
//
//   vbs_perfbench --workload compile|serve_hot|serve_cold --seed N
//                 --seconds S --trace 0|1 --work-dir DIR
//
// Prints a provenance line and, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
// the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
// run. The full record of the run (every metric, every gate, provenance) is
// written to DIR/run_<workload>_s<seed>_t<trace>.json and the traced run's
// Chrome trace to DIR/trace_<workload>.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "report.h"
#include "util/build_info.h"

namespace {

using perfbench::Report;
using perfbench::RunConfig;

const std::vector<std::string> kEndToEnd = {
    "setup_s", "rss_mb", "compile_s", "vbs_ratio", "decode_mbps",
};

const std::vector<std::string> kPerLayer = {
    "flow.pack_s",
    "flow.place_s",
    "flow.route_s",
    "flow.encode_s",
    "fabric.build_s",
    "place.moves_per_s",
    "route.pops_per_s",
    "route.heap_pops",
    "route.iterations",
    "vbs.encode_raw_frac",
    "vbs.encode_reorder_frac",
    "rtc.load_s",
    "vbs.decode_nodes_per_s",
    "service.cache_hit_rate",
    "service.cold_loads",
    "service.evictions",
    "service.relocates_decoded",
    "service.batch_loads",
    "service.decode_batch_s",
    "rtc.decode_busy_s",
    "journal.syncs_per_req",
    "journal.bytes_per_req",
    "service.drain_ms",
    "journal.share",
    "rpc.lat_p50_ms",
    "rpc.lat_p99_ms",
    "rpc.peak_rps",
    "rpc.ping_us",
    "rpc.ack_ms",
    "rpc.result_ms",
    "server.door_sheds",
    "server.reads_paused",
    "server.frames_in",
    "server.frames_out",
    "gen.late_ms",
    "journal.recover_s",
    "trace.overhead_compile_s",
    "trace.overhead_lat_p50_ms",
    "trace.compile_residual",
    "trace.latency_residual",
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "vbs_perfbench: %s\nusage: vbs_perfbench --workload "
               "compile|serve_hot|serve_cold --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n",
               why.c_str());
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig cfg;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::stoull(v);
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = std::stod(v);
      have_seconds = true;
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--work-dir") {
      cfg.work_dir = v;
    } else {
      usage("unknown option " + a);
    }
  }
  if (cfg.workload != "compile" && cfg.workload != "serve_hot" &&
      cfg.workload != "serve_cold") {
    usage("unknown workload '" + cfg.workload + "'");
  }
  if (!have_seed || !have_seconds || cfg.seconds <= 0 || cfg.work_dir.empty()) {
    usage("--seed, --seconds (> 0) and --work-dir are required");
  }
  return cfg;
}

std::string provenance_json(const RunConfig& cfg) {
  const vbs::BuildInfo b = vbs::build_info();
  return "{\"provenance\": {\"workload\": \"" + cfg.workload +
         "\", \"seed\": " + std::to_string(cfg.seed) +
         ", \"seconds\": " + std::to_string(cfg.seconds) +
         ", \"trace\": " + (cfg.trace ? "1" : "0") +
         ", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" + b.build_type + "\", \"compiler\": \"" +
         b.compiler + "\", \"version\": \"" + b.version + "\"}}";
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig cfg = parse(argc, argv);
  Report rep;
  const std::string provenance = provenance_json(cfg);
  rep.note("provenance", provenance);
  try {
    if (cfg.workload == "compile") {
      perfbench::run_compile(cfg, rep);
    } else {
      perfbench::run_serve(cfg, rep);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbs_perfbench: %s\n", e.what());
    return 1;
  }

  const std::vector<std::string>& names = cfg.trace ? kPerLayer : kEndToEnd;
  for (const std::string& n : names) {
    rep.gate(rep.has(n), "metric " + n + " was measured");
  }
  const std::string record_path = cfg.work_dir + "/run_" + cfg.workload +
                                  "_s" + std::to_string(cfg.seed) + "_t" +
                                  (cfg.trace ? "1" : "0") + ".json";
  std::ofstream(record_path) << rep.record_json();

  std::printf("%s\n%s\n", provenance.c_str(), rep.result_json(names).c_str());
  std::fflush(stdout);
  return rep.correct() ? 0 : 1;
}
