// The `compile` workload: the paper's offline flow plus its run-time
// decode, at Fig. 4's settings (W=20, cluster 1, threads=1).
//
// The inputs are the five Table II stand-ins flow_bench uses (des, dsip,
// bigkey, ex5p, tseng), generated from --seed before timing starts. One
// pass compiles each netlist to a .vbs stream through FlowPipeline and
// loads the stream into a fresh ReconfigController kLoadsPerPass times
// (the first load is verified). Passes repeat until --seconds have elapsed
// (at least two). Gates: every circuit routes, every loaded configuration
// passes verify_connectivity, and every pass produces byte-identical
// streams.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bitstream/connectivity.h"
#include "flow_job.h"
#include "netlist/mcnc.h"
#include "report.h"
#include "rtc/controller.h"
#include "serve_workload.h"

namespace perfbench {

using namespace vbs;

StageTimes& StageTimes::operator+=(const StageTimes& o) {
  pack_s += o.pack_s;
  place_s += o.place_s;
  fabric_s += o.fabric_s;
  route_s += o.route_s;
  encode_s += o.encode_s;
  total_s += o.total_s;
  return *this;
}

namespace {

/// Loads of each circuit's stream per pass. decode_mbps takes each
/// circuit's median load time over every load of the run, so its samples
/// are spread over all passes rather than over one second of one pass.
constexpr int kLoadsPerPass = 3;

/// Times one stage call inside a benchmark span.
template <typename Fn>
double timed(const char* span_name, Fn&& fn) {
  telem::Span span(kSpanCategory, span_name);
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

}  // namespace

CompiledJob compile_job(const std::string& name, Netlist nl, int grid,
                        const FlowOptions& opts, const EncodeOptions& eopts,
                        std::optional<FlowPipeline>* pipe_out) {
  CompiledJob job;
  job.name = name;
  const double t0 = now_s();
  {
    telem::Span span(kSpanCategory, "compile.job");
    FlowPipeline pipe(std::move(nl), grid, grid, opts, eopts);
    job.times.pack_s = timed("flow.pack", [&] { pipe.run_to(Stage::kPack); });
    job.times.place_s =
        timed("flow.place", [&] { pipe.run_to(Stage::kPlace); });
    job.times.fabric_s = timed("fabric.build", [&] { pipe.fabric(); });
    job.times.route_s =
        timed("flow.route", [&] { pipe.run_to(Stage::kRoute); });
    job.routed = pipe.routing().success;
    if (job.routed) {
      job.times.encode_s =
          timed("flow.encode", [&] { pipe.run_to(Stage::kEncode); });
      job.stream = pipe.vbs_stream();
      job.encode = pipe.encode_stats();
    }
    job.place = pipe.place_stats();
    job.heap_pops = pipe.routing().heap_pops;
    job.route_iterations = pipe.routing().iterations;
    job.times.total_s = now_s() - t0;
    if (pipe_out != nullptr) pipe_out->emplace(std::move(pipe));
  }
  return job;
}

LoadCheck load_and_verify(const BitVector& stream, FlowPipeline& pipe,
                          const ArchSpec& arch, int grid, bool verify) {
  LoadCheck out;
  ReconfigController ctl(arch, grid, grid);
  TaskId id = kNoTask;
  out.load_s = timed("rtc.load", [&] { id = ctl.load(stream); });
  if (id == kNoTask) {
    out.error = "controller found no room for the task";
    return out;
  }
  out.decode = ctl.record(id).decode;
  out.raw_bits = ctl.fabric().config_bits_total();
  if (!verify) return out;
  out.error = verify_connectivity(ctl.fabric(), ctl.config_memory(),
                                  pipe.netlist(), pipe.packed(),
                                  pipe.placement());
  return out;
}

void run_compile(const RunConfig& cfg, Report& rep) {
  std::vector<McncCircuit> circuits = mcnc20();
  std::sort(circuits.begin(), circuits.end(),
            [](const McncCircuit& a, const McncCircuit& b) {
              return a.lbs < b.lbs;
            });
  circuits.resize(5);

  // Set-up: the input netlists, generated several times so setup_s is a
  // median (one generation takes a few milliseconds); the last generation
  // is used.
  std::vector<Netlist> netlists;
  std::vector<double> setup_times;
  for (int r = 0; r < 21; ++r) {
    const double t0 = now_s();
    netlists.clear();
    for (const McncCircuit& c : circuits) {
      netlists.push_back(make_mcnc_like(c, cfg.seed));
    }
    setup_times.push_back(now_s() - t0);
  }

  FlowOptions fo;  // ArchSpec default W=20, as vbsgen runs the flow
  fo.seed = cfg.seed;
  fo.threads = 1;
  EncodeOptions eo;  // cluster 1

  struct PassStats {
    StageTimes times;
    double load_s = 0.0;
    double raw_bits = 0.0;
    long long nodes_expanded = 0;
    long long moves = 0;
    long long heap_pops = 0;
    long long iterations = 0;
    long long entries = 0, raw_entries = 0, reordered = 0;
    double vbs_bits = 0.0, enc_raw_bits = 0.0;
  };
  std::vector<PassStats> untraced, traced;
  // Per circuit: raw-equivalent bits, and the time of every untraced load.
  std::vector<double> circuit_raw_bits(circuits.size(), 0.0);
  std::vector<std::vector<double>> load_samples(circuits.size());
  std::vector<BitVector> first_streams;
  bool identical = true;
  std::string verify_error;

  // In a traced run the first pass runs untraced as the overhead reference.
  const double t_start = now_s();
  for (int pass = 0;; ++pass) {
    const bool tracing = cfg.trace && pass > 0;
    telem::set_enabled(tracing);
    PassStats ps;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      const McncCircuit& c = circuits[i];
      std::optional<FlowPipeline> pipe;
      CompiledJob job = compile_job(c.name, netlists[i], c.size, fo, eo, &pipe);
      ++rep.attempted;
      if (!job.routed) {
        ++rep.failed;
        rep.gate(false, c.name + " routes at W=20");
        continue;
      }
      const LoadCheck lc = load_and_verify(job.stream, *pipe, fo.arch, c.size);
      if (!lc.error.empty()) {
        ++rep.failed;
        if (verify_error.empty()) verify_error = c.name + ": " + lc.error;
      }
      if (!tracing) {
        circuit_raw_bits[i] = static_cast<double>(lc.raw_bits);
        load_samples[i].push_back(lc.load_s);
        for (int l = 1; l < kLoadsPerPass; ++l) {
          load_samples[i].push_back(
              load_and_verify(job.stream, *pipe, fo.arch, c.size, false).load_s);
        }
      }
      if (pass == 0) {
        first_streams.push_back(job.stream);
      } else if (job.stream != first_streams[i]) {
        identical = false;
      }
      ps.times += job.times;
      ps.load_s += lc.load_s;
      ps.raw_bits += static_cast<double>(lc.raw_bits);
      ps.nodes_expanded += lc.decode.nodes_expanded;
      ps.moves += job.place.moves;
      ps.heap_pops += job.heap_pops;
      ps.iterations += job.route_iterations;
      ps.entries += job.encode.entries;
      ps.raw_entries += job.encode.raw_entries;
      ps.reordered += job.encode.reordered_entries;
      ps.vbs_bits += static_cast<double>(job.encode.vbs_bits);
      ps.enc_raw_bits += static_cast<double>(job.encode.raw_bits);
    }
    (tracing ? traced : untraced).push_back(ps);
    std::fprintf(stderr, "perfbench: compile pass %d%s: %.3f s\n", pass,
                 tracing ? " (traced)" : "", ps.times.total_s);
    if (pass >= 1 && now_s() - t_start >= cfg.seconds) break;
  }
  telem::set_enabled(false);

  rep.gate(verify_error.empty(),
           "every loaded configuration passes verify_connectivity" +
               (verify_error.empty() ? "" : " (" + verify_error + ")"));
  rep.gate(identical, "every pass produces byte-identical .vbs streams");

  // End-to-end metrics come from untraced passes only. decode_mbps is all
  // five circuits' raw bits over the sum of their median load times.
  std::vector<double> compile_s;
  for (const PassStats& ps : untraced) compile_s.push_back(ps.times.total_s);
  double bits = 0.0, load_s = 0.0;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    bits += circuit_raw_bits[i];
    load_s += median(load_samples[i]);
  }
  const double decode_mbps = bits / load_s * 1e-6;
  const PassStats& p0 = untraced.front();
  rep.metric("setup_s", median(setup_times), "s");
  rep.metric("compile_s", median(compile_s), "s");
  rep.metric("vbs_ratio", p0.vbs_bits / p0.enc_raw_bits, "ratio");
  rep.metric("decode_mbps", decode_mbps, "Mbit/s");
  rep.note("passes", std::to_string(untraced.size() + traced.size()));

  if (!cfg.trace) {
    rep.metric("rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Per-layer metrics: medians over the traced passes.
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const PassStats& ps : traced) v.push_back(field(ps));
    return median(v);
  };
  rep.metric("flow.pack_s", med([](const PassStats& p) { return p.times.pack_s; }), "s");
  rep.metric("flow.place_s", med([](const PassStats& p) { return p.times.place_s; }), "s");
  rep.metric("flow.route_s", med([](const PassStats& p) { return p.times.route_s; }), "s");
  rep.metric("flow.encode_s", med([](const PassStats& p) { return p.times.encode_s; }), "s");
  rep.metric("fabric.build_s", med([](const PassStats& p) { return p.times.fabric_s; }), "s");
  rep.metric("place.moves_per_s",
             med([](const PassStats& p) { return p.moves / p.times.place_s; }), "1/s");
  rep.metric("route.pops_per_s",
             med([](const PassStats& p) { return p.heap_pops / p.times.route_s; }), "1/s");
  rep.metric("route.heap_pops", static_cast<double>(traced.front().heap_pops), "count");
  rep.metric("route.iterations", static_cast<double>(traced.front().iterations), "count");
  rep.metric("vbs.encode_raw_frac",
             static_cast<double>(p0.raw_entries) / static_cast<double>(p0.entries), "ratio");
  rep.metric("vbs.encode_reorder_frac",
             static_cast<double>(p0.reordered) / static_cast<double>(p0.entries), "ratio");
  rep.metric("rtc.load_s", med([](const PassStats& p) { return p.load_s; }), "s");
  rep.metric("vbs.decode_nodes_per_s",
             med([](const PassStats& p) { return p.nodes_expanded / p.load_s; }), "1/s");
  rep.metric("trace.overhead_compile_s",
             med([](const PassStats& p) { return p.times.total_s; }) -
                 median(compile_s),
             "s");

  // Reconcile the trace with the measured compile time: within each
  // compile.job span the five stage spans must cover the job, and the job
  // spans of the traced passes must sum to their measured compile time.
  std::vector<telem::TraceEvent> events = telem::take_trace();
  const SpanTimes st = span_times(events, kSpanCategory);
  double measured = 0.0;
  for (const PassStats& ps : traced) measured += ps.times.total_s;
  const double job_total = st.total_s.count("compile.job")
                               ? st.total_s.at("compile.job")
                               : 0.0;
  const double job_self =
      st.self_s.count("compile.job") ? st.self_s.at("compile.job") : 0.0;
  const double stage_residual = job_total > 0 ? job_self / job_total : 1.0;
  const double pass_residual =
      measured > 0 ? std::abs(job_total - measured) / measured : 1.0;
  rep.metric("trace.compile_residual", std::max(stage_residual, pass_residual),
             "ratio");
  rep.gate(stage_residual <= kCompileReconcileTolerance &&
               pass_residual <= kCompileReconcileTolerance,
           "traced stage self-times sum to compile_s within " +
               std::to_string(kCompileReconcileTolerance));

  // The service, wire and journal layers are idle in this workload; a
  // short serve_hot probe fills their per-layer metrics so every traced
  // run reports the whole set. Its events join the same Chrome trace.
  serve_probe(cfg, rep);
  rep.metric("rss_mb", peak_rss_mb(), "MB");
  const std::vector<telem::TraceEvent> probe_events = telem::take_trace();
  serve_trace_metrics(probe_events, rep);
  events.insert(events.end(), probe_events.begin(), probe_events.end());
  write_chrome_trace(cfg, events);
}

}  // namespace perfbench
