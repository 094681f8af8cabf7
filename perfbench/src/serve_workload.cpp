// The `serve_hot` and `serve_cold` workloads.
//
// Set-up (repeated, setup_s is the median): compile the task library
// through FlowPipeline, generate the per-tenant request schedules and their
// LOAD payloads, start an RpcServer over a journaled ReconfigService
// (auto_drain on, unbounded queue, no deadline, no fault plan, threads=2)
// and authenticate one connection per tenant.
//
// Measured: the open loop at the workload's fixed rate in slices, each
// preceded by a probe round (a library compile, then every library stream
// through ReconfigController::load), the closed-loop saturation phase, then
// PING round trips. Gates after the run: the accounting identity, the
// in-run cache hit-rate band, the generator's own lateness, a re-decode of
// every live task against the configuration memory over its rectangle, and
// recovery from the journal reproducing the live state fingerprint.
#include "serve_workload.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "flow_job.h"
#include "netlist/generator.h"
#include "open_loop.h"
#include "rtc/server/server.h"
#include "rtc/service/service.h"
#include "util/trace_export.h"
#include "vbs/devirtualizer.h"
#include "vbs/vbs_format.h"

namespace perfbench {

using namespace vbs;

namespace {

constexpr int kTenants = 4;
constexpr std::uint64_t kAuthSeed = 0x5eedbe;
/// Requests of the traced run replayed offline for service.drain_ms.
constexpr std::size_t kReplayRequests = 600;
constexpr double kProbeRoundSeconds = 0.25;

struct ServeSpec {
  std::string name;
  int setup_reps = 0;          ///< set-ups per run; setup_s is their median
  int kinds = 0;
  int lut_min = 0, lut_max = 0;  ///< kind sizes, evenly spaced
  bool mixed_cluster = false;  ///< alternate cluster 1 and 2 encodings
  int fabric = 0;              ///< service fabric side, in macros
  /// Decoded-stream cache capacity as a share of the whole library's
  /// decoded footprint; 0 keeps the service default (everything fits).
  double cache_share = 0.0;
  int live_per_tenant = 0;
  double relocate_prob = 0.0;  ///< per touch of a full live set
  double rate_rps = 0.0;       ///< open-loop offered rate
  /// An open-loop request answered later than this after its due time
  /// counts as a failed operation.
  double latency_limit_ms = 0.0;
  /// A run whose generator picked requests up later (p99) than this after
  /// their due time measured the client, not the server: it is invalid.
  double max_gen_late_ms = 0.0;
  int window = 0;              ///< closed-loop outstanding per connection
  double open_share = 0.0;     ///< share of --seconds in the open loop
  double peak_guess_rps = 0.0; ///< sizes the pre-generated closed schedules
  double hit_min = 0.0, hit_max = 1.0;
  int rounds = 0;              ///< probe rounds, one per open-loop slice
};

ServeSpec spec_for(const std::string& workload) {
  ServeSpec s;
  s.name = workload;
  if (workload == "serve_hot") {
    s.setup_reps = 20;
    s.kinds = 12;
    s.lut_min = 8;
    s.lut_max = 16;
    s.fabric = 32;
    s.live_per_tenant = 3;
    s.relocate_prob = 0.3;
    s.rate_rps = 800;
    s.latency_limit_ms = 1000;
    s.max_gen_late_ms = 10;
    s.window = 8;
    s.open_share = 0.7;
    s.peak_guess_rps = 3000;
    s.hit_min = 0.95;
    s.rounds = 10;
  } else {
    s.setup_reps = 5;
    s.kinds = 32;
    s.lut_min = 12;
    s.lut_max = 24;
    s.mixed_cluster = true;
    s.fabric = 40;
    s.cache_share = 0.08;
    s.live_per_tenant = 2;
    s.relocate_prob = 0.6;
    s.rate_rps = 50;
    s.latency_limit_ms = 250;
    s.max_gen_late_ms = 50;
    s.window = 4;
    s.open_share = 0.8;
    s.peak_guess_rps = 600;
    s.hit_max = 0.3;
    s.rounds = 8;
  }
  return s;
}

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One tenant's request schedule: loads until `live` tasks are up, then
/// each step unloads a random live task or (with relocate_prob) relocates
/// one; an unload is always followed by a load of a random kind.
std::vector<Op> make_schedule(const ServeSpec& spec, std::uint64_t seed,
                              int tenant, std::size_t length) {
  std::uint64_t rng = seed * 0x100000001b3ull + static_cast<std::uint64_t>(tenant);
  auto uniform = [&](std::size_t n) {
    return static_cast<std::size_t>(splitmix(rng) % n);
  };
  std::vector<Op> ops;
  std::vector<int> live;  // schedule indices of live loads
  while (ops.size() < length) {
    Op op;
    if (static_cast<int>(live.size()) < spec.live_per_tenant) {
      op.kind = RequestKind::kLoad;
      op.kind_idx = static_cast<int>(uniform(static_cast<std::size_t>(spec.kinds)));
      live.push_back(static_cast<int>(ops.size()));
    } else {
      const std::size_t pick = uniform(live.size());
      op.target = live[pick];
      if (static_cast<double>(splitmix(rng) % 1000) < spec.relocate_prob * 1000) {
        op.kind = RequestKind::kRelocate;
      } else {
        op.kind = RequestKind::kUnload;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    ops.push_back(op);
  }
  return ops;
}

struct LibraryKind {
  CompiledJob job;
  int grid = 0;
  std::optional<FlowPipeline> pipe;
};

/// Everything one set-up builds; destroyed in reverse order (client, then
/// server, then service).
struct Rig {
  std::vector<LibraryKind> library;
  StageTimes compile_times;
  std::unique_ptr<ReconfigService> service;
  std::unique_ptr<rpc::RpcServer> server;
  std::unique_ptr<LoadClient> client;

  void stop() {
    if (client) client->close();
    if (server) server->stop();
  }
  ~Rig() { stop(); }
};

/// Compiles the task library of `seed`, or with `variant` > 0 another
/// library of the same shape (kind count, sizes, cluster mix) drawn from
/// the same seed.
std::vector<LibraryKind> compile_library(const ServeSpec& spec,
                                         std::uint64_t seed,
                                         StageTimes& times, int variant = 0) {
  telem::Span span(kSpanCategory, "setup.library");
  std::vector<LibraryKind> lib;
  for (int k = 0; k < spec.kinds; ++k) {
    GenParams gp;
    gp.n_lut = spec.lut_min +
               (spec.lut_max - spec.lut_min) * k / std::max(1, spec.kinds - 1);
    gp.n_pi = 3;
    gp.n_po = 3;
    gp.seed = seed * 1000 + static_cast<std::uint64_t>(k) + 1 +
              (static_cast<std::uint64_t>(variant) << 48);
    FlowOptions fo;
    fo.seed = gp.seed;
    fo.threads = 1;
    EncodeOptions eo;
    eo.cluster = spec.mixed_cluster && k % 2 == 1 ? 2 : 1;
    LibraryKind kind;
    kind.grid = static_cast<int>(std::ceil(std::sqrt(gp.n_lut * 1.2))) + 1;
    kind.job = compile_job(spec.name + "_k" + std::to_string(k),
                           generate_netlist(gp), kind.grid, fo, eo, &kind.pipe);
    if (!kind.job.routed) {
      throw std::runtime_error("library kind " + kind.job.name +
                               " did not route");
    }
    times += kind.job.times;
    lib.push_back(std::move(kind));
  }
  return lib;
}

std::size_t library_footprint_bits(const std::vector<LibraryKind>& lib) {
  std::size_t bits = 0;
  for (const LibraryKind& k : lib) {
    bits += decode_stream(deserialize_vbs(k.job.stream))->footprint_bits();
  }
  return bits;
}

std::unique_ptr<Rig> set_up(const ServeSpec& spec, const RunConfig& cfg,
                            const std::string& journal_dir,
                            std::size_t per_tenant_ops) {
  auto rig = std::make_unique<Rig>();
  rig->library = compile_library(spec, cfg.seed, rig->compile_times);

  telem::Span span(kSpanCategory, "setup.server");
  std::vector<std::vector<Op>> schedules;
  std::vector<std::vector<std::string>> payloads;
  for (int t = 0; t < kTenants; ++t) {
    schedules.push_back(make_schedule(spec, cfg.seed, t, per_tenant_ops));
    std::vector<std::string> per_kind;
    for (const LibraryKind& k : rig->library) {
      per_kind.push_back(rpc::encode_load(t, k.job.stream));
    }
    payloads.push_back(std::move(per_kind));
  }

  ServiceOptions so;
  so.threads = 2;
  if (spec.cache_share > 0) {
    so.cache_capacity_bits = static_cast<std::size_t>(
        spec.cache_share *
        static_cast<double>(library_footprint_bits(rig->library)));
  }
  std::filesystem::remove_all(journal_dir);
  rig->service = std::make_unique<ReconfigService>(ArchSpec{}, spec.fabric,
                                                   spec.fabric, so);
  rig->service->open_journal(journal_dir);

  rpc::RpcServerOptions ro;
  ro.auth_seed = kAuthSeed;
  ro.auto_drain = true;
  rig->server = std::make_unique<rpc::RpcServer>(rig->service.get(), ro);
  const int port = rig->server->start();
  rig->client = std::make_unique<LoadClient>(std::move(schedules),
                                             std::move(payloads));
  rig->client->connect(port, kAuthSeed);
  return rig;
}

/// Re-decodes every live task's retained image at its origin and compares
/// the configuration memory over its rectangle. Returns "" when all match.
std::string check_live_tasks(const ReconfigService& svc) {
  const ReconfigController& ctl = svc.controller();
  const Fabric& fab = ctl.fabric();
  const std::size_t nraw = static_cast<std::size_t>(fab.spec().nraw_bits());
  for (const TaskId id : ctl.task_ids()) {
    const Rect r = ctl.record(id).rect;
    const BitVector img =
        devirtualize_image(ctl.image_of(id), fab, Point{r.x, r.y});
    for (int y = r.y; y < r.y + r.h; ++y) {
      for (int x = r.x; x < r.x + r.w; ++x) {
        const std::size_t off = fab.macro_config_offset(fab.macro_index(x, y));
        for (std::size_t b = 0; b < nraw; ++b) {
          if (img.get(off + b) != ctl.config_memory().get(off + b)) {
            return "task " + std::to_string(id) + " differs at macro (" +
                   std::to_string(x) + "," + std::to_string(y) + ")";
          }
        }
      }
    }
  }
  return "";
}

/// Replays the first kReplayRequests of the run offline, in service id
/// order, one submit + drain per request. Returns the mean seconds per
/// request.
double replay_offline(const ServeSpec& spec, const Rig& rig,
                      const std::string& journal_dir, bool& ids_match) {
  struct Item {
    long long id;
    Op op;
    long long target_id;
  };
  std::vector<Item> items;
  const LoadClient& cl = *rig.client;
  for (int t = 0; t < cl.tenants(); ++t) {
    const auto& sched = cl.schedules()[static_cast<std::size_t>(t)];
    const auto& recs = cl.records()[static_cast<std::size_t>(t)];
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i].service_id < 0) continue;
      const Op& op = sched[i];
      const long long target =
          op.target >= 0 ? recs[static_cast<std::size_t>(op.target)].service_id
                         : -1;
      items.push_back({recs[i].service_id, op, target});
    }
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.id < b.id; });
  if (items.size() > kReplayRequests) items.resize(kReplayRequests);

  ServiceOptions so = rig.service->options();
  ReconfigService svc(ArchSpec{}, spec.fabric, spec.fabric, so);
  if (!journal_dir.empty()) {
    std::filesystem::remove_all(journal_dir);
    svc.open_journal(journal_dir);
  }
  double total = 0.0;
  for (const Item& it : items) {
    telem::Span span(kSpanCategory, "service.replay_request");
    const double t0 = now_s();
    RequestId id = kNoRequest;
    switch (it.op.kind) {
      case RequestKind::kLoad:
        id = svc.submit_load(
            rig.library[static_cast<std::size_t>(it.op.kind_idx)].job.stream,
            0);
        break;
      case RequestKind::kUnload:
        id = svc.submit_unload(it.target_id, 0);
        break;
      case RequestKind::kRelocate:
        id = svc.submit_relocate(it.target_id, 0);
        break;
    }
    svc.drain();
    total += now_s() - t0;
    if (id != it.id) ids_match = false;
  }
  if (!journal_dir.empty()) std::filesystem::remove_all(journal_dir);
  return items.empty() ? 0.0 : total / static_cast<double>(items.size());
}

struct OpenLatency {
  std::vector<double> lat_ms, ack_ms, result_ms, late_ms;
  std::vector<std::pair<std::uint64_t, double>> by_due;  ///< (due, lat_ms)
};

/// The run's p99: the open loop is cut into consecutive windows of
/// kP99Window requests by due time, and the median of the windows' p99s is
/// reported, so one host stall moves one window rather than the run. With
/// fewer than two full windows it is the p99 of all samples.
constexpr std::size_t kP99Window = 1000;
double windowed_p99(std::vector<std::pair<std::uint64_t, double>> by_due) {
  std::sort(by_due.begin(), by_due.end());
  std::vector<double> all, window_p99;
  for (const auto& [due, lat] : by_due) all.push_back(lat);
  const std::size_t windows = all.size() / kP99Window;
  if (windows < 2) return percentile(all, 0.99);
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = all.begin() + static_cast<std::ptrdiff_t>(w * kP99Window);
    window_p99.push_back(percentile(
        std::vector<double>(first, first + static_cast<std::ptrdiff_t>(kP99Window)),
        0.99));
  }
  return median(window_p99);
}

/// Latency samples of the open-loop records sent from `first_due_ns` on.
OpenLatency open_latencies(const LoadClient& cl, std::uint64_t first_due_ns,
                           bool emit_spans) {
  OpenLatency out;
  for (int t = 0; t < cl.tenants(); ++t) {
    for (const OpRecord& r : cl.records()[static_cast<std::size_t>(t)]) {
      if (!r.open_loop || !r.sent || r.due_ns < first_due_ns) continue;
      out.late_ms.push_back(static_cast<double>(r.ready_ns - r.due_ns) * 1e-6);
      if (r.result_ns == 0 || r.ack_ns == 0) continue;
      out.lat_ms.push_back(static_cast<double>(r.result_ns - r.due_ns) * 1e-6);
      out.by_due.emplace_back(r.due_ns, out.lat_ms.back());
      out.ack_ms.push_back(static_cast<double>(r.ack_ns - r.due_ns) * 1e-6);
      out.result_ms.push_back(static_cast<double>(r.result_ns - r.ack_ns) * 1e-6);
      if (emit_spans) {
        // One lane per tenant connection: the request and its two hops.
        const std::uint64_t lane = 1000 + static_cast<std::uint64_t>(t);
        telem::emit_complete(telem::kPidWall, lane, r.due_ns,
                             r.result_ns - r.due_ns, kSpanCategory,
                             "rpc.request");
        telem::emit_complete(telem::kPidWall, lane, r.due_ns,
                             r.ack_ns - r.due_ns, kSpanCategory, "rpc.ack");
        telem::emit_complete(telem::kPidWall, lane, r.ack_ns,
                             r.result_ns - r.ack_ns, kSpanCategory,
                             "rpc.result");
      }
    }
  }
  return out;
}

double counter_of(const telem::MetricsSnapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double hist_sum(const telem::MetricsSnapshot& s, const char* name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

/// The whole serve run. `probe` runs inside another workload's traced run:
/// it records no end-to-end metrics.
void serve_run(const ServeSpec& spec, const RunConfig& cfg, double seconds,
               bool probe, Report& rep) {
  const std::string base = cfg.work_dir + "/" + spec.name + "_" +
                           std::to_string(::getpid());
  const std::string journal_dir = base + "/journal";
  const double open_s = seconds * spec.open_share;
  const double closed_s = seconds - open_s;
  const auto open_count = static_cast<long long>(spec.rate_rps * open_s);
  const std::size_t per_tenant =
      static_cast<std::size_t>(open_count / kTenants + 1) +
      static_cast<std::size_t>(spec.peak_guess_rps * closed_s * 3 / kTenants) +
      static_cast<std::size_t>(spec.window);

  // Set-up, several times; in a traced run only the last one is traced,
  // the earlier ones are the untraced reference for the compile overhead.
  std::vector<double> setup_times, lib_compile_s;
  std::unique_ptr<Rig> rig;
  for (int r = 0; r < spec.setup_reps; ++r) {
    rig.reset();  // tear the previous set-up down outside the timing
    const bool tracing = cfg.trace && r == spec.setup_reps - 1;
    telem::set_enabled(tracing);
    const double t0 = now_s();
    rig = set_up(spec, cfg, journal_dir, per_tenant);
    setup_times.push_back(now_s() - t0);
    if (!tracing) lib_compile_s.push_back(rig->compile_times.total_s);
  }
  LoadClient& client = *rig->client;

  // Probe rounds, one before each slice of the open loop, so that their
  // samples spread over the whole run (the host's speed swings from second
  // to second). Round r compiles library variant r (a compile_s sample;
  // variant 0 is the served library and must come out byte-identical),
  // then loads every stream of it through fresh controllers, in passes,
  // for at least kProbeRoundSeconds; each round's first pass also verifies
  // connectivity. A kind's decode time is the median of its passes. The
  // variants spread the decode and compile samples over spec.rounds times
  // as many netlists as one library holds: one library's kinds differ in
  // decode time by 2-3x, so a single library would make the seed, not the
  // program, set decode_mbps. The open loop runs in spec.rounds slices with
  // the server idle in between; a traced run sends the first half of the
  // slices untraced (the overhead reference) and traces the rest and the
  // closed loop.
  double decode_bits = 0.0, decode_s = 0.0;
  std::vector<double> round_nodes_per_s, round_pass_s, round_compile_s;
  std::string verify_error;
  bool served_identical = true;
  auto probe_round = [&](int r) {
    telem::Span span(kSpanCategory, "probe.round");
    StageTimes times;
    std::vector<LibraryKind> lib = compile_library(spec, cfg.seed, times, r);
    round_compile_s.push_back(times.total_s);
    if (r == 0) {
      for (std::size_t k = 0; k < lib.size(); ++k) {
        served_identical &= lib[k].job.stream == rig->library[k].job.stream;
      }
    }
    std::vector<std::vector<double>> samples(lib.size());
    double round_s = 0.0, round_nodes = 0.0;
    int passes = 0;
    for (; passes == 0 || round_s < kProbeRoundSeconds; ++passes) {
      for (std::size_t k = 0; k < lib.size(); ++k) {
        LibraryKind& kind = lib[k];
        const LoadCheck lc = load_and_verify(kind.job.stream, *kind.pipe,
                                             ArchSpec{}, kind.grid,
                                             passes == 0);
        round_s += lc.load_s;
        round_nodes += static_cast<double>(lc.decode.nodes_expanded);
        samples[k].push_back(lc.load_s);
        if (passes == 0) decode_bits += static_cast<double>(lc.raw_bits);
        if (!lc.error.empty() && verify_error.empty()) {
          verify_error = kind.job.name + ": " + lc.error;
        }
      }
    }
    for (const std::vector<double>& v : samples) decode_s += median(v);
    round_nodes_per_s.push_back(round_nodes / round_s);
    round_pass_s.push_back(round_s / passes);
  };

  std::vector<PhaseStats> phases;
  std::uint64_t traced_from_ns = 0;
  telem::MetricsSnapshot before;
  const int traced_from_round = cfg.trace ? spec.rounds / 2 : spec.rounds;
  long long open_sent = 0;
  for (int r = 0; r < spec.rounds; ++r) {
    if (r == traced_from_round) {
      telem::set_enabled(true);
      before = telem::snapshot();
      traced_from_ns = telem::now_ns();
    } else if (r == 0) {
      telem::set_enabled(false);
    }
    probe_round(r);
    const long long slice = open_count * (r + 1) / spec.rounds - open_sent;
    open_sent += slice;
    telem::Span span(kSpanCategory, "serve.open");
    phases.push_back(client.run_open(slice, spec.rate_rps, 5.0));
  }
  rep.gate(verify_error.empty(),
           "every library stream loads and passes verify_connectivity" +
               (verify_error.empty() ? "" : " (" + verify_error + ")"));
  rep.gate(served_identical,
           "recompiling the served library gives byte-identical streams");
  PhaseStats closed;
  {
    telem::Span span(kSpanCategory, "serve.closed");
    closed = client.run_closed(spec.window, closed_s, 5.0);
  }
  phases.push_back(closed);
  double ping_us = 0.0;
  {
    telem::Span span(kSpanCategory, "rpc.ping");
    ping_us = client.ping_us(200);
  }
  const telem::MetricsSnapshot after = telem::snapshot();
  const rpc::ServerCounters sc = rig->server->counters();
  rig->stop();

  // --- accounting ----------------------------------------------------------
  PhaseStats total;
  for (const PhaseStats& p : phases) {
    total.sent += p.sent;
    total.results += p.results;
    total.done += p.done;
    total.door_sheds += p.door_sheds;
    total.wire_errors += p.wire_errors;
    total.unfinished += p.unfinished;
  }
  rep.gate(total.unfinished == 0 &&
               total.sent == total.results + total.door_sheds + total.wire_errors,
           "requests sent == results + door sheds + wire errors (" +
               std::to_string(total.sent) + " = " +
               std::to_string(total.results) + " + " +
               std::to_string(total.door_sheds) + " + " +
               std::to_string(total.wire_errors) + ", unfinished " +
               std::to_string(total.unfinished) + ")");
  long long over_limit = 0;
  double max_lat_ms = 0.0;
  for (int t = 0; t < client.tenants(); ++t) {
    for (const OpRecord& r : client.records()[static_cast<std::size_t>(t)]) {
      if (!r.open_loop || r.result_ns == 0) continue;
      const double lat = static_cast<double>(r.result_ns - r.due_ns) * 1e-6;
      max_lat_ms = std::max(max_lat_ms, lat);
      if (lat > spec.latency_limit_ms) ++over_limit;
    }
  }
  rep.attempted += total.sent;
  rep.failed += (total.results - total.done) + total.door_sheds +
                total.wire_errors + total.unfinished + over_limit;
  rep.note(spec.name + ".failed_by_cause",
           "{\"not_done\": " + std::to_string(total.results - total.done) +
               ", \"over_limit\": " + std::to_string(over_limit) +
               ", \"door_sheds\": " + std::to_string(total.door_sheds) +
               ", \"wire_errors\": " + std::to_string(total.wire_errors) +
               ", \"unfinished\": " + std::to_string(total.unfinished) + "}");
  rep.note(spec.name + ".max_lat_ms", std::to_string(max_lat_ms));

  const ReconfigService& svc = *rig->service;
  const DecodedStreamCache& cache = svc.cache();
  const double lookups = static_cast<double>(cache.hits() + cache.misses());
  const double hit_rate =
      lookups > 0 ? static_cast<double>(cache.hits()) / lookups : 0.0;
  rep.gate(hit_rate >= spec.hit_min && hit_rate <= spec.hit_max,
           spec.name + " cache hit rate " + std::to_string(hit_rate) +
               " within [" + std::to_string(spec.hit_min) + ", " +
               std::to_string(spec.hit_max) + "]");

  const OpenLatency all = open_latencies(client, 0, false);
  const double late_p99 = percentile(all.late_ms, 0.99);
  rep.gate(late_p99 <= spec.max_gen_late_ms,
           "generator p99 lateness " + std::to_string(late_p99) +
               " ms <= " + std::to_string(spec.max_gen_late_ms) + " ms");

  const std::string live_error = check_live_tasks(svc);
  rep.gate(live_error.empty(),
           "re-decoding every live task reproduces its rectangle" +
               (live_error.empty() ? "" : " (" + live_error + ")"));

  double recover_s = 0.0;
  {
    telem::Span span(kSpanCategory, "journal.recover");
    const double t0 = now_s();
    const auto recovered = ReconfigService::recover(journal_dir, 2);
    recover_s = now_s() - t0;
    rep.gate(recovered->state_fingerprint() == svc.state_fingerprint(),
             "journal recovery reproduces the live state fingerprint");
  }

  // --- end-to-end metrics --------------------------------------------------
  const OpenLatency measured = open_latencies(client, traced_from_ns, false);
  if (!probe) {
    rep.metric("setup_s", median(setup_times), "s");
    rep.metric("compile_s", median(round_compile_s), "s");
    double vbs_bits = 0.0, enc_raw = 0.0;
    for (const LibraryKind& k : rig->library) {
      vbs_bits += static_cast<double>(k.job.encode.vbs_bits);
      enc_raw += static_cast<double>(k.job.encode.raw_bits);
    }
    rep.metric("vbs_ratio", vbs_bits / enc_raw, "ratio");
    // Raw bits of every probed stream over the sum of their median load
    // times.
    rep.metric("decode_mbps", decode_bits / decode_s * 1e-6, "Mbit/s");
  }
  // Request latency and saturation throughput are per-layer metrics: on the
  // shared host they drift by 30-50 % between sets of runs (README.md), too
  // far for an end-to-end bound of at most 25 %.
  const double lat_p50 = percentile(measured.lat_ms, 0.5);
  const double lat_p99 = windowed_p99(measured.by_due);
  const double peak = static_cast<double>(closed.in_window) / closed_s;
  rep.metric("rpc.lat_p50_ms", lat_p50, "ms");
  rep.metric("rpc.lat_p99_ms", lat_p99, "ms");
  rep.metric("rpc.peak_rps", peak, "1/s");
  rep.note(spec.name + ".lat_samples", std::to_string(measured.lat_ms.size()));
  rep.note(spec.name + ".offered_rps", std::to_string(spec.rate_rps));
  rep.note(spec.name + ".latency_limit_ms",
           std::to_string(spec.latency_limit_ms));
  std::fprintf(stderr,
               "perfbench: %s sent %lld, p50 %.3f ms, p99 %.3f ms, peak %.0f/s,"
               " hit rate %.3f, recover %.3f s, late p50/p99/max %.3f/%.3f/%.3f"
               " ms\n",
               spec.name.c_str(), total.sent, lat_p50, lat_p99, peak, hit_rate,
               recover_s, percentile(all.late_ms, 0.5), late_p99,
               percentile(all.late_ms, 1.0));

  if (!cfg.trace) {
    std::filesystem::remove_all(base);
    return;
  }

  // --- per-layer metrics (traced run) --------------------------------------
  if (!probe) {
    const StageTimes& st = rig->compile_times;  // the traced set-up
    rep.metric("flow.pack_s", st.pack_s, "s");
    rep.metric("flow.place_s", st.place_s, "s");
    rep.metric("flow.route_s", st.route_s, "s");
    rep.metric("flow.encode_s", st.encode_s, "s");
    rep.metric("fabric.build_s", st.fabric_s, "s");
    double moves = 0, pops = 0, iters = 0, entries = 0, raw_e = 0, reord = 0;
    for (const LibraryKind& k : rig->library) {
      moves += static_cast<double>(k.job.place.moves);
      pops += static_cast<double>(k.job.heap_pops);
      iters += k.job.route_iterations;
      entries += k.job.encode.entries;
      raw_e += k.job.encode.raw_entries;
      reord += k.job.encode.reordered_entries;
    }
    rep.metric("place.moves_per_s", moves / st.place_s, "1/s");
    rep.metric("route.pops_per_s", pops / st.route_s, "1/s");
    rep.metric("route.heap_pops", pops, "count");
    rep.metric("route.iterations", iters, "count");
    rep.metric("vbs.encode_raw_frac", raw_e / entries, "ratio");
    rep.metric("vbs.encode_reorder_frac", reord / entries, "ratio");
    // One load of the whole library, and the expansion rate, over the
    // probe's rounds (medians).
    rep.metric("rtc.load_s", median(round_pass_s), "s");
    rep.metric("vbs.decode_nodes_per_s", median(round_nodes_per_s), "1/s");
    rep.metric("trace.overhead_compile_s",
               st.total_s - median(lib_compile_s), "s");
  }
  const ServiceStats& ss = svc.stats();
  rep.metric("service.cache_hit_rate", hit_rate, "ratio");
  rep.metric("service.cold_loads", static_cast<double>(ss.cold_loads), "count");
  rep.metric("service.evictions", static_cast<double>(cache.evictions()),
             "count");
  rep.metric("service.relocates_decoded",
             static_cast<double>(ss.relocates_decoded), "count");
  rep.metric("service.batch_loads",
             ss.batches > 0 ? static_cast<double>(ss.cold_loads) /
                                  static_cast<double>(ss.batches)
                            : 0.0,
             "count");
  // Controller decodes of the whole traced run (the probe rounds' loads;
  // the service's batch decodes do not record into this histogram and are
  // service.decode_batch_s instead).
  rep.metric("rtc.decode_busy_s", hist_sum(after, "rtc.decode.seconds"), "s");
  // Requests sent while tracing was on: the traced open slices and the
  // closed loop.
  double traced_reqs = 0.0;
  for (std::size_t i = static_cast<std::size_t>(traced_from_round);
       i < phases.size(); ++i) {
    traced_reqs += static_cast<double>(phases[i].sent);
  }
  rep.metric("journal.syncs_per_req",
             (counter_of(after, "io.sync.ops") -
              counter_of(before, "io.sync.ops")) / traced_reqs,
             "count");
  rep.metric("journal.bytes_per_req",
             (counter_of(after, "journal.append.bytes") -
              counter_of(before, "journal.append.bytes")) / traced_reqs,
             "B");
  rep.metric("rpc.ping_us", ping_us, "us");
  rep.metric("rpc.ack_ms", mean(measured.ack_ms), "ms");
  rep.metric("rpc.result_ms", mean(measured.result_ms), "ms");
  rep.metric("server.door_sheds", static_cast<double>(sc.door_sheds), "count");
  rep.metric("server.reads_paused", static_cast<double>(sc.reads_paused),
             "count");
  rep.metric("server.frames_in", static_cast<double>(sc.frames_in), "count");
  rep.metric("server.frames_out", static_cast<double>(sc.frames_out), "count");
  rep.metric("gen.late_ms", late_p99, "ms");
  rep.metric("journal.recover_s", recover_s, "s");
  const OpenLatency untraced_half = [&] {
    OpenLatency u;
    for (int t = 0; t < client.tenants(); ++t) {
      for (const OpRecord& r : client.records()[static_cast<std::size_t>(t)]) {
        if (r.open_loop && r.result_ns != 0 && r.due_ns < traced_from_ns) {
          u.lat_ms.push_back(static_cast<double>(r.result_ns - r.due_ns) * 1e-6);
        }
      }
    }
    return u;
  }();
  rep.metric("trace.overhead_lat_p50_ms",
             percentile(measured.lat_ms, 0.5) -
                 percentile(untraced_half.lat_ms, 0.5),
             "ms");
  open_latencies(client, traced_from_ns, /*emit_spans=*/true);

  // Offline replay of the run's request sequence, with and without the
  // journal: the service's own time per request and the journal's share.
  bool ids_match = true;
  double journaled = 0.0, plain = 0.0;
  {
    telem::Span span(kSpanCategory, "service.replay");
    journaled = replay_offline(spec, *rig, base + "/replay_journal", ids_match);
    plain = replay_offline(spec, *rig, "", ids_match);
  }
  rep.gate(ids_match, "offline replay reproduces the live request ids");
  rep.metric("service.drain_ms", journaled * 1e3, "ms");
  rep.metric("journal.share", journaled > 0 ? (journaled - plain) / journaled : 0.0,
             "ratio");
  telem::set_enabled(false);
  std::filesystem::remove_all(base);
}

}  // namespace

void serve_probe(const RunConfig& cfg, Report& rep) {
  serve_run(spec_for("serve_hot"), cfg, 2.5, /*probe=*/true, rep);
}

void run_serve(const RunConfig& cfg, Report& rep) {
  serve_run(spec_for(cfg.workload), cfg, cfg.seconds, /*probe=*/false, rep);
  if (!cfg.trace) {
    rep.metric("rss_mb", peak_rss_mb(), "MB");
    return;
  }
  rep.metric("rss_mb", peak_rss_mb(), "MB");
  const std::vector<telem::TraceEvent> events = telem::take_trace();
  serve_trace_metrics(events, rep);
  // The library compile of the traced set-up against its measured time.
  const SpanTimes st = span_times(events, kSpanCategory);
  const double job_total =
      st.total_s.count("compile.job") ? st.total_s.at("compile.job") : 0.0;
  const double job_self =
      st.self_s.count("compile.job") ? st.self_s.at("compile.job") : 0.0;
  const double residual = job_total > 0 ? job_self / job_total : 1.0;
  rep.metric("trace.compile_residual", residual, "ratio");
  rep.gate(residual <= kCompileReconcileTolerance,
           "traced stage self-times sum to the library compile time within " +
               std::to_string(kCompileReconcileTolerance));
  write_chrome_trace(cfg, events);
}

void serve_trace_metrics(const std::vector<telem::TraceEvent>& events,
                         Report& rep) {
  double request = 0.0, hops = 0.0, batch = 0.0;
  for (const telem::TraceEvent& ev : events) {
    const double d = static_cast<double>(ev.dur_ns) * 1e-9;
    if (ev.phase == 'X' && ev.category == kSpanCategory) {
      if (ev.name == "rpc.request") request += d;
      if (ev.name == "rpc.ack" || ev.name == "rpc.result") hops += d;
    }
  }
  const SpanTimes svc = span_times(events, "service");
  if (svc.total_s.count("decode_batch")) batch = svc.total_s.at("decode_batch");
  const double residual = request > 0 ? std::abs(request - hops) / request : 1.0;
  rep.metric("trace.latency_residual", residual, "ratio");
  rep.gate(residual <= kLatencyReconcileTolerance,
           "rpc.ack_ms + rpc.result_ms sum to the request latency within " +
               std::to_string(kLatencyReconcileTolerance));
  rep.metric("service.decode_batch_s", batch, "s");
}

void write_chrome_trace(const RunConfig& cfg,
                        const std::vector<telem::TraceEvent>& events) {
  const std::string path =
      cfg.work_dir + "/trace_" + cfg.workload + ".json";
  telem::write_trace_file(path, events);
  std::fprintf(stderr, "perfbench: wrote %s (%zu events)\n", path.c_str(),
               events.size());
}

}  // namespace perfbench
