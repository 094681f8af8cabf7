// Trace-driven benchmark of the multi-tenant reconfiguration service: the
// online-workload counterpart of flow_bench. bench/README.md documents
// every leg and the JSON schema (vbs.rtc_bench.v6); BENCH_rtc.json at the
// repo root is the committed trajectory.
//
// Each trace's task library is built once through the offline flow, then
// the legs replay traces against a ReconfigService tick by tick:
//   classic   the steady/bursty/diurnal/churn suite (or a --trace file),
//             warm @ --threads (the headline), cold (cache capacity 0:
//             same final config, >= 10x the decode nodes on the full
//             suite) and warm @ 1 and @ 2 (byte-identical replays);
//   overload  flash_crowd and unique_flood with a bounded queue,
//             deadlines, tenant priorities and a fault plan: identical at
//             every thread count, the high-priority tenant 0 never shed,
//             the flood shed, and tenant 0's modeled p99 at or below the
//             flood's;
//   recovery  the overload traces journaled, then rebuilt from the
//             journal alone: journaling is transparent and recovery
//             fingerprints identically;
//   breakdown the overload traces with the trace buffer sliced: every
//             result tiles latency == queue_wait + backoff + spike + exec
//             and the modeled-tick spans sum to TenantStats per tenant;
//   server    the flash_crowd trace through a journaled in-process
//   replay    RpcServer via one admin session (a DRAIN per tick group):
//             the served and recovered fingerprints equal the offline
//             replay's. Wall-clock latency over the wire is perfbench's
//             job (serve_hot / serve_cold), not this harness's.
//
// Verdicts: each leg records the checks it failed, with a reason, where it
// runs. The tables' ok columns, the JSON's per-leg and summary flags and
// the stderr FAIL lines all read those lists, so the run exits 1 exactly
// when a summary flag is false. The telemetry registry is always on here
// (the JSON embeds its counters); no check depends on it.
//
// Standalone network modes (all errors exit typed — exit_code_for(code),
// --json prints {"error": {"code", "errc", "message"}} on stdout):
//   --serve         front a fresh service on a loopback socket until an
//                   admin SHUTDOWN frame stops it;
//   --connect       admin-connect to a running server: ping + stat, or a
//                   graceful remote shutdown with --shutdown;
//   --server-smoke  the CI loopback gate: an in-process server over the
//                   --serve service (a bounded queue and deadlines, so
//                   requests shed and expire), an N-connection closed
//                   loop and a remote shutdown; exit 0 only when every
//                   request is accounted for and the server stops cleanly.
//
// Usage:
//   rtc_bench [--smoke] [--trace FILE] [--policy P] [--threads T]
//             [--cache-bits N] [--events N] [--ticks K] [--seed S]
//             [--queue-limit N] [--deadline T] [--faults SPEC]
//             [--trace-out trace.json] [--metrics] [--out PATH] [--json]
//   rtc_bench --serve [--port N] [--port-file F] [--auth-seed S]
//   rtc_bench --connect --port N [--shutdown] [--auth-seed S] [--json]
//   rtc_bench --server-smoke [--connections N] [--events N]
//   (--serve and --server-smoke also take --threads, --queue-limit and
//   --deadline for the served service.)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "flow/flow.h"
#include "netlist/generator.h"
#include "rtc/server/client.h"
#include "rtc/server/server.h"
#include "rtc/service/service.h"
#include "rtc/service/trace.h"
#include "util/build_info.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/table.h"
#include "vbs/encoder.h"

using namespace vbs;

namespace {

/// Offline flow per distinct task recipe, shared across traces.
class StreamLibrary {
 public:
  explicit StreamLibrary(const ArchSpec& arch) : arch_(arch) {}

  const BitVector& stream_for(const TraceTaskKind& kind) {
    const auto key = std::make_tuple(kind.n_lut, kind.grid, kind.seed,
                                     kind.cluster);
    const auto it = streams_.find(key);
    if (it != streams_.end()) return it->second;
    GenParams gp;
    gp.n_lut = kind.n_lut;
    gp.n_pi = 3;
    gp.n_po = 3;
    gp.seed = kind.seed;
    FlowOptions opts;
    opts.arch = arch_;
    opts.seed = kind.seed;
    FlowResult flow =
        run_flow(generate_netlist(gp), kind.grid, kind.grid, opts);
    if (!flow.routed()) {
      throw std::runtime_error("library task unroutable: " + kind.name);
    }
    EncodeOptions eo;
    eo.cluster = kind.cluster;
    BitVector stream =
        serialize_vbs(encode_vbs(*flow.fabric, flow.netlist, flow.packed,
                                 flow.placement, flow.routing.routes, eo));
    return streams_.emplace(key, std::move(stream)).first->second;
  }

 private:
  ArchSpec arch_;
  std::map<std::tuple<int, int, std::uint64_t, int>, BitVector> streams_;
};

struct Replay {
  ServiceStats stats;
  BitVector config;
  std::vector<EvictionEvent> evictions;
  std::vector<double> load_latencies;  ///< seconds, committed loads only
  long long done = 0, rejected = 0, failed = 0;
  long long shed = 0, deadline_misses = 0;
  double drain_seconds = 0.0;
  double frag_sum = 0.0;
  int frag_samples = 0;
  double frag_final = 0.0;
  double occupancy_final = 0.0;
  long long cache_hits = 0, cache_misses = 0;
  long long cache_insertions = 0, cache_evictions = 0;
  std::size_t cache_size_bits = 0;
  /// Per-request outcome stream (admission order per drain), for replay
  /// equality across thread counts: status and modeled latency of every
  /// request.
  std::vector<int> statuses;
  std::vector<long long> latency_ticks;
  /// Modeled-tick latencies of committed loads, by tenant.
  std::map<int, std::vector<double>> tenant_done_ticks;
  std::map<int, TenantStats> tenants;
  /// Every result satisfied latency == queue_wait + backoff + spike + exec.
  bool tick_identity_ok = true;

  double hit_rate() const {
    const long long lookups = cache_hits + cache_misses;
    return lookups > 0 ? static_cast<double>(cache_hits) / lookups : 0.0;
  }
  double frag_avg() const {
    return frag_samples > 0 ? frag_sum / frag_samples : 0.0;
  }
};

/// Walks a trace one tick group at a time: every event of the group goes
/// to `submit(event, stream, ref)` — the stream of a load, or the request
/// an unload/relocate refers to — which returns its request id, then
/// `drain()` runs. The offline replay and its wire twin share this walk.
template <class Submit, class Drain>
void walk_trace(const Trace& trace, StreamLibrary& lib, Submit submit,
                Drain drain) {
  std::vector<RequestId> request_of_event(trace.events.size(), kNoRequest);
  std::size_t next = 0;
  while (next < trace.events.size()) {
    const int tick = trace.events[next].tick;
    for (; next < trace.events.size() && trace.events[next].tick == tick;
         ++next) {
      const TraceEvent& e = trace.events[next];
      const BitVector* stream = nullptr;
      RequestId ref = kNoRequest;
      if (e.kind == TraceEvent::Kind::kLoad) {
        stream = &lib.stream_for(
            trace.kinds[static_cast<std::size_t>(e.task_kind)]);
      } else {
        ref = request_of_event[static_cast<std::size_t>(e.ref)];
      }
      request_of_event[next] = submit(e, stream, ref);
    }
    drain();
  }
}

Replay replay_trace(const Trace& trace, StreamLibrary& lib,
                    const ArchSpec& arch, const ServiceOptions& opts,
                    const std::map<int, int>& priorities = {},
                    const std::string& journal_dir = {},
                    std::uint64_t* fingerprint_out = nullptr) {
  ReconfigService svc(arch, trace.fabric_w, trace.fabric_h, opts);
  // The journal must attach before any journaled mutation — priority
  // assignments included — so recovery replays the whole run.
  if (!journal_dir.empty()) svc.open_journal(journal_dir);
  for (const auto& [tenant, prio] : priorities) {
    svc.set_tenant_priority(tenant, prio);
  }
  Replay out;
  // Everything that arrives in a tick is admitted, then the service drains
  // the queue — the batching the bursty pattern exists to exercise.
  const auto submit = [&](const TraceEvent& e, const BitVector* stream,
                          RequestId ref) {
    switch (e.kind) {
      case TraceEvent::Kind::kLoad: return svc.submit_load(*stream, e.tenant);
      case TraceEvent::Kind::kUnload: return svc.submit_unload(ref, e.tenant);
      case TraceEvent::Kind::kRelocate: break;
    }
    return svc.submit_relocate(ref, e.tenant);
  };
  walk_trace(trace, lib, submit, [&] {
    const std::uint64_t t0 = telem::now_ns();
    const std::vector<RequestResult> results = svc.drain();
    out.drain_seconds += telem::seconds_since(t0);
    for (const RequestResult& r : results) {
      switch (r.status) {
        case RequestStatus::kDone: ++out.done; break;
        case RequestStatus::kRejected: ++out.rejected; break;
        case RequestStatus::kFailed: ++out.failed; break;
        case RequestStatus::kShed: ++out.shed; break;
        case RequestStatus::kDeadline: ++out.deadline_misses; break;
        case RequestStatus::kQueued: break;
      }
      if (r.kind == RequestKind::kLoad && r.status == RequestStatus::kDone) {
        out.load_latencies.push_back(r.latency_seconds);
        out.tenant_done_ticks[r.tenant].push_back(
            static_cast<double>(r.latency_ticks));
      }
      out.statuses.push_back(static_cast<int>(r.status));
      out.latency_ticks.push_back(r.latency_ticks);
      out.tick_identity_ok &=
          r.latency_ticks == r.queue_wait_ticks + r.backoff_ticks +
                                 r.spike_ticks + r.exec_ticks;
    }
    out.frag_sum += svc.fragmentation();
    ++out.frag_samples;
  });

  out.stats = svc.stats();
  out.config = svc.controller().config_memory();
  out.evictions = svc.eviction_log();
  out.frag_final = svc.fragmentation();
  out.occupancy_final = svc.controller().occupancy();
  out.cache_hits = svc.cache().hits();
  out.cache_misses = svc.cache().misses();
  out.cache_insertions = svc.cache().insertions();
  out.cache_evictions = svc.cache().evictions();
  out.cache_size_bits = svc.cache().size_bits();
  out.tenants = svc.tenant_stats();
  if (fingerprint_out != nullptr) *fingerprint_out = svc.state_fingerprint();
  return out;
}

bool same_evictions(const std::vector<EvictionEvent>& a,
                    const std::vector<EvictionEvent>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const EvictionEvent& x, const EvictionEvent& y) {
                      return x.seq == y.seq && x.task == y.task &&
                             x.rect == y.rect && x.cause == y.cause;
                    });
}

/// One check a leg failed: the JSON flag it clears and the reason the
/// stderr FAIL line prints.
struct Failure {
  const char* flag;
  std::string reason;
};

/// A leg's verdict, decided once where the leg runs: every table ok
/// column, JSON flag and FAIL line reads this list.
struct Verdict {
  std::vector<Failure> failures;

  void check(bool held, const char* flag, std::string reason) {
    if (!held) failures.push_back({flag, std::move(reason)});
  }
  bool ok() const { return failures.empty(); }
  /// No failed check cleared `flag`.
  bool ok(std::string_view flag) const {
    return std::none_of(failures.begin(), failures.end(),
                        [&](const Failure& f) { return f.flag == flag; });
  }
};

struct TraceRecord {
  Trace trace;
  Replay warm;       ///< headline run at --threads
  long long cold_nodes = 0;
  double p50_ms = 0.0, p99_ms = 0.0, max_ms = 0.0;
  double throughput = 0.0;
  Verdict verdict;   ///< "identical", "warm_equals_cold_config"
};

/// One adversarial overload leg: bounded queue + deadlines + priorities +
/// fault plan. No cold comparison (the fault plan's decode faults key off
/// cache misses by design), but the replay must still be byte-identical
/// across thread counts — statuses and tick latencies included.
struct OverloadRecord {
  Trace trace;
  Replay run;
  /// p50/p99 of committed-load latency in modeled ticks, per tenant.
  std::map<int, std::pair<double, double>> tick_percentiles;
  Verdict verdict;   ///< "determinism_ok", "qos_ok"
};

/// One crash-recovery leg: an overload trace replayed with a write-ahead
/// journal attached, then a service rebuilt from the journal directory
/// alone.
struct RecoveryRecord {
  Trace trace;
  ReconfigService::RecoveryInfo info;
  double baseline_seconds = 0.0;   ///< drain time, no journal
  double journaled_seconds = 0.0;  ///< drain time with the journal attached
  double recover_seconds = 0.0;    ///< rebuild-from-journal wall time
  double replay_rps = 0.0;         ///< WAL records replayed per second
  Verdict verdict;  ///< "journal_transparent", "fingerprint_ok"
};

/// The latency-decomposition leg (new in v4): one more overload replay
/// with the trace-event buffer sliced around it, so the modeled-tick spans
/// can be summed per tenant and compared against TenantStats.
struct BreakdownRecord {
  Trace trace;
  Replay run;
  Verdict verdict;  ///< "identity_ok", "spans_match_stats", "event_pairing_ok"
};

/// The server-replay determinism leg: a journaled wire replay through one
/// admin session vs the offline replay of the same trace, fingerprints
/// compared live and after a cold recovery from the server's journal.
struct ServerReplayRecord {
  Trace trace;
  std::uint64_t offline_fp = 0, wire_fp = 0, recovered_fp = 0;
  double wall_seconds = 0.0;
  long long wire_results = 0;
  Verdict verdict;  ///< "wire_matches_offline", "recover_matches_offline"
};

/// The classic suite's totals, computed once. The decode-node ratio is the
/// cache headline; its floor is the suite-level check.
struct Totals {
  long long events = 0, warm_nodes = 0, cold_nodes = 0, evictions = 0;
  long long hits = 0, lookups = 0;
  double seconds = 0.0;
  double ratio = 0.0, ratio_floor = 0.0;
  Verdict verdict;  ///< "decode_ratio_ok"
};

/// Every leg of one run.
struct Suite {
  std::vector<TraceRecord> traces;
  std::vector<OverloadRecord> overload;
  std::vector<RecoveryRecord> recovery;
  std::vector<BreakdownRecord> breakdown;
  std::vector<ServerReplayRecord> server_replay;
  Totals totals;
};

template <class Record>
bool all_ok(const std::vector<Record>& recs, const char* flag = nullptr) {
  return std::all_of(recs.begin(), recs.end(), [&](const Record& r) {
    return flag == nullptr ? r.verdict.ok() : r.verdict.ok(flag);
  });
}

/// The summary flags, each the conjunction of its legs' verdicts. Together
/// they cover every check, so the run exits 1 exactly when one is false.
std::vector<std::pair<const char*, bool>> summary_flags(const Suite& s) {
  return {{"determinism_ok", all_ok(s.traces, "identical")},
          {"warm_equals_cold_ok", all_ok(s.traces, "warm_equals_cold_config")},
          {"decode_ratio_ok", s.totals.verdict.ok()},
          {"overload_ok", all_ok(s.overload)},
          {"recovery_ok", all_ok(s.recovery)},
          {"breakdown_ok", all_ok(s.breakdown)},
          {"server_replay_ok", all_ok(s.server_replay)}};
}

/// `"flag": true|false` for a per-leg JSON flag read from its verdict.
std::string flag_json(const Verdict& v, const char* flag) {
  return std::string("\"") + flag + "\": " + (v.ok(flag) ? "true" : "false");
}

/// Replays a trace through an admin RpcClient: the same walk as
/// replay_trace, with a DRAIN frame at each tick-group boundary (the
/// server runs auto_drain=false, so drains happen only at the barriers —
/// the wire twin of the offline replay loop). Returns the result count.
long long admin_wire_replay(int port, std::uint64_t auth_seed,
                            const Trace& trace, StreamLibrary& lib,
                            const std::map<int, int>& priorities) {
  rpc::RpcClientOptions copts;
  copts.port = port;
  copts.tenant = rpc::kAdminTenant;
  copts.auth_seed = auth_seed;
  rpc::RpcClient admin(copts);
  for (const auto& [tenant, prio] : priorities) {
    admin.set_priority(tenant, prio);
  }
  long long results = 0;
  const auto submit = [&](const TraceEvent& e, const BitVector* stream,
                          RequestId ref) {
    switch (e.kind) {
      case TraceEvent::Kind::kLoad: return admin.send_load(*stream, e.tenant);
      case TraceEvent::Kind::kUnload: return admin.send_unload(ref, e.tenant);
      case TraceEvent::Kind::kRelocate: break;
    }
    return admin.send_relocate(ref, e.tenant);
  };
  walk_trace(trace, lib, submit, [&] {
    results += static_cast<long long>(admin.drain().size());
  });
  return results;
}

/// Prints a typed failure (--json object on stdout, or a stderr line) and
/// returns the CLI exit code for it — the same contract vbsdecode uses.
int typed_exit(const VbsError& e, bool json) {
  if (json) {
    std::printf(
        "{\n  \"error\": {\"code\": \"%s\", \"errc\": %d, "
        "\"message\": \"%s\"}\n}\n",
        to_string(e.code()), static_cast<int>(e.code()),
        json_escape(e.what()).c_str());
  } else {
    std::fprintf(stderr, "rtc_bench: %s [%s]\n", e.what(),
                 to_string(e.code()));
  }
  return exit_code_for(e.code());
}

/// The service behind --serve and --server-smoke: the overload legs'
/// bounded queue and deadlines, without their fault plan.
ServiceOptions served_options(const CliArgs& args) {
  ServiceOptions so;
  so.threads = static_cast<int>(args.int_or("--threads", 2));
  so.queue_limit = static_cast<std::size_t>(args.int_or("--queue-limit", 8));
  so.deadline_ticks = args.int_or("--deadline", 12);
  return so;
}

/// --serve: front a fresh service on a loopback socket until an admin
/// session sends SHUTDOWN.
int run_serve(const CliArgs& args, bool json) {
  try {
    ArchSpec arch;
    arch.chan_width = 8;
    ReconfigService svc(arch, 16, 12, served_options(args));
    rpc::RpcServerOptions sopts;
    sopts.port = static_cast<int>(args.int_or("--port", 0));
    sopts.auth_seed =
        static_cast<std::uint64_t>(args.int_or("--auth-seed", 1));
    rpc::RpcServer server(&svc, sopts);
    const int port = server.start();
    if (const auto pf = args.value("--port-file")) {
      FILE* f = std::fopen(pf->c_str(), "w");
      if (f == nullptr) throw std::runtime_error("cannot write " + *pf);
      std::fprintf(f, "%d\n", port);
      std::fclose(f);
    }
    std::printf(
        "rtc_bench: serving vbs.rpc.v1 on 127.0.0.1:%d "
        "(an admin SHUTDOWN frame stops it)\n",
        port);
    std::fflush(stdout);
    while (server.running()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    server.stop();
    const rpc::ServerCounters c = server.counters();
    if (json) {
      std::printf(
          "{\n  \"serve\": {\"port\": %d, \"accepted\": %llu, "
          "\"frames_in\": %llu, \"frames_out\": %llu, \"door_sheds\": %llu, "
          "\"handshake_rejects\": %llu, \"proto_errors\": %llu, "
          "\"fingerprint\": %llu}\n}\n",
          port, static_cast<unsigned long long>(c.accepted),
          static_cast<unsigned long long>(c.frames_in),
          static_cast<unsigned long long>(c.frames_out),
          static_cast<unsigned long long>(c.door_sheds),
          static_cast<unsigned long long>(c.handshake_rejects),
          static_cast<unsigned long long>(c.proto_errors),
          static_cast<unsigned long long>(svc.state_fingerprint()));
    } else {
      std::printf(
          "rtc_bench: server stopped: %llu connections, %llu frames in, "
          "%llu out, fingerprint %016llx\n",
          static_cast<unsigned long long>(c.accepted),
          static_cast<unsigned long long>(c.frames_in),
          static_cast<unsigned long long>(c.frames_out),
          static_cast<unsigned long long>(svc.state_fingerprint()));
    }
    return 0;
  } catch (const VbsError& e) {
    return typed_exit(e, json);
  }
}

/// --connect: admin-connect to a running server for a ping + stat, or a
/// graceful remote shutdown with --shutdown.
int run_connect(const CliArgs& args, bool json) {
  try {
    rpc::RpcClientOptions copts;
    copts.port = static_cast<int>(args.int_or("--port", 0));
    if (copts.port <= 0) throw std::runtime_error("--connect needs --port N");
    copts.tenant = rpc::kAdminTenant;
    copts.auth_seed =
        static_cast<std::uint64_t>(args.int_or("--auth-seed", 1));
    rpc::RpcClient admin(copts);
    admin.ping();
    const rpc::StatReplyMsg s = admin.stat();
    const bool shutdown = args.has_flag("--shutdown");
    if (shutdown) admin.shutdown();
    const auto ll = [](std::int64_t v) { return static_cast<long long>(v); };
    if (json) {
      std::printf(
          "{\n  \"connect\": {\"port\": %d, \"fingerprint\": %llu, "
          "\"now_ticks\": %lld, \"pending\": %llu, \"loads\": %lld, "
          "\"unloads\": %lld, \"relocates\": %lld, \"shed\": %lld, "
          "\"deadline_misses\": %lld, \"failed\": %lld, \"rejected\": %lld, "
          "\"shutdown\": %s}\n}\n",
          copts.port, static_cast<unsigned long long>(s.fingerprint),
          ll(s.now_ticks), static_cast<unsigned long long>(s.pending),
          ll(s.loads), ll(s.unloads), ll(s.relocates), ll(s.shed),
          ll(s.deadline_misses), ll(s.failed), ll(s.rejected),
          shutdown ? "true" : "false");
    } else {
      std::printf(
          "rtc_bench: server at :%d alive: fingerprint %016llx, tick %lld, "
          "%llu pending, %lld loads%s\n",
          copts.port, static_cast<unsigned long long>(s.fingerprint),
          ll(s.now_ticks), static_cast<unsigned long long>(s.pending),
          ll(s.loads), shutdown ? "; shutdown sent" : "");
    }
    return 0;
  } catch (const VbsError& e) {
    return typed_exit(e, json);
  }
}

/// --server-smoke: the CI loopback gate. In-process server over the --serve
/// service (its bounded queue sheds and its deadlines expire requests), a
/// --connections closed loop over a small bursty trace, then a remote
/// shutdown; exits 0 only on a fully accounted run and a clean stop.
int run_server_smoke(const CliArgs& args, bool json) {
  try {
    ArchSpec arch;
    arch.chan_width = 8;
    TraceGenOptions gopts;
    gopts.pattern = ArrivalPattern::kBursty;
    gopts.events = static_cast<int>(args.int_or("--events", 96));
    gopts.ticks = 24;
    gopts.kinds = 3;
    gopts.fabric_w = 12;
    gopts.fabric_h = 10;
    gopts.seed = static_cast<std::uint64_t>(args.int_or("--seed", 1));
    const Trace t = generate_trace(gopts);
    StreamLibrary lib(arch);
    std::vector<BitVector> streams;
    for (const TraceTaskKind& k : t.kinds) streams.push_back(lib.stream_for(k));

    ReconfigService svc(arch, t.fabric_w, t.fabric_h, served_options(args));
    rpc::RpcServerOptions sopts;
    sopts.auth_seed =
        static_cast<std::uint64_t>(args.int_or("--auth-seed", 1));
    rpc::RpcServer server(&svc, sopts);
    const int port = server.start();

    rpc::LoadGenOptions lopts;
    lopts.port = port;
    lopts.connections =
        static_cast<int>(args.int_or("--connections", 32));
    lopts.auth_seed = sopts.auth_seed;
    lopts.trace = t;
    lopts.kind_streams = streams;
    const rpc::LoadGenReport report = rpc::run_loadgen(lopts);

    {  // remote shutdown through an admin session: the clean-stop gate
      rpc::RpcClientOptions copts;
      copts.port = port;
      copts.tenant = rpc::kAdminTenant;
      copts.auth_seed = sopts.auth_seed;
      rpc::RpcClient admin(copts);
      admin.shutdown();
    }
    for (int i = 0; i < 2500 && server.running(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const bool stopped = !server.running();
    server.stop();
    const rpc::ServerCounters c = server.counters();

    const bool accounted =
        report.results + report.door_sheds + report.wire_errors ==
        report.requests_sent;
    const bool ok = stopped && !report.timed_out && accounted &&
                    report.results > 0 && report.done > 0;
    std::printf(
        "rtc_bench: server smoke: %d connections, %lld requests, %lld "
        "results (%lld done, %lld shed, %lld deadline), %lld door sheds, "
        "%lld wire errors, %llu accepted, clean shutdown %s: %s\n",
        lopts.connections, report.requests_sent, report.results, report.done,
        report.shed, report.deadline, report.door_sheds, report.wire_errors,
        static_cast<unsigned long long>(c.accepted), stopped ? "yes" : "NO",
        ok ? "ok" : "FAIL");
    return ok ? 0 : 1;
  } catch (const VbsError& e) {
    return typed_exit(e, json);
  }
}

bool same_outcomes(const Replay& a, const Replay& b) {
  return a.config == b.config && same_evictions(a.evictions, b.evictions) &&
         a.statuses == b.statuses && a.latency_ticks == b.latency_ticks &&
         a.stats.shed == b.stats.shed && a.stats.retries == b.stats.retries &&
         a.stats.deadline_misses == b.stats.deadline_misses &&
         a.stats.faults_injected == b.stats.faults_injected;
}

void write_json(const std::string& path, const Suite& s, bool smoke,
                const ServiceOptions& sopts, const ServiceOptions& oopts,
                std::uint64_t seed) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"vbs.rtc_bench.v6\",\n");
  std::fprintf(f,
               "  \"options\": {\"smoke\": %s, \"policy\": \"%s\", "
               "\"threads\": %d, \"cache_bits\": %zu, \"evict_to_fit\": %s, "
               "\"max_batch\": %d, \"seed\": %llu},\n",
               smoke ? "true" : "false", sopts.policy.c_str(), sopts.threads,
               sopts.cache_capacity_bits, sopts.evict_to_fit ? "true" : "false",
               sopts.max_batch, static_cast<unsigned long long>(seed));
  std::fprintf(f,
               "  \"overload_options\": {\"queue_limit\": %zu, "
               "\"deadline_ticks\": %lld, \"retry_limit\": %d, "
               "\"retry_backoff_ticks\": %lld, \"faults\": \"%s\"},\n",
               oopts.queue_limit, oopts.deadline_ticks, oopts.retry_limit,
               oopts.retry_backoff_ticks, oopts.faults.spec().c_str());
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"build\": %s,\n", build_info_json(2).c_str());
  std::fprintf(f, "  \"metrics\": %s,\n",
               telem::snapshot().to_json(2).c_str());
  std::fprintf(f, "  \"traces\": [\n");
  for (std::size_t i = 0; i < s.traces.size(); ++i) {
    const TraceRecord& r = s.traces[i];
    const Replay& w = r.warm;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"fabric\": {\"w\": %d, \"h\": %d}, "
                 "\"events\": %zu, \"kinds\": %zu,\n",
                 r.trace.name.c_str(), r.trace.fabric_w, r.trace.fabric_h,
                 r.trace.events.size(), r.trace.kinds.size());
    std::fprintf(f,
                 "     \"requests\": {\"loads\": %lld, \"unloads\": %lld, "
                 "\"relocates\": %lld, \"done\": %lld, \"rejected\": %lld, "
                 "\"failed\": %lld, \"shed\": %lld, \"deadline_misses\": "
                 "%lld, \"retries\": %lld},\n",
                 w.stats.loads, w.stats.unloads, w.stats.relocates, w.done,
                 w.rejected, w.failed, w.shed, w.deadline_misses,
                 w.stats.retries);
    std::fprintf(f,
                 "     \"replay_seconds\": %.4f, \"throughput_rps\": %.0f, "
                 "\"load_latency_ms\": {\"p50\": %.3f, \"p99\": %.3f, "
                 "\"max\": %.3f},\n",
                 w.drain_seconds, r.throughput, r.p50_ms, r.p99_ms, r.max_ms);
    std::fprintf(f,
                 "     \"cache\": {\"hits\": %lld, \"misses\": %lld, "
                 "\"hit_rate\": %.3f, \"insertions\": %lld, \"evictions\": "
                 "%lld, \"size_bits\": %zu},\n",
                 w.cache_hits, w.cache_misses, w.hit_rate(),
                 w.cache_insertions, w.cache_evictions, w.cache_size_bits);
    std::fprintf(f,
                 "     \"warm_loads\": %lld, \"cold_loads\": %lld, "
                 "\"relocates_cached\": %lld, \"relocates_decoded\": %lld,\n",
                 w.stats.warm_loads, w.stats.cold_loads,
                 w.stats.relocates_cached, w.stats.relocates_decoded);
    std::fprintf(f,
                 "     \"decode_nodes_warm\": %lld, \"decode_nodes_cold\": "
                 "%lld, \"decode_node_ratio\": %.2f,\n",
                 w.stats.decode.nodes_expanded, r.cold_nodes,
                 w.stats.decode.nodes_expanded > 0
                     ? static_cast<double>(r.cold_nodes) /
                           static_cast<double>(w.stats.decode.nodes_expanded)
                     : 0.0);
    std::fprintf(f,
                 "     \"task_evictions\": %lld, \"fragmentation_avg\": %.3f, "
                 "\"fragmentation_final\": %.3f, \"occupancy_final\": %.3f,\n",
                 w.stats.task_evictions, w.frag_avg(), w.frag_final,
                 w.occupancy_final);
    std::fprintf(f,
                 "     %s, \"determinism\": {\"thread_counts\": [1, 2, %d], "
                 "%s}}%s\n",
                 flag_json(r.verdict, "warm_equals_cold_config").c_str(),
                 sopts.threads, flag_json(r.verdict, "identical").c_str(),
                 i + 1 < s.traces.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"overload\": [\n");
  for (std::size_t i = 0; i < s.overload.size(); ++i) {
    const OverloadRecord& r = s.overload[i];
    const Replay& w = r.run;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %zu, \"kinds\": %zu, "
                 "\"done\": %lld, \"rejected\": %lld, \"failed\": %lld, "
                 "\"shed\": %lld, \"deadline_misses\": %lld, \"retries\": "
                 "%lld, \"faults_injected\": %lld, %s, %s,\n",
                 r.trace.name.c_str(), r.trace.events.size(),
                 r.trace.kinds.size(), w.done, w.rejected, w.failed, w.shed,
                 w.deadline_misses, w.stats.retries, w.stats.faults_injected,
                 flag_json(r.verdict, "determinism_ok").c_str(),
                 flag_json(r.verdict, "qos_ok").c_str());
    std::fprintf(f, "     \"tenants\": [");
    bool first = true;
    for (const auto& [tenant, ts] : w.tenants) {
      const auto pct = r.tick_percentiles.find(tenant);
      std::fprintf(
          f,
          "%s\n      {\"tenant\": %d, \"priority\": %d, \"submitted\": "
          "%lld, \"done\": %lld, \"rejected\": %lld, \"failed\": %lld, "
          "\"shed\": %lld, \"deadline_misses\": %lld, \"retries\": %lld, "
          "\"latency_ticks\": {\"p50\": %.1f, \"p99\": %.1f}}",
          first ? "" : ",", tenant, ts.priority, ts.submitted, ts.done,
          ts.rejected, ts.failed, ts.shed, ts.deadline_misses, ts.retries,
          pct != r.tick_percentiles.end() ? pct->second.first : 0.0,
          pct != r.tick_percentiles.end() ? pct->second.second : 0.0);
      first = false;
    }
    std::fprintf(f, "]}%s\n", i + 1 < s.overload.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"recovery\": [\n");
  for (std::size_t i = 0; i < s.recovery.size(); ++i) {
    const RecoveryRecord& r = s.recovery[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"events\": %zu, \"journal_bytes\": %llu, "
        "\"wal_records\": %lld, \"admits\": %lld, \"commits\": %lld, "
        "\"epoch\": %llu,\n",
        r.trace.name.c_str(), r.trace.events.size(),
        static_cast<unsigned long long>(r.info.journal_bytes), r.info.records,
        r.info.admits, r.info.commits,
        static_cast<unsigned long long>(r.info.epoch));
    std::fprintf(
        f,
        "     \"baseline_seconds\": %.4f, \"journaled_seconds\": %.4f, "
        "\"journal_overhead\": %.3f, \"recover_seconds\": %.4f, "
        "\"replay_records_per_sec\": %.0f,\n",
        r.baseline_seconds, r.journaled_seconds,
        r.baseline_seconds > 0 ? r.journaled_seconds / r.baseline_seconds
                               : 0.0,
        r.recover_seconds, r.replay_rps);
    std::fprintf(f, "     %s, %s}%s\n",
                 flag_json(r.verdict, "journal_transparent").c_str(),
                 flag_json(r.verdict, "fingerprint_ok").c_str(),
                 i + 1 < s.recovery.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"latency_breakdown\": [\n");
  for (std::size_t i = 0; i < s.breakdown.size(); ++i) {
    const BreakdownRecord& r = s.breakdown[i];
    std::fprintf(f, "    {\"name\": \"%s\", %s, %s, %s,\n",
                 r.trace.name.c_str(),
                 flag_json(r.verdict, "identity_ok").c_str(),
                 flag_json(r.verdict, "spans_match_stats").c_str(),
                 flag_json(r.verdict, "event_pairing_ok").c_str());
    std::fprintf(f, "     \"tenants\": [");
    bool first = true;
    for (const auto& [tenant, ts] : r.run.tenants) {
      std::fprintf(f,
                   "%s\n      {\"tenant\": %d, \"latency_ticks\": %lld, "
                   "\"queue_wait_ticks\": %lld, \"backoff_ticks\": %lld, "
                   "\"spike_ticks\": %lld, \"exec_ticks\": %lld}",
                   first ? "" : ",", tenant, ts.latency_ticks,
                   ts.queue_wait_ticks, ts.backoff_ticks, ts.spike_ticks,
                   ts.exec_ticks);
      first = false;
    }
    std::fprintf(f, "]}%s\n", i + 1 < s.breakdown.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"server_replay\": [\n");
  for (std::size_t i = 0; i < s.server_replay.size(); ++i) {
    const ServerReplayRecord& r = s.server_replay[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"events\": %zu, \"wire_results\": %lld, "
        "\"wall_seconds\": %.4f, \"offline_fingerprint\": %llu, "
        "\"wire_fingerprint\": %llu, \"recovered_fingerprint\": %llu, "
        "%s, %s}%s\n",
        r.trace.name.c_str(), r.trace.events.size(), r.wire_results,
        r.wall_seconds, static_cast<unsigned long long>(r.offline_fp),
        static_cast<unsigned long long>(r.wire_fp),
        static_cast<unsigned long long>(r.recovered_fp),
        flag_json(r.verdict, "wire_matches_offline").c_str(),
        flag_json(r.verdict, "recover_matches_offline").c_str(),
        i + 1 < s.server_replay.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  const Totals& t = s.totals;
  std::fprintf(
      f,
      "  \"summary\": {\"traces\": %zu, \"events\": %lld, "
      "\"replay_seconds\": %.4f, \"throughput_rps\": %.0f, "
      "\"decode_nodes_warm\": %lld, \"decode_nodes_cold\": %lld, "
      "\"decode_node_ratio\": %.2f, \"decode_ratio_floor\": %.1f, "
      "\"cache_hit_rate\": %.3f, \"task_evictions\": %lld",
      s.traces.size(), t.events, t.seconds,
      t.seconds > 0 ? static_cast<double>(t.events) / t.seconds : 0.0,
      t.warm_nodes, t.cold_nodes, t.ratio, t.ratio_floor,
      t.lookups > 0
          ? static_cast<double>(t.hits) / static_cast<double>(t.lookups)
          : 0.0,
      t.evictions);
  for (const auto& [flag, ok] : summary_flags(s)) {
    std::fprintf(f, ", \"%s\": %s", flag, ok ? "true" : "false");
  }
  std::fprintf(f, "}\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv,
               {"--trace", "--policy", "--threads", "--cache-bits",
                "--events", "--ticks", "--seed", "--out", "--queue-limit",
                "--deadline", "--faults", "--trace-out", "--connections",
                "--port", "--port-file", "--auth-seed"},
               {"--smoke", "--no-evict", "--metrics", "--serve", "--connect",
                "--server-smoke", "--shutdown", "--json"});
  const bool json = args.has_flag("--json");
  // Standalone network modes: typed exit codes, no bench suite.
  if (args.has_flag("--serve")) return run_serve(args, json);
  if (args.has_flag("--connect")) return run_connect(args, json);
  if (args.has_flag("--server-smoke")) return run_server_smoke(args, json);
  // Handled directly (not via TelemetryCli): the breakdown legs slice the
  // event buffer with take_trace(), so the file is written from the
  // accumulated slices at the end.
  const std::string trace_out = args.value_or("--trace-out", "");
  const bool want_metrics = args.has_flag("--metrics");
  telem::set_enabled(true);  // harness JSON embeds the counters
  const bool smoke = args.has_flag("--smoke");
  ServiceOptions sopts;
  sopts.policy = args.value_or("--policy", "first_fit");
  sopts.threads = static_cast<int>(args.int_or("--threads", 8));
  sopts.cache_capacity_bits = static_cast<std::size_t>(
      args.int_or("--cache-bits",
                  static_cast<long long>(sopts.cache_capacity_bits)));
  sopts.evict_to_fit = !args.has_flag("--no-evict");
  const auto seed = static_cast<std::uint64_t>(args.int_or("--seed", 1));
  const std::string out = args.value_or("--out", "BENCH_rtc.json");

  // The overload legs: bounded queue, modeled-tick deadlines, retries and
  // a deterministic fault plan on top of the headline options.
  ServiceOptions oopts = sopts;
  oopts.queue_limit =
      static_cast<std::size_t>(args.int_or("--queue-limit", 8));
  oopts.deadline_ticks = args.int_or("--deadline", 12);
  oopts.faults = FaultPlan::parse(args.value_or(
      "--faults", "seed=9,decode=0.05,alloc=0.05,latency=0.1x6"));

  ArchSpec arch;
  arch.chan_width = 8;  // small tasks; W=8 keeps the library flow fast

  // The bundled suite: one trace per arrival pattern, then the adversarial
  // overload traces — or just a caller trace.
  const auto generate = [&](std::vector<ArrivalPattern> patterns, int events,
                            int ticks) {
    TraceGenOptions gopts;
    gopts.events = static_cast<int>(args.int_or("--events", events));
    gopts.ticks = static_cast<int>(args.int_or("--ticks", ticks));
    gopts.kinds = smoke ? 4 : 6;
    gopts.seed = seed;
    std::vector<Trace> out;
    for (const ArrivalPattern p : patterns) {
      gopts.pattern = p;
      out.push_back(generate_trace(gopts));
    }
    return out;
  };
  std::vector<Trace> traces, overload_traces;
  if (const auto path = args.value("--trace")) {
    traces.push_back(read_trace_file(*path));
  } else {
    traces = generate({ArrivalPattern::kSteady, ArrivalPattern::kBursty,
                       ArrivalPattern::kDiurnal, ArrivalPattern::kChurn},
                      smoke ? 48 : 160, smoke ? 24 : 64);
    overload_traces =
        generate({ArrivalPattern::kFlashCrowd, ArrivalPattern::kUniqueFlood},
                 smoke ? 64 : 220, smoke ? 16 : 48);
  }

  std::printf("building task libraries (offline flow, shared across traces)"
              "...\n");
  StreamLibrary lib(arch);
  for (const std::vector<Trace>* set : {&traces, &overload_traces}) {
    for (const Trace& t : *set) {
      for (const TraceTaskKind& k : t.kinds) lib.stream_for(k);
    }
  }

  Suite suite;
  for (const Trace& t : traces) {
    TraceRecord rec;
    rec.trace = t;
    std::printf("replaying %-8s (%zu events, %dx%d fabric)...\n",
                t.name.c_str(), t.events.size(), t.fabric_w, t.fabric_h);
    rec.warm = replay_trace(t, lib, arch, sopts);

    // A cached commit that diverges from a fresh decode, or a replay that
    // differs across thread counts, would invalidate every number here.
    ServiceOptions cold = sopts;
    cold.cache_capacity_bits = 0;
    const Replay cold_run = replay_trace(t, lib, arch, cold);
    rec.cold_nodes = cold_run.stats.decode.nodes_expanded;
    rec.verdict.check(rec.warm.config == cold_run.config &&
                          same_evictions(rec.warm.evictions,
                                         cold_run.evictions),
                      "warm_equals_cold_config",
                      t.name + " warm (cached) config diverged from cold "
                               "decode");
    bool identical = true;
    for (const int threads : {1, 2}) {
      ServiceOptions d = sopts;
      d.threads = threads;
      const Replay run = replay_trace(t, lib, arch, d);
      identical &= run.config == rec.warm.config &&
                   same_evictions(run.evictions, rec.warm.evictions);
    }
    rec.verdict.check(identical, "identical",
                      t.name + " replay differs across thread counts");

    rec.p50_ms = 1e3 * percentile(rec.warm.load_latencies, 0.50);
    rec.p99_ms = 1e3 * percentile(rec.warm.load_latencies, 0.99);
    rec.max_ms = 1e3 * percentile(rec.warm.load_latencies, 1.0);
    rec.throughput =
        rec.warm.drain_seconds > 0
            ? static_cast<double>(t.events.size()) / rec.warm.drain_seconds
            : 0.0;
    suite.traces.push_back(std::move(rec));
  }

  // The cache headline the bundled suite promises: a warm replay does >=
  // 10x less devirtualization than a cold one. Smoke traces are too short
  // to promise a fixed ratio; there the check is only that caching helps.
  Totals& tot = suite.totals;
  for (const TraceRecord& r : suite.traces) {
    const Replay& w = r.warm;
    tot.events += static_cast<long long>(r.trace.events.size());
    tot.warm_nodes += w.stats.decode.nodes_expanded;
    tot.cold_nodes += r.cold_nodes;
    tot.evictions += w.stats.task_evictions;
    tot.hits += w.cache_hits;
    tot.lookups += w.cache_hits + w.cache_misses;
    tot.seconds += w.drain_seconds;
  }
  tot.ratio = tot.warm_nodes > 0 ? static_cast<double>(tot.cold_nodes) /
                                       static_cast<double>(tot.warm_nodes)
                                 : 0.0;
  tot.ratio_floor = smoke || args.value("--trace") ? 1.0 : 10.0;
  tot.verdict.check(tot.ratio >= tot.ratio_floor, "decode_ratio_ok",
                    "decode node ratio " + TablePrinter::fmt(tot.ratio) +
                        " below " + TablePrinter::fmt(tot.ratio_floor, 1));

  // Overload legs: tenant 0 is the high-priority background workload,
  // tenant 1 the flood. Replayed at --threads and re-checked at 1 and 2:
  // statuses, tick latencies, sheds, retries and the final configuration
  // must be byte-identical — the fault schedule is part of the model. The
  // QoS promises: the flood is shed, the high-priority tenant never is,
  // and its p99 stays at or below the flood's.
  const std::map<int, int> priorities = {{0, 10}, {1, 0}};
  for (const Trace& t : overload_traces) {
    OverloadRecord rec;
    rec.trace = t;
    std::printf("replaying %-12s overload leg (%zu events, queue %zu, "
                "deadline %lld)...\n",
                t.name.c_str(), t.events.size(), oopts.queue_limit,
                oopts.deadline_ticks);
    rec.run = replay_trace(t, lib, arch, oopts, priorities);
    bool identical = true;
    for (const int threads : {1, 2}) {
      ServiceOptions d = oopts;
      d.threads = threads;
      identical &=
          same_outcomes(replay_trace(t, lib, arch, d, priorities), rec.run);
    }
    rec.verdict.check(identical, "determinism_ok",
                      t.name + " overload replay differs across thread "
                               "counts");
    for (const auto& [tenant, ticks] : rec.run.tenant_done_ticks) {
      rec.tick_percentiles[tenant] = {percentile(ticks, 0.50),
                                      percentile(ticks, 0.99)};
    }
    const auto& ten = rec.run.tenants;
    const bool both = ten.count(0) != 0 && ten.count(1) != 0;
    rec.verdict.check(both, "qos_ok", t.name + " overload leg lacks a tenant");
    if (both) {
      const long long high_shed = ten.at(0).shed;
      rec.verdict.check(high_shed == 0, "qos_ok",
                        t.name + " shed " + TablePrinter::fmt_int(high_shed) +
                            " high-priority requests");
      rec.verdict.check(ten.at(1).shed != 0, "qos_ok",
                        t.name + " overload leg never shed the flood");
    }
    const auto& pct = rec.tick_percentiles;
    if (pct.count(0) != 0 && pct.count(1) != 0) {
      const double p99_high = pct.at(0).second, p99_flood = pct.at(1).second;
      rec.verdict.check(p99_high <= p99_flood, "qos_ok",
                        t.name + " high-priority p99 " +
                            TablePrinter::fmt(p99_high, 1) +
                            " ticks above flood p99 " +
                            TablePrinter::fmt(p99_flood, 1));
    }
    suite.overload.push_back(std::move(rec));
  }

  // Recovery legs: the overload traces once more, this time journaled,
  // then rebuilt from the journal directory alone. Journaling must not
  // perturb the replay and the cold recovery must fingerprint identically.
  namespace fs = std::filesystem;
  const fs::path jroot =
      fs::temp_directory_path() /
      ("vbs_rtc_bench_" + std::to_string(static_cast<long long>(::getpid())));
  for (const Trace& t : overload_traces) {
    RecoveryRecord rec;
    rec.trace = t;
    std::printf("replaying %-12s recovery leg (journaled, then cold "
                "recover)...\n",
                t.name.c_str());
    const fs::path jdir = jroot / t.name;
    fs::remove_all(jdir);
    std::uint64_t fp_live = 0, fp_journaled = 0;
    rec.baseline_seconds =
        replay_trace(t, lib, arch, oopts, priorities, {}, &fp_live)
            .drain_seconds;
    rec.journaled_seconds =
        replay_trace(t, lib, arch, oopts, priorities, jdir.string(),
                     &fp_journaled)
            .drain_seconds;
    rec.verdict.check(fp_journaled == fp_live, "journal_transparent",
                      t.name + " journaled replay diverged from the "
                               "unjournaled run");
    const std::uint64_t t0 = telem::now_ns();
    const std::unique_ptr<ReconfigService> back =
        ReconfigService::recover(jdir.string(), oopts.threads, &rec.info);
    rec.recover_seconds = telem::seconds_since(t0);
    rec.replay_rps =
        rec.recover_seconds > 0
            ? static_cast<double>(rec.info.records) / rec.recover_seconds
            : 0.0;
    rec.verdict.check(back->state_fingerprint() == fp_journaled,
                      "fingerprint_ok",
                      t.name + " recovered fingerprint diverged from the "
                               "journaled run");
    suite.recovery.push_back(std::move(rec));
  }
  fs::remove_all(jroot);

  // Latency-decomposition legs: everything traced so far moves to
  // all_events, then each overload trace replays once more with its own
  // clean slice of the event buffer. The span model is part of the bench
  // contract: the tick identity must hold for every result, and the
  // exported spans must be the same numbers TenantStats reports.
  std::vector<telem::TraceEvent> all_events = telem::take_trace();
  for (const Trace& t : overload_traces) {
    BreakdownRecord rec;
    rec.trace = t;
    std::printf("replaying %-12s breakdown leg (span-model check)...\n",
                t.name.c_str());
    rec.run = replay_trace(t, lib, arch, oopts, priorities);
    std::vector<telem::TraceEvent> ev = telem::take_trace();
    rec.verdict.check(rec.run.tick_identity_ok, "identity_ok",
                      t.name + " latency breakdown violates the tick "
                               "identity");
    const std::string pairing = telem::check_event_pairing(ev);
    rec.verdict.check(pairing.empty(), "event_pairing_ok",
                      t.name + " trace pairing: " + pairing);
    // Sum the modeled-tick spans per tenant lane: the parent "request"
    // spans and each phase span, in nanoseconds (1 tick == 1000 ns).
    std::map<std::uint64_t, long long> request_ns;
    std::map<std::uint64_t, std::map<std::string, long long>> phase_ns;
    for (const telem::TraceEvent& e : ev) {
      if (e.pid != telem::kPidTicks) continue;
      if (e.name == "request") {
        request_ns[e.tid] += static_cast<long long>(e.dur_ns);
      } else {
        phase_ns[e.tid][e.name] += static_cast<long long>(e.dur_ns);
      }
    }
    bool spans_ok = true;
    for (const auto& [tenant, ts] : rec.run.tenants) {
      const auto tid = static_cast<std::uint64_t>(tenant);
      std::map<std::string, long long>& phase = phase_ns[tid];
      spans_ok &= request_ns[tid] == ts.latency_ticks * 1000 &&
                  phase["queue_wait"] == ts.queue_wait_ticks * 1000 &&
                  phase["backoff"] == ts.backoff_ticks * 1000 &&
                  phase["spike"] == ts.spike_ticks * 1000 &&
                  phase["exec"] == ts.exec_ticks * 1000;
    }
    rec.verdict.check(spans_ok, "spans_match_stats",
                      t.name + " trace spans diverge from the TenantStats "
                               "breakdown");
    all_events.insert(all_events.end(), ev.begin(), ev.end());
    suite.breakdown.push_back(std::move(rec));
  }

  // The server-replay leg: the flash_crowd overload trace once more,
  // through a *journaled* server via one admin session, fingerprinted
  // against the offline replay and against a cold journal recovery. The
  // served service runs the overload admission policy (bounded queue and
  // deadlines) but no model fault plan.
  if (!overload_traces.empty()) {
    ServiceOptions wopts = oopts;
    wopts.faults = FaultPlan{};
    const Trace& t = overload_traces.front();
    ServerReplayRecord rec;
    rec.trace = t;
    std::printf("replaying %-12s server-replay leg (journaled wire "
                "replay vs offline)...\n",
                t.name.c_str());
    replay_trace(t, lib, arch, wopts, priorities, {}, &rec.offline_fp);

    const fs::path jdir =
        fs::temp_directory_path() /
        ("vbs_rtc_bench_srv_" +
         std::to_string(static_cast<long long>(::getpid())));
    fs::remove_all(jdir);
    {
      ReconfigService svc(arch, t.fabric_w, t.fabric_h, wopts);
      svc.open_journal(jdir.string());
      rpc::RpcServerOptions ropts;
      ropts.auto_drain = false;  // drains only at the admin's barriers
      rpc::RpcServer server(&svc, ropts);
      const int port = server.start();
      const std::uint64_t t0 = telem::now_ns();
      rec.wire_results =
          admin_wire_replay(port, ropts.auth_seed, t, lib, priorities);
      rec.wall_seconds = telem::seconds_since(t0);
      server.stop();
      rec.wire_fp = svc.state_fingerprint();
    }
    rec.recovered_fp =
        ReconfigService::recover(jdir.string())->state_fingerprint();
    fs::remove_all(jdir);
    rec.verdict.check(rec.wire_fp == rec.offline_fp, "wire_matches_offline",
                      t.name + " served fingerprint diverged from the "
                               "offline replay");
    rec.verdict.check(rec.recovered_fp == rec.offline_fp,
                      "recover_matches_offline",
                      t.name + " fingerprint recovered from the server "
                               "journal diverged from the offline replay");
    suite.server_replay.push_back(std::move(rec));
  }

  const auto ok_cell = [](const Verdict& v) { return v.ok() ? "ok" : "FAIL"; };
  TablePrinter table({"trace", "events", "rps", "p50 ms", "p99 ms",
                      "hit rate", "nodes w/c", "evict", "frag", "ok"});
  for (const TraceRecord& r : suite.traces) {
    table.add_row(
        {r.trace.name, TablePrinter::fmt_int(static_cast<long long>(
                           r.trace.events.size())),
         TablePrinter::fmt(r.throughput, 0), TablePrinter::fmt(r.p50_ms, 2),
         TablePrinter::fmt(r.p99_ms, 2), TablePrinter::fmt(r.warm.hit_rate()),
         TablePrinter::fmt_int(r.warm.stats.decode.nodes_expanded) + "/" +
             TablePrinter::fmt_int(r.cold_nodes),
         TablePrinter::fmt_int(r.warm.stats.task_evictions),
         TablePrinter::fmt(r.warm.frag_avg()), ok_cell(r.verdict)});
  }
  table.print();
  std::printf("decode node ratio (cold/warm) %.2f, floor %.1f: %s\n",
              tot.ratio, tot.ratio_floor, ok_cell(tot.verdict));

  if (!suite.overload.empty()) {
    std::printf("\noverload legs (latency in modeled ticks):\n");
    TablePrinter otable({"trace", "tenant", "prio", "submitted", "done",
                         "shed", "deadline", "retries", "p50 t", "p99 t",
                         "ok"});
    for (const OverloadRecord& r : suite.overload) {
      for (const auto& [tenant, ts] : r.run.tenants) {
        const auto pct = r.tick_percentiles.find(tenant);
        otable.add_row(
            {r.trace.name, TablePrinter::fmt_int(tenant),
             TablePrinter::fmt_int(ts.priority),
             TablePrinter::fmt_int(ts.submitted),
             TablePrinter::fmt_int(ts.done), TablePrinter::fmt_int(ts.shed),
             TablePrinter::fmt_int(ts.deadline_misses),
             TablePrinter::fmt_int(ts.retries),
             TablePrinter::fmt(
                 pct != r.tick_percentiles.end() ? pct->second.first : 0.0, 1),
             TablePrinter::fmt(
                 pct != r.tick_percentiles.end() ? pct->second.second : 0.0,
                 1),
             ok_cell(r.verdict)});
      }
    }
    otable.print();
  }

  if (!suite.recovery.empty()) {
    std::printf("\nrecovery legs (journaled replay + cold recover):\n");
    TablePrinter rtable({"trace", "wal bytes", "records", "admits",
                         "commits", "jrnl ovh", "recover ms", "rec/s",
                         "ok"});
    for (const RecoveryRecord& r : suite.recovery) {
      rtable.add_row(
          {r.trace.name,
           TablePrinter::fmt_int(
               static_cast<long long>(r.info.journal_bytes)),
           TablePrinter::fmt_int(r.info.records),
           TablePrinter::fmt_int(r.info.admits),
           TablePrinter::fmt_int(r.info.commits),
           TablePrinter::fmt(r.baseline_seconds > 0
                                 ? r.journaled_seconds / r.baseline_seconds
                                 : 0.0,
                             2),
           TablePrinter::fmt(1e3 * r.recover_seconds, 2),
           TablePrinter::fmt(r.replay_rps, 0), ok_cell(r.verdict)});
    }
    rtable.print();
  }

  if (!suite.breakdown.empty()) {
    std::printf("\nlatency decomposition (per-tenant tick sums):\n");
    TablePrinter btable({"trace", "tenant", "latency", "queue", "backoff",
                         "spike", "exec", "ok"});
    for (const BreakdownRecord& r : suite.breakdown) {
      for (const auto& [tenant, ts] : r.run.tenants) {
        btable.add_row(
            {r.trace.name, TablePrinter::fmt_int(tenant),
             TablePrinter::fmt_int(ts.latency_ticks),
             TablePrinter::fmt_int(ts.queue_wait_ticks),
             TablePrinter::fmt_int(ts.backoff_ticks),
             TablePrinter::fmt_int(ts.spike_ticks),
             TablePrinter::fmt_int(ts.exec_ticks), ok_cell(r.verdict)});
      }
    }
    btable.print();
  }

  if (!suite.server_replay.empty()) {
    std::printf("\nserver-replay legs (wire vs offline fingerprints):\n");
    TablePrinter srtable({"trace", "results", "wall s", "ok"});
    for (const ServerReplayRecord& r : suite.server_replay) {
      srtable.add_row({r.trace.name, TablePrinter::fmt_int(r.wire_results),
                       TablePrinter::fmt(r.wall_seconds, 3),
                       ok_cell(r.verdict)});
    }
    srtable.print();
  }

  write_json(out, suite, smoke, sopts, oopts, seed);
  std::printf("\nwrote %s\n", out.c_str());

  if (!trace_out.empty()) {
    const std::vector<telem::TraceEvent> tail = telem::take_trace();
    all_events.insert(all_events.end(), tail.begin(), tail.end());
    telem::write_trace_file(trace_out, all_events);
    std::printf("wrote %s (%zu trace events)\n", trace_out.c_str(),
                all_events.size());
  }
  if (want_metrics) {
    std::fprintf(stderr, "%s\n", telem::snapshot().to_json(0).c_str());
  }

  // Fail loudly, from the same verdicts the JSON flags read.
  const auto fail = [](const Verdict& v) {
    for (const Failure& f : v.failures) {
      std::fprintf(stderr, "FAIL: %s\n", f.reason.c_str());
    }
  };
  for (const TraceRecord& r : suite.traces) fail(r.verdict);
  fail(tot.verdict);
  for (const OverloadRecord& r : suite.overload) fail(r.verdict);
  for (const RecoveryRecord& r : suite.recovery) fail(r.verdict);
  for (const BreakdownRecord& r : suite.breakdown) fail(r.verdict);
  for (const ServerReplayRecord& r : suite.server_replay) fail(r.verdict);
  const auto flags = summary_flags(suite);
  return std::all_of(flags.begin(), flags.end(),
                     [](const auto& f) { return f.second; })
             ? 0
             : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr,
               "rtc_bench: %s\n"
               "usage: rtc_bench [--smoke] [--trace FILE] [--policy P] "
               "[--threads T] [--cache-bits N] [--events N] [--ticks K] "
               "[--seed S] [--no-evict] [--queue-limit N] [--deadline T] "
               "[--faults SPEC] [--trace-out trace.json] [--metrics] "
               "[--out PATH] [--json]\n"
               "       rtc_bench --serve | --connect | --server-smoke "
               "[--port N] [--port-file F] [--auth-seed S] [--shutdown] "
               "[--connections N] [--threads T] [--queue-limit N] "
               "[--deadline T]\n",
               e.what());
  return 1;
}
