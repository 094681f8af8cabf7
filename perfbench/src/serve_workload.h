// The serve workloads: an RpcServer backed by a journaled ReconfigService
// on loopback, driven by LoadClient (open_loop.h).
#pragma once

#include <vector>

#include "report.h"

namespace perfbench {

/// A short serve_hot run inside another workload's traced run, so that the
/// service, wire and journal per-layer metrics are always reported. Records
/// only per-layer metrics; the caller exports the trace and then calls
/// serve_trace_metrics.
void serve_probe(const RunConfig& cfg, Report& rep);

/// Metrics read back from the run's exported trace events: the request
/// latency reconciliation (rpc.ack + rpc.result against rpc.request) and
/// the service thread's batch-decode time.
void serve_trace_metrics(const std::vector<vbs::telem::TraceEvent>& events,
                         Report& rep);

/// Writes the run's Chrome trace into the work directory.
void write_chrome_trace(const RunConfig& cfg,
                        const std::vector<vbs::telem::TraceEvent>& events);

/// Stage self-times must cover the measured compile time to within this
/// share; rpc.ack_ms + rpc.result_ms must match the request latency to
/// within kLatencyReconcileTolerance.
inline constexpr double kCompileReconcileTolerance = 0.02;
inline constexpr double kLatencyReconcileTolerance = 0.001;

}  // namespace perfbench
