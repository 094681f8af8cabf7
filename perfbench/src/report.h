// Shared plumbing of the benchmark: run configuration, the metric/gate
// report every workload fills in, and small statistics and tracing helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/telemetry.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch space for journals and traces
};

/// What one run measured and checked. Workloads record every metric they
/// can; main() prints the end-to-end or the per-layer set.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit);
  /// Records a correctness gate; a false `ok` makes the run incorrect.
  void gate(bool ok, const std::string& what);
  void note(const std::string& key, const std::string& value);

  bool correct() const { return failures_.empty(); }
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }

  long long attempted = 0;
  long long failed = 0;

  /// {"correct", "attempted", "failed", "metrics"} restricted to `names`.
  std::string result_json(const std::vector<std::string>& names) const;
  /// Everything: all metrics, every gate, the notes (the run record file).
  std::string record_json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, bool>> gates_;
  std::vector<std::string> failures_;
  std::map<std::string, std::string> notes_;
};

double now_s();
/// p in [0, 1], linear interpolation between order statistics; 0 if empty.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);
double peak_rss_mb();

/// Per span name, the summed self time in seconds (duration minus the part
/// covered by child spans on the same thread) of the wall-clock B/E spans
/// of `category`, and separately the summed total durations.
struct SpanTimes {
  std::map<std::string, double> self_s;
  std::map<std::string, double> total_s;
};
SpanTimes span_times(const std::vector<vbs::telem::TraceEvent>& events,
                     const std::string& category);

/// Category of every span the benchmark itself records.
inline constexpr const char* kSpanCategory = "perfbench";

// Workload entry points (compile_workload.cpp, serve_workload.cpp).
void run_compile(const RunConfig& cfg, Report& rep);
void run_serve(const RunConfig& cfg, Report& rep);

}  // namespace perfbench
