#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <unordered_map>

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// "name": {"value": v, "unit": "u"}, appended piecewise.
std::string metric_json(const std::string& name, double value,
                        const std::string& unit) {
  std::string out = "\"";
  out += json_escape(name);
  out += "\": {\"value\": ";
  out += json_number(value);
  out += ", \"unit\": \"";
  out += json_escape(unit);
  out += "\"}";
  return out;
}

}  // namespace

void Report::metric(const std::string& name, double value, const char* unit) {
  metrics_[name] = {value, unit};
}

void Report::gate(bool ok, const std::string& what) {
  gates_.emplace_back(what, ok);
  if (!ok) {
    failures_.push_back(what);
    std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", what.c_str());
  }
}

void Report::note(const std::string& key, const std::string& value) {
  notes_[key] = value;
}

std::string Report::result_json(const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& n : names) {
    const auto it = metrics_.find(n);
    if (it == metrics_.end()) continue;
    out += first ? "" : ", ";
    first = false;
    out += metric_json(n, it->second.value, it->second.unit);
  }
  out += "}}";
  return out;
}

std::string Report::record_json() const {
  std::string out = "{\n  \"correct\": ";
  out += correct() ? "true" : "false";
  out += ",\n  \"attempted\": " + std::to_string(attempted);
  out += ",\n  \"failed\": " + std::to_string(failed);
  out += ",\n  \"notes\": {";
  bool first = true;
  for (const auto& [k, v] : notes_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(k) + "\": \"" + json_escape(v) + "\"";
  }
  out += "\n  },\n  \"gates\": [";
  first = true;
  for (const auto& [what, ok] : gates_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"gate\": \"" + json_escape(what) +
           "\", \"ok\": " + (ok ? "true" : "false") + "}";
  }
  out += "\n  ],\n  \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    out += metric_json(name, m.value, m.unit);
  }
  out += "\n  }\n}\n";
  return out;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

SpanTimes span_times(const std::vector<vbs::telem::TraceEvent>& events,
                     const std::string& category) {
  SpanTimes out;
  // Per wall-clock thread lane: a stack of open spans, each accumulating
  // the time its direct children cover.
  struct Open {
    const vbs::telem::TraceEvent* begin;
    std::uint64_t child_ns;
  };
  std::unordered_map<std::uint64_t, std::vector<Open>> stacks;
  for (const vbs::telem::TraceEvent& ev : events) {
    if (ev.pid != vbs::telem::kPidWall || ev.category != category) continue;
    auto& stack = stacks[ev.tid];
    if (ev.phase == 'B') {
      stack.push_back({&ev, 0});
    } else if (ev.phase == 'E' && !stack.empty()) {
      const Open top = stack.back();
      stack.pop_back();
      const std::uint64_t dur =
          ev.ts_ns >= top.begin->ts_ns ? ev.ts_ns - top.begin->ts_ns : 0;
      const std::uint64_t self = dur >= top.child_ns ? dur - top.child_ns : 0;
      out.self_s[top.begin->name] += static_cast<double>(self) * 1e-9;
      out.total_s[top.begin->name] += static_cast<double>(dur) * 1e-9;
      if (!stack.empty()) stack.back().child_ns += dur;
    }
  }
  return out;
}

}  // namespace perfbench
