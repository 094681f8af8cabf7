// One netlist -> .vbs compile through FlowPipeline, timed stage by stage,
// and one timed ReconfigController::load of the result. Shared by the
// compile workload (the five Table II stand-ins) and the serve workloads
// (their task libraries).
#pragma once

#include <optional>
#include <string>

#include "flow/pipeline.h"
#include "place/annealer.h"
#include "util/bitvector.h"
#include "vbs/devirtualizer.h"
#include "vbs/encoder.h"

namespace perfbench {

struct StageTimes {
  double pack_s = 0.0;
  double place_s = 0.0;
  double fabric_s = 0.0;  ///< the fabric() accessor before route
  double route_s = 0.0;
  double encode_s = 0.0;
  double total_s = 0.0;   ///< pipeline construction through encode

  StageTimes& operator+=(const StageTimes& o);
};

struct CompiledJob {
  std::string name;
  vbs::BitVector stream;
  vbs::EncodeStats encode;
  vbs::PlaceStats place;
  long long heap_pops = 0;
  int route_iterations = 0;
  bool routed = false;
  StageTimes times;
};

/// Runs netlist -> pack -> place -> route -> encode at `opts`. Each stage
/// call is wrapped in a benchmark span ("flow.pack", ..., "fabric.build")
/// inside one "compile.job" span. When `pipe_out` is non-null the pipeline
/// is moved there (for connectivity checks against its artifacts).
CompiledJob compile_job(const std::string& name, vbs::Netlist nl, int grid,
                        const vbs::FlowOptions& opts,
                        const vbs::EncodeOptions& eopts,
                        std::optional<vbs::FlowPipeline>* pipe_out = nullptr);

struct LoadCheck {
  double load_s = 0.0;
  vbs::DecodeStats decode;
  std::size_t raw_bits = 0;  ///< raw-equivalent configuration bits
  std::string error;         ///< empty when the load verified
};

/// Loads `stream` into a fresh grid x grid ReconfigController (one timed
/// "rtc.load" span) and, when `verify` is set, checks the configuration
/// memory with verify_connectivity against the pipeline's netlist, packing
/// and placement.
LoadCheck load_and_verify(const vbs::BitVector& stream, vbs::FlowPipeline& pipe,
                          const vbs::ArchSpec& arch, int grid,
                          bool verify = true);

}  // namespace perfbench
