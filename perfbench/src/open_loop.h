// The serve workloads' client: one thread, one authenticated vbs.rpc.v1
// connection per tenant, driving pre-generated per-tenant schedules
// against an RpcServer.
//
// Two phases share the connections:
//   open loop    request i is due at t0 + i / rate and goes to tenant
//                i % tenants; latency runs from the due time to the RESULT
//                frame, so a stall is charged to every request it delays.
//   closed loop  each connection keeps `window` requests outstanding;
//                completions per second is the saturation throughput.
// An unload or relocate names an earlier load of its tenant by service
// request id, which the load's ACK carries; a request whose target has not
// been acknowledged yet waits at the head of its connection's queue (its
// latency still runs from its due time).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/conn.h"
#include "rtc/server/wire.h"
#include "rtc/service/service.h"

namespace perfbench {

/// One scheduled request of one tenant.
struct Op {
  vbs::RequestKind kind = vbs::RequestKind::kLoad;
  int kind_idx = -1;  ///< loads: index into the task library
  int target = -1;    ///< unload/relocate: index of the load in this schedule
};

/// What happened to one sent request (times are telemetry-clock ns).
struct OpRecord {
  std::uint64_t due_ns = 0;
  std::uint64_t ready_ns = 0;   ///< generator picked it up after it was due
  std::uint64_t ack_ns = 0;
  std::uint64_t result_ns = 0;
  long long service_id = -1;    ///< from the ACK
  vbs::RequestStatus status = vbs::RequestStatus::kQueued;
  bool sent = false;
  bool door_shed = false;
  bool wire_error = false;
  bool open_loop = false;
};

struct PhaseStats {
  long long sent = 0;
  long long results = 0;
  long long done = 0;
  long long door_sheds = 0;
  long long wire_errors = 0;
  long long unfinished = 0;  ///< still outstanding at the phase deadline
  /// Closed loop: results that arrived before window_end_ns.
  std::uint64_t window_end_ns = 0;
  long long in_window = 0;
};

class LoadClient {
 public:
  /// `load_payloads[t][k]` is tenant t's LOAD payload for library kind k,
  /// encoded before timing starts.
  LoadClient(std::vector<std::vector<Op>> schedules,
             std::vector<std::vector<std::string>> load_payloads);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Connects and authenticates one session per tenant (tenant ids 0..n-1).
  void connect(int port, std::uint64_t auth_seed);

  /// Sends `count` requests at `rate` per second, then waits up to
  /// `grace_s` for the outstanding results.
  PhaseStats run_open(long long count, double rate, double grace_s);
  /// Keeps `window` requests outstanding per connection for `seconds`,
  /// counting completions inside that interval, then waits up to `grace_s`.
  PhaseStats run_closed(int window, double seconds, double grace_s);
  /// Median PING round trip in microseconds over `n` sequential pings on
  /// the first connection.
  double ping_us(int n);

  void close();

  int tenants() const { return static_cast<int>(schedules_.size()); }
  const std::vector<std::vector<Op>>& schedules() const { return schedules_; }
  const std::vector<std::vector<OpRecord>>& records() const {
    return records_;
  }

 private:
  struct Session;

  /// Sends what can be sent from each connection's ready queue.
  void pump_sends(PhaseStats& ps, bool open_loop);
  /// One ppoll round (bounded by `timeout_ns`), then reads and dispatches
  /// every complete frame.
  void poll_once(std::uint64_t timeout_ns, PhaseStats& ps);
  void handle_frame(int ci, const vbs::rpc::Frame& f, PhaseStats& ps);
  long long outstanding() const;

  std::vector<std::vector<Op>> schedules_;
  std::vector<std::vector<std::string>> load_payloads_;
  std::vector<std::vector<OpRecord>> records_;
  std::vector<std::unique_ptr<Session>> conns_;
  std::uint64_t last_pong_ = 0;  ///< corr of the latest PONG
};

}  // namespace perfbench
