#include "open_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>

#include "util/telemetry.h"

namespace perfbench {

using namespace vbs;
using namespace vbs::rpc;

namespace {

constexpr std::uint64_t kPingCorrBase = std::uint64_t{1} << 40;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("client: " + what);
}

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      fail("send during handshake: " + std::string(std::strerror(errno)));
    }
  }
}

Frame recv_blocking(int fd, std::string& buf, FrameReader& reader) {
  Frame f;
  while (!reader.next(buf, f)) {
    char tmp[4096];
    const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n > 0) {
      buf.append(tmp, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      fail("connection closed during handshake");
    }
  }
  return f;
}

}  // namespace

struct LoadClient::Session {
  std::unique_ptr<net::Conn> conn;
  FrameReader reader;
  int tenant = 0;
  std::size_t next_op = 0;        ///< next schedule index to make ready
  std::deque<std::size_t> ready;  ///< due but unsent schedule indices
  long long inflight = 0;
  bool dead = false;
};

LoadClient::LoadClient(std::vector<std::vector<Op>> schedules,
                       std::vector<std::vector<std::string>> load_payloads)
    : schedules_(std::move(schedules)),
      load_payloads_(std::move(load_payloads)) {
  for (const auto& s : schedules_) records_.emplace_back(s.size());
}

LoadClient::~LoadClient() { close(); }

void LoadClient::close() { conns_.clear(); }

void LoadClient::connect(int port, std::uint64_t auth_seed) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (std::size_t t = 0; t < schedules_.size(); ++t) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) fail("socket");
    auto conn = std::make_unique<net::Conn>(fd, 0x7000 + t);  // owns fd
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      fail("connect: " + std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    // Blocking handshake: HELLO -> CHALLENGE -> AUTH -> AUTH_OK.
    const int tenant = static_cast<int>(t);
    const std::uint64_t nonce = 0xbe5c0000ull + t;
    std::string buf;
    FrameReader reader;
    send_all(fd, encode_frame(FrameType::kHello, 1,
                              encode_hello({tenant, nonce})));
    const Frame ch = recv_blocking(fd, buf, reader);
    if (ch.type != FrameType::kChallenge) fail("expected CHALLENGE");
    const std::uint64_t proof =
        auth_proof(tenant_secret(auth_seed, tenant), tenant, nonce,
                   decode_challenge(ch.payload).server_nonce);
    send_all(fd, encode_frame(FrameType::kAuth, 1, encode_auth({proof})));
    if (recv_blocking(fd, buf, reader).type != FrameType::kAuthOk) {
      fail("handshake rejected");
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);

    auto s = std::make_unique<Session>();
    s->conn = std::move(conn);
    s->tenant = tenant;
    s->conn->inbuf() = std::move(buf);
    conns_.push_back(std::move(s));
  }
}

long long LoadClient::outstanding() const {
  long long n = 0;
  for (const auto& s : conns_) {
    if (!s->dead) n += s->inflight + static_cast<long long>(s->ready.size());
  }
  return n;
}

void LoadClient::pump_sends(PhaseStats& ps, bool open_loop) {
  for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
    Session& s = *conns_[ci];
    auto& recs = records_[ci];
    const auto& sched = schedules_[ci];
    while (!s.dead && !s.ready.empty()) {
      const std::size_t idx = s.ready.front();
      const Op& op = sched[idx];
      OpRecord& rec = recs[idx];
      std::string frame;
      if (op.kind == RequestKind::kLoad) {
        frame = encode_frame(
            FrameType::kLoad, idx + 1,
            load_payloads_[ci][static_cast<std::size_t>(op.kind_idx)]);
      } else {
        const OpRecord& target = recs[static_cast<std::size_t>(op.target)];
        if (target.service_id < 0) {
          if (target.sent && target.ack_ns == 0 &&
              (target.door_shed || target.wire_error)) {
            // The load never reached the service: this request cannot be
            // expressed on the wire. Count it as a wire error.
            rec.wire_error = true;
            rec.open_loop = open_loop;
            ++ps.wire_errors;
            s.ready.pop_front();
            continue;
          }
          break;  // wait for the target's ACK
        }
        frame = encode_frame(op.kind == RequestKind::kUnload
                                 ? FrameType::kUnload
                                 : FrameType::kRelocate,
                             idx + 1,
                             encode_target({s.tenant, target.service_id}));
      }
      rec.sent = true;
      rec.open_loop = open_loop;
      const net::IoStatus st = s.conn->queue_write(frame);
      s.ready.pop_front();
      ++ps.sent;
      ++s.inflight;
      if (st == net::IoStatus::kClosed || st == net::IoStatus::kError) {
        s.dead = true;
      }
    }
  }
}

void LoadClient::poll_once(std::uint64_t timeout_ns, PhaseStats& ps) {
  std::vector<pollfd> fds;
  std::vector<std::size_t> which;
  for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
    Session& s = *conns_[ci];
    if (s.dead) continue;
    short events = POLLIN;
    if (s.conn->wants_write()) events |= POLLOUT;
    fds.push_back({s.conn->fd(), events, 0});
    which.push_back(ci);
  }
  if (fds.empty()) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000ull);
  const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (rc <= 0) return;
  for (std::size_t k = 0; k < fds.size(); ++k) {
    if (fds[k].revents == 0) continue;
    const std::size_t ci = which[k];
    Session& s = *conns_[ci];
    net::IoStatus st = net::IoStatus::kOk;
    if (fds[k].revents & POLLOUT) st = s.conn->on_writable();
    if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) {
      st = s.conn->on_readable();
      Frame f;
      try {
        while (s.reader.next(s.conn->inbuf(), f)) {
          handle_frame(static_cast<int>(ci), f, ps);
        }
      } catch (const VbsError&) {
        st = net::IoStatus::kError;
      }
    }
    if (st == net::IoStatus::kClosed || st == net::IoStatus::kError ||
        s.conn->closed()) {
      // Everything still in flight on a dead connection is a wire error.
      s.dead = true;
      for (OpRecord& rec : records_[ci]) {
        if (rec.sent && rec.result_ns == 0 && !rec.door_shed &&
            !rec.wire_error) {
          rec.wire_error = true;
          ++ps.wire_errors;
        }
      }
      s.inflight = 0;
    }
  }
}

void LoadClient::handle_frame(int ci, const Frame& f, PhaseStats& ps) {
  Session& s = *conns_[static_cast<std::size_t>(ci)];
  if (f.type == FrameType::kPong) {
    last_pong_ = f.corr;
    return;
  }
  auto& recs = records_[static_cast<std::size_t>(ci)];
  if (f.corr == 0 || f.corr > recs.size()) {
    fail("frame for an unknown request");
  }
  OpRecord& rec = recs[f.corr - 1];
  switch (f.type) {
    case FrameType::kAck:
      rec.ack_ns = telem::now_ns();
      rec.service_id = decode_ack(f.payload).request_id;
      break;
    case FrameType::kResult:
      rec.result_ns = telem::now_ns();
      rec.status = decode_result(f.payload).status;
      --s.inflight;
      ++ps.results;
      if (rec.status == RequestStatus::kDone) ++ps.done;
      if (ps.window_end_ns != 0 && rec.result_ns <= ps.window_end_ns) {
        ++ps.in_window;
      }
      break;
    case FrameType::kError:
      if (decode_error(f.payload).code == VbsErrc::kQueueFull) {
        rec.door_shed = true;
        ++ps.door_sheds;
      } else {
        rec.wire_error = true;
        ++ps.wire_errors;
      }
      --s.inflight;
      break;
    default:
      fail("unexpected frame type");
  }
}

PhaseStats LoadClient::run_open(long long count, double rate, double grace_s) {
  PhaseStats ps;
  const std::uint64_t period_ns = static_cast<std::uint64_t>(1e9 / rate);
  const std::uint64_t t0 = telem::now_ns() + 1'000'000;
  const std::uint64_t last_due = t0 + static_cast<std::uint64_t>(count) * period_ns;
  const std::uint64_t deadline =
      last_due + static_cast<std::uint64_t>(grace_s * 1e9);
  const auto n = static_cast<long long>(conns_.size());
  long long issued = 0;
  for (;;) {
    const std::uint64_t now = telem::now_ns();
    while (issued < count &&
           t0 + static_cast<std::uint64_t>(issued) * period_ns <= now) {
      const auto ci = static_cast<std::size_t>(issued % n);
      Session& s = *conns_[ci];
      if (s.next_op >= schedules_[ci].size()) fail("schedule exhausted");
      OpRecord& rec = records_[ci][s.next_op];
      rec.due_ns = t0 + static_cast<std::uint64_t>(issued) * period_ns;
      rec.ready_ns = now;
      s.ready.push_back(s.next_op++);
      ++issued;
    }
    pump_sends(ps, /*open_loop=*/true);
    const long long out = outstanding();
    if (issued == count && out == 0) break;
    if (now > deadline) {
      ps.unfinished = out;
      break;
    }
    std::uint64_t wait = 1'000'000;
    if (issued < count) {
      const std::uint64_t due = t0 + static_cast<std::uint64_t>(issued) * period_ns;
      wait = due > now ? std::min(wait, due - now) : 0;
    }
    poll_once(wait, ps);
  }
  return ps;
}

PhaseStats LoadClient::run_closed(int window, double seconds, double grace_s) {
  PhaseStats ps;
  const std::uint64_t start = telem::now_ns();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t deadline = end + static_cast<std::uint64_t>(grace_s * 1e9);
  ps.window_end_ns = end;
  for (;;) {
    const std::uint64_t now = telem::now_ns();
    if (now < end) {
      for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
        Session& s = *conns_[ci];
        while (!s.dead &&
               s.inflight + static_cast<long long>(s.ready.size()) < window &&
               s.next_op < schedules_[ci].size()) {
          OpRecord& rec = records_[ci][s.next_op];
          rec.due_ns = now;
          rec.ready_ns = now;
          s.ready.push_back(s.next_op++);
        }
      }
    }
    // Requests made ready before the window closed still go out (one may
    // have been waiting for its target's ACK).
    pump_sends(ps, /*open_loop=*/false);
    const long long out = outstanding();
    if (now >= end && out == 0) break;
    if (now > deadline) {
      ps.unfinished = out;
      break;
    }
    poll_once(now < end ? std::min<std::uint64_t>(end - now, 1'000'000)
                        : 1'000'000,
              ps);
  }
  return ps;
}

double LoadClient::ping_us(int n) {
  Session& s = *conns_.front();
  std::vector<double> rtts;
  PhaseStats ignored;
  for (int i = 0; i < n && !s.dead; ++i) {
    const std::uint64_t corr = kPingCorrBase + static_cast<std::uint64_t>(i);
    const std::uint64_t t0 = telem::now_ns();
    s.conn->queue_write(encode_frame(FrameType::kPing, corr, std::string()));
    while (last_pong_ != corr && !s.dead) {
      if (telem::now_ns() - t0 > 2'000'000'000ull) fail("PING timed out");
      poll_once(1'000'000, ignored);
    }
    rtts.push_back(static_cast<double>(telem::now_ns() - t0) * 1e-3);
  }
  if (rtts.empty()) return 0.0;
  std::nth_element(rtts.begin(), rtts.begin() + rtts.size() / 2, rtts.end());
  return rtts[rtts.size() / 2];
}

}  // namespace perfbench
