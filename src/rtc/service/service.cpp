#include "rtc/service/service.h"

#include <algorithm>
#include <stdexcept>

#include "flow/artifact_io.h"
#include "util/bitio.h"
#include "util/hash.h"
#include "util/telemetry.h"

namespace vbs {

namespace {

/// Fault-plan sequence key of one request attempt: id and attempt are the
/// logical identity of a processing step, so the same plan rolls the same
/// faults at any thread count.
std::uint64_t attempt_key(RequestId id, int attempt) {
  return (static_cast<std::uint64_t>(id) << 8) |
         (static_cast<std::uint64_t>(attempt) & 0xff);
}

}  // namespace

const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::kQueued:
      return "queued";
    case RequestStatus::kDone:
      return "done";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kFailed:
      return "failed";
    case RequestStatus::kShed:
      return "shed";
    case RequestStatus::kDeadline:
      return "deadline";
  }
  return "?";
}

ReconfigService::ReconfigService(const ArchSpec& spec, int width, int height,
                                 ServiceOptions opts)
    : rtc_(spec, width, height),
      opts_(std::move(opts)),
      policy_(make_placement_policy(opts_.policy)),
      cache_(opts_.cache_capacity_bits),
      pool_(std::max(1, opts_.threads)) {
  if (opts_.max_batch < 1) {
    throw std::invalid_argument("service: max_batch must be >= 1");
  }
  if (opts_.retry_limit < 0 || opts_.retry_backoff_ticks < 0 ||
      opts_.deadline_ticks < 0) {
    throw std::invalid_argument(
        "service: retry_limit/retry_backoff_ticks/deadline_ticks must be "
        ">= 0");
  }
  // The plan lives in opts_, so the pointers stay valid for the service
  // lifetime; an all-zero plan never fires.
  rtc_.set_fault_plan(&opts_.faults);
  cache_.set_fault_plan(&opts_.faults);
}

ReconfigService::Request ReconfigService::make_request(RequestKind kind,
                                                       int tenant) {
  Request req;
  req.id = next_request_++;
  req.kind = kind;
  req.tenant = tenant;
  const auto it = tenant_priority_.find(tenant);
  req.priority = it == tenant_priority_.end() ? 0 : it->second;
  req.submitted_tick = now_ticks_;
  req.submitted_ns = telem::now_ns();
  TenantStats& t = tenants_[tenant];
  t.priority = req.priority;
  ++t.submitted;
  return req;
}

void ReconfigService::shed_request(Request& req) {
  req.shed = true;
  ++stats_.shed;
  ++tenants_[req.tenant].shed;
  last_shed_ = req.id;
}

void ReconfigService::admit_load(Request req) {
  if (opts_.queue_limit == 0 || live_loads_ < opts_.queue_limit) {
    queue_.push_back(std::move(req));
    ++live_loads_;
    return;
  }
  // Queue full. Shed the newest queued load of minimal priority — unless
  // even that one outranks (or ties) the arrival, in which case the
  // arrival itself is shed. `<=` keeps the latest minimum, so the oldest
  // work of a tenant survives its own flood.
  Request* victim = nullptr;
  for (Request& q : queue_) {
    if (q.kind != RequestKind::kLoad || q.shed) continue;
    if (victim == nullptr || q.priority <= victim->priority) victim = &q;
  }
  if (victim != nullptr && victim->priority < req.priority) {
    shed_request(*victim);
    --live_loads_;
    queue_.push_back(std::move(req));
    ++live_loads_;
  } else {
    shed_request(req);
    queue_.push_back(std::move(req));  // still owed a kShed result
  }
}

RequestId ReconfigService::submit_load(BitVector stream, int tenant) {
  Request req = make_request(RequestKind::kLoad, tenant);
  req.stream = std::move(stream);
  const RequestId id = req.id;
  last_shed_ = kNoRequest;
  admit_load(std::move(req));
  if (journal_) {
    // Apply-then-append: both admission paths leave the new request at the
    // back of the queue, so its stream is journaled from there. The shed
    // decision is deterministic given replayed state; its record is a
    // cross-check, bundled into the same append so a torn tail can only
    // lose the companion, never reorder it.
    std::string p;
    ServiceJournal::put_u64(p, static_cast<std::uint64_t>(id));
    ServiceJournal::put_u32(p, static_cast<std::uint32_t>(tenant));
    ServiceJournal::put_bits(p, queue_.back().stream);
    if (last_shed_ != kNoRequest) {
      std::string s;
      ServiceJournal::put_u64(s, static_cast<std::uint64_t>(last_shed_));
      journal_append2(ServiceJournal::Kind::kAdmitLoad, p,
                      ServiceJournal::Kind::kShed, s);
    } else {
      journal_append(ServiceJournal::Kind::kAdmitLoad, p);
    }
  }
  return id;
}

RequestId ReconfigService::submit_unload(RequestId load_request, int tenant) {
  Request req = make_request(RequestKind::kUnload, tenant);
  req.target = load_request;
  const RequestId id = req.id;
  queue_.push_back(std::move(req));
  if (journal_) {
    std::string p;
    ServiceJournal::put_u64(p, static_cast<std::uint64_t>(id));
    ServiceJournal::put_u64(p, static_cast<std::uint64_t>(load_request));
    ServiceJournal::put_u32(p, static_cast<std::uint32_t>(tenant));
    journal_append(ServiceJournal::Kind::kAdmitUnload, p);
  }
  return id;
}

RequestId ReconfigService::submit_relocate(RequestId load_request,
                                           int tenant) {
  Request req = make_request(RequestKind::kRelocate, tenant);
  req.target = load_request;
  const RequestId id = req.id;
  queue_.push_back(std::move(req));
  if (journal_) {
    std::string p;
    ServiceJournal::put_u64(p, static_cast<std::uint64_t>(id));
    ServiceJournal::put_u64(p, static_cast<std::uint64_t>(load_request));
    ServiceJournal::put_u32(p, static_cast<std::uint32_t>(tenant));
    journal_append(ServiceJournal::Kind::kAdmitRelocate, p);
  }
  return id;
}

void ReconfigService::set_tenant_priority(int tenant, int priority) {
  tenant_priority_[tenant] = priority;
  tenants_[tenant].priority = priority;
  if (journal_) {
    std::string p;
    ServiceJournal::put_u32(p, static_cast<std::uint32_t>(tenant));
    ServiceJournal::put_u32(p, static_cast<std::uint32_t>(priority));
    journal_append(ServiceJournal::Kind::kSetPriority, p);
  }
}

TaskId ReconfigService::task_of(RequestId load_request) const {
  const auto it = task_of_request_.find(load_request);
  return it == task_of_request_.end() ? kNoTask : it->second;
}

RequestResult ReconfigService::make_result(const Request& req) const {
  RequestResult res;
  res.request = req.id;
  res.kind = req.kind;
  res.tenant = req.tenant;
  res.priority = req.priority;
  res.attempts = req.attempt;
  return res;
}

void ReconfigService::finish(const Request& req, RequestResult res,
                             std::vector<RequestResult>& out) {
  res.latency_ticks = now_ticks_ - req.submitted_tick;
  res.latency_seconds = telem::seconds_since(req.submitted_ns);
  if (res.status == RequestStatus::kShed) {
    // Never processed: the whole lifetime was spent queued.
    res.queue_wait_ticks = res.latency_ticks;
  } else {
    res.queue_wait_ticks = req.queue_wait_ticks;
    res.backoff_ticks = req.backoff_ticks;
    res.spike_ticks = req.spike_ticks;
    res.exec_ticks = req.exec_ticks;
  }
  TenantStats& t = tenants_[req.tenant];
  t.latency_ticks += res.latency_ticks;
  t.queue_wait_ticks += res.queue_wait_ticks;
  t.backoff_ticks += res.backoff_ticks;
  t.spike_ticks += res.spike_ticks;
  t.exec_ticks += res.exec_ticks;
  switch (res.status) {
    case RequestStatus::kDone:
      ++t.done;
      break;
    case RequestStatus::kRejected:
      ++t.rejected;
      break;
    case RequestStatus::kFailed:
      ++t.failed;
      break;
    case RequestStatus::kDeadline:
      ++t.deadline_misses;
      break;
    case RequestStatus::kShed:  // counted at shed time (admission)
    case RequestStatus::kQueued:
      break;
  }
  if (telem::enabled()) {
    // Modeled-tick request spans (pid 2, tid = tenant, 1 tick = 1us): one
    // parent span for the whole request, then the phases laid end to end —
    // they tile it exactly, by the tick identity on RequestResult.
    const auto ns = [](long long ticks) {
      return static_cast<std::uint64_t>(ticks) * 1000;
    };
    const std::uint64_t tid = static_cast<std::uint64_t>(req.tenant);
    std::uint64_t cursor = ns(req.submitted_tick);
    telem::emit_complete(
        telem::kPidTicks, tid, cursor, ns(res.latency_ticks), "service",
        "request",
        {{"id", telem::SpanArg::Type::kInt, res.request, 0.0, {}},
         {"status", telem::SpanArg::Type::kString, 0, 0.0,
          to_string(res.status)}});
    const struct {
      const char* name;
      long long ticks;
    } phases[] = {{"queue_wait", res.queue_wait_ticks},
                  {"backoff", res.backoff_ticks},
                  {"spike", res.spike_ticks},
                  {"exec", res.exec_ticks}};
    for (const auto& ph : phases) {
      if (ph.ticks > 0) {
        telem::emit_complete(telem::kPidTicks, tid, cursor, ns(ph.ticks),
                             "service", ph.name);
      }
      cursor += ns(ph.ticks);
    }
  }
  out.push_back(std::move(res));
}

bool ReconfigService::tick_and_check_deadline(Request& req,
                                              std::vector<RequestResult>& out) {
  const long long entry = now_ticks_;
  now_ticks_ = std::max(now_ticks_, req.not_before);
  // Phase attribution: a first attempt waited in the admission queue since
  // submit; a retry waited (idle to not_before included) since
  // schedule_retry stamped retry_tick.
  if (req.attempt == 1) {
    req.queue_wait_ticks = entry - req.submitted_tick;
  } else {
    req.backoff_ticks += now_ticks_ - req.retry_tick;
  }
  const long long spike =
      opts_.faults.latency_spike_ticks(attempt_key(req.id, req.attempt));
  if (spike > 0) {
    now_ticks_ += spike;
    req.spike_ticks += spike;
    ++stats_.faults_injected;
    stats_.latency_spike_ticks += spike;
  }
  if (opts_.deadline_ticks > 0 &&
      now_ticks_ - req.submitted_tick > opts_.deadline_ticks) {
    RequestResult res = make_result(req);
    res.status = RequestStatus::kDeadline;
    res.code = VbsErrc::kDeadline;
    res.error = "deadline of " + std::to_string(opts_.deadline_ticks) +
                " ticks exceeded";
    ++stats_.deadline_misses;
    finish(req, std::move(res), out);
    return false;
  }
  ++now_ticks_;  // the one-tick service cost of actually processing it
  ++req.exec_ticks;
  return true;
}

bool ReconfigService::schedule_retry(const Request& req) {
  if (req.attempt > opts_.retry_limit) return false;
  Request retry = req;
  retry.attempt = req.attempt + 1;
  const int shift = std::min(req.attempt - 1, 20);
  retry.not_before = now_ticks_ + (opts_.retry_backoff_ticks << shift);
  retry.retry_tick = now_ticks_;
  queue_.push_back(std::move(retry));
  ++stats_.retries;
  ++tenants_[req.tenant].retries;
  return true;
}

double ReconfigService::fragmentation() const {
  const RectAllocator& a = rtc_.allocator();
  const int free_tiles = a.width() * a.height() - a.occupied_tiles();
  if (free_tiles <= 0) return 0.0;
  return 1.0 - static_cast<double>(a.largest_free_rect_area()) / free_tiles;
}

std::vector<RequestResult> ReconfigService::drain() {
  if (queue_.empty()) return {};  // pure no-op: nothing to journal either
  TELEM_SPAN("service", "drain");
  std::vector<RequestResult> results;
  results.reserve(queue_.size());
  // Outer loop: retries requeue themselves, so one pass may spawn another.
  while (!queue_.empty()) {
    std::vector<Request> work;
    work.reserve(queue_.size());
    for (Request& r : queue_) work.push_back(std::move(r));
    queue_.clear();
    live_loads_ = 0;
    // Priority-ordered processing; stable, so equal priorities (the
    // default: everything 0) keep plain admission order.
    std::stable_sort(work.begin(), work.end(),
                     [](const Request& a, const Request& b) {
                       return a.priority > b.priority;
                     });

    const auto emit_shed = [&](const Request& r) {
      RequestResult res = make_result(r);
      res.status = RequestStatus::kShed;
      res.code = VbsErrc::kQueueFull;
      res.error = "shed at admission: queue limit " +
                  std::to_string(opts_.queue_limit);
      finish(r, std::move(res), results);
    };

    std::size_t i = 0;
    while (i < work.size()) {
      if (work[i].shed) {
        emit_shed(work[i]);
        ++i;
        continue;
      }
      if (work[i].kind == RequestKind::kLoad) {
        // Maximal run of consecutive live loads, capped at max_batch: one
        // parallel devirtualization batch. The cap only bounds memory;
        // batch boundaries depend on the (sorted) queue alone, never on
        // thread count.
        std::vector<Request*> batch;
        while (i < work.size() && work[i].kind == RequestKind::kLoad &&
               static_cast<int>(batch.size()) < opts_.max_batch) {
          if (work[i].shed) {
            emit_shed(work[i]);
          } else {
            batch.push_back(&work[i]);
          }
          ++i;
        }
        process_load_batch(batch, results);
      } else if (work[i].kind == RequestKind::kUnload) {
        process_unload(work[i], results);
        ++i;
      } else {
        process_relocate(work[i], results);
        ++i;
      }
    }
  }
  // One result per request id; ids are admission order.
  std::stable_sort(results.begin(), results.end(),
                   [](const RequestResult& a, const RequestResult& b) {
                     return a.request < b.request;
                   });
  if (journal_) {
    // drain() performs no I/O between records, so a single post-drain
    // commit record gives exact crash semantics: a torn or missing kCommit
    // recovers to the pre-drain state and the drain is simply redone.
    std::string p;
    ServiceJournal::put_u64(p, state_fingerprint());
    journal_append(ServiceJournal::Kind::kCommit, p);
  }
  return results;
}

std::optional<Point> ReconfigService::admit_placement(int w, int h,
                                                      RequestId cause,
                                                      RequestResult& res) {
  if (const auto slot = policy_->place(rtc_.allocator(), w, h)) return slot;
  if (!opts_.evict_to_fit) return std::nullopt;

  std::vector<VictimCandidate> candidates;
  candidates.reserve(task_info_.size());
  for (const auto& [id, info] : task_info_) {
    candidates.push_back({id, rtc_.record(id).rect, info.last_use});
  }
  const auto plan = plan_eviction(rtc_.allocator(), candidates, w, h);
  if (!plan) return std::nullopt;
  for (const TaskId victim : plan->victims) {
    const Rect r = rtc_.record(victim).rect;
    rtc_.unload(victim);
    forget_task(victim);
    eviction_log_.push_back(
        {static_cast<long long>(eviction_log_.size()), victim, r, cause});
    ++stats_.task_evictions;
    ++res.evicted_tasks;
  }
  return plan->origin;
}

void ReconfigService::forget_task(TaskId id) {
  const auto it = task_info_.find(id);
  if (it == task_info_.end()) return;
  task_of_request_.erase(it->second.origin_request);
  task_info_.erase(it);
}

void ReconfigService::process_load_batch(const std::vector<Request*>& batch,
                                         std::vector<RequestResult>& out) {
  // Per-request resolution: which decoded stream serves it, or why not.
  struct Pending {
    std::uint64_t hash = 0;
    std::shared_ptr<const DecodedStream> decoded;  ///< cache or batch dup
    int job = -1;          ///< fresh decode job index, -1 if cached/failed
    bool cache_hit = false;
    VbsErrc parse_code = VbsErrc::kNone;
    std::string parse_error;
  };
  std::vector<Pending> pending(batch.size());
  /// One fresh devirtualization per distinct uncached stream.
  std::vector<std::shared_ptr<DecodedStream>> jobs;
  std::map<std::uint64_t, int> job_of_hash;

  // Admission-order resolution: cache lookups and batch deduplication are
  // serial, so LRU order and hit counters never depend on thread count.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = pending[i];
    p.hash = stream_content_hash(batch[i]->stream);
    if (auto cached = cache_.find(p.hash)) {
      p.decoded = std::move(cached);
      p.cache_hit = true;
      continue;
    }
    if (const auto dup = job_of_hash.find(p.hash); dup != job_of_hash.end()) {
      p.job = dup->second;
      p.cache_hit = true;  // decode skipped: the batch twin pays for it
      continue;
    }
    try {
      auto job = std::make_shared<DecodedStream>();
      job->image = deserialize_vbs(batch[i]->stream);
      p.job = static_cast<int>(jobs.size());
      job_of_hash.emplace(p.hash, p.job);
      jobs.push_back(std::move(job));
    } catch (const VbsError& ex) {
      // A hostile stream fails this one request, typed; the batch goes on.
      p.parse_code = ex.code();
      p.parse_error = ex.what();
    } catch (const std::exception& ex) {
      p.parse_code = VbsErrc::kDecodeFailed;
      p.parse_error = ex.what();
    }
  }

  // Batched asynchronous devirtualization: the entries of all jobs are one
  // flat work list on the pool (decode_images).
  std::vector<ImageDecode> decodes(jobs.size());
  std::vector<const VbsImage*> images;
  std::size_t entries = 0;
  for (const auto& job : jobs) {
    images.push_back(&job->image);
    entries += job->image.entries.size();
  }
  if (entries > 0) {
    ++stats_.batches;
    telem::Span batch_span("service", "decode_batch");
    batch_span.arg("requests", batch.size()).arg("entries", entries);
    decodes = decode_images(images, pool_);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      jobs[j]->payloads = std::move(decodes[j].payloads);
      jobs[j]->decode = decodes[j].decode;
      stats_.decode += decodes[j].decode;
    }
  }

  // Commit strictly in processing order.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Request& req = *batch[i];
    Pending& p = pending[i];
    if (req.attempt == 1) ++stats_.loads;  // retries are not new requests
    // A request past its deadline is dropped here: any decode work it
    // caused above is wasted, exactly like an overloaded real service.
    if (!tick_and_check_deadline(req, out)) continue;
    RequestResult res = make_result(req);

    if (!p.parse_error.empty()) {
      res.status = RequestStatus::kFailed;
      res.code = p.parse_code;
      res.error = p.parse_error;
      ++stats_.failed;
      finish(req, std::move(res), out);
      continue;
    }

    std::shared_ptr<const DecodedStream> decoded = p.decoded;
    double decode_seconds = 0.0;
    DecodeStats decode_cost;  // stays zero for warm loads
    VbsErrc code = VbsErrc::kNone;
    std::string error;
    if (!decoded && p.job >= 0) {
      const auto& job = jobs[static_cast<std::size_t>(p.job)];
      const ImageDecode& d = decodes[static_cast<std::size_t>(p.job)];
      if (d.error.empty()) {
        // Injected transient decode fault: only an attempt that actually
        // paid for devirtualization can lose it. Batch twins keep their
        // shared decode; the cache is NOT warmed by a faulted attempt.
        if (!p.cache_hit &&
            opts_.faults.decode_fails(attempt_key(req.id, req.attempt))) {
          ++stats_.faults_injected;
          if (schedule_retry(req)) continue;  // result owed by the retry
          res.status = RequestStatus::kFailed;
          res.code = VbsErrc::kFaultInjected;
          res.error = "injected decode fault (retries exhausted)";
          ++stats_.failed;
          finish(req, std::move(res), out);
          continue;
        }
        decoded = job;
        // The first committer of a fresh decode carries its cost; batch
        // twins of the same content count as warm.
        if (!p.cache_hit) {
          decode_seconds = d.seconds;
          decode_cost = job->decode;
        }
        // A fresh decode warms the cache even if placement fails below: a
        // retry after departures should not pay for routing again.
        cache_.insert(p.hash, job);
      } else {
        code = d.code;
        error = d.error;
      }
    }

    if (!decoded) {
      res.status = RequestStatus::kFailed;
      res.code = code;
      res.error = error;
      ++stats_.failed;
      finish(req, std::move(res), out);
      continue;
    }

    res.cache_hit = p.cache_hit;
    if (p.cache_hit) {
      ++stats_.warm_loads;
    } else {
      ++stats_.cold_loads;
    }
    const VbsImage& img = decoded->image;
    const auto slot = admit_placement(img.task_w, img.task_h, req.id, res);
    if (!slot) {
      res.status = RequestStatus::kRejected;
      res.code = VbsErrc::kNoPlacement;
      res.error = "no placement for " + std::to_string(img.task_w) + "x" +
                  std::to_string(img.task_h);
      ++stats_.rejected;
      finish(req, std::move(res), out);
      continue;
    }
    TaskId id = kNoTask;
    try {
      id = rtc_.load_decoded(img, decoded->payloads, req.stream.size(), *slot,
                             decode_cost, decode_seconds, pool_.size());
    } catch (const VbsError& ex) {
      if (ex.code() == VbsErrc::kFaultInjected) {
        // Injected transient allocation fault (the controller rolled back
        // before touching the allocator): back off and retry.
        ++stats_.faults_injected;
        if (schedule_retry(req)) continue;
        res.status = RequestStatus::kFailed;
        res.code = VbsErrc::kFaultInjected;
        res.error = "injected allocation fault (retries exhausted)";
      } else {
        // Hostile stream surviving parse (e.g. wrong architecture): a
        // typed per-request failure, never a drain teardown.
        res.status = RequestStatus::kFailed;
        res.code = ex.code();
        res.error = ex.what();
      }
      ++stats_.failed;
      finish(req, std::move(res), out);
      continue;
    }
    task_of_request_[req.id] = id;
    task_info_[id] = {p.hash, ++use_seq_, req.id};
    res.status = RequestStatus::kDone;
    res.task = id;
    res.rect = rtc_.record(id).rect;
    res.decode_seconds = decode_seconds;
    finish(req, std::move(res), out);
  }
}

void ReconfigService::process_unload(Request& req,
                                     std::vector<RequestResult>& out) {
  ++stats_.unloads;
  if (!tick_and_check_deadline(req, out)) return;
  RequestResult res = make_result(req);
  const TaskId id = task_of(req.target);
  if (id == kNoTask) {
    // Already evicted (or the load never committed): an unload of a gone
    // task is not an error in a multi-tenant queue, just a no-op.
    res.status = RequestStatus::kRejected;
    res.code = VbsErrc::kNoPlacement;
    res.error = "task of request " + std::to_string(req.target) + " is gone";
    ++stats_.rejected;
  } else {
    res.task = id;
    res.rect = rtc_.record(id).rect;
    rtc_.unload(id);
    forget_task(id);
    res.status = RequestStatus::kDone;
  }
  finish(req, std::move(res), out);
}

void ReconfigService::process_relocate(Request& req,
                                       std::vector<RequestResult>& out) {
  ++stats_.relocates;
  if (!tick_and_check_deadline(req, out)) return;
  RequestResult res = make_result(req);
  const TaskId id = task_of(req.target);
  if (id == kNoTask) {
    res.status = RequestStatus::kRejected;
    res.code = VbsErrc::kNoPlacement;
    res.error = "task of request " + std::to_string(req.target) + " is gone";
    ++stats_.rejected;
    finish(req, std::move(res), out);
    return;
  }
  const Rect cur = rtc_.record(id).rect;
  res.task = id;
  res.rect = cur;
  // Destination by policy on the live occupancy (own tiles still marked, so
  // the choice can never overlap the task itself — the controller has no
  // shadow plane). No free slot means the relocation is a no-op.
  const auto slot = policy_->place(rtc_.allocator(), cur.w, cur.h);
  if (slot) {
    TaskInfo& info = task_info_.at(id);
    const std::uint64_t t0 = telem::now_ns();
    try {
      if (const auto cached = cache_.find(info.content_hash)) {
        rtc_.relocate_decoded(id, *slot, cached->payloads);
        ++stats_.relocates_cached;
      } else {
        // Cache miss (evicted or capacity 0): re-decode the retained image
        // once — serially, a relocation is a single stream — then warm the
        // cache with the result so N uncached relocations of the same
        // content pay for one decode, not N.
        const auto fresh = decode_stream(rtc_.image_of(id));
        stats_.decode += fresh->decode;
        cache_.insert(info.content_hash, fresh);
        rtc_.relocate_decoded(id, *slot, fresh->payloads);
        ++stats_.relocates_decoded;
      }
    } catch (const VbsError& ex) {
      res.status = RequestStatus::kFailed;
      res.code = ex.code();
      res.error = ex.what();
      ++stats_.failed;
      finish(req, std::move(res), out);
      return;
    }
    res.decode_seconds = telem::seconds_since(t0);
    res.rect = rtc_.record(id).rect;
    info.last_use = ++use_seq_;
  }
  res.status = RequestStatus::kDone;
  finish(req, std::move(res), out);
}

// --- durability: journaling, snapshots, recovery -----------------------------

namespace {

[[noreturn]] void bad_journal(const std::string& what) {
  throw VbsError(VbsErrc::kBadJournal, "journal: " + what);
}

void put_bytes(BitWriter& w, const std::string& s) {
  artio::put_i64(w, static_cast<std::int64_t>(s.size()));
  for (const char c : s) w.write(static_cast<unsigned char>(c), 8);
}

std::string get_bytes(BitReader& r) {
  const std::int64_t n = artio::get_i64(r);
  // Bound BEFORE allocating: a corrupt length must reject, not bad_alloc.
  if (n < 0 || static_cast<std::uint64_t>(n) > r.remaining() / 8) {
    bad_journal("bad byte count");
  }
  std::string s(static_cast<std::size_t>(n), '\0');
  for (char& c : s) c = static_cast<char>(r.read(8));
  return s;
}

void put_bitvec(BitWriter& w, const BitVector& bits) {
  w.write(bits.size(), 64);
  w.write_vector(bits);
}

BitVector get_bitvec(BitReader& r) {
  const std::uint64_t nbits = r.read(64);
  return r.read_vector(static_cast<std::size_t>(nbits));
}

// --- the state walk ----------------------------------------------------------
//
// ReconfigService::walk_state lists every replay-deterministic field once, in
// one order. Three archives visit it:
//   StateHasher  folds each integer into state_fingerprint() through
//                hash_u64, as its 64-bit two's-complement value;
//   StateWriter  writes the snapshot, each field at its i32/i64 width;
//   StateReader  reads it back, bounding every count before any allocation.
// An archive offers i32/i64 (any integers, in order), bit, enum8 and count,
// plus the places where the fingerprint and the snapshot differ: the cache
// section, a task's snapshot-only tail and a queued load's stream. Those live
// in the archives; the prefix (fingerprint tag or snapshot version, open
// bytes and configuration memory) lives in the three callers.

/// Walks a map: its size, then each key and value. Reading inserts the
/// entries in stream order.
template <class Ar, class Map, class F>
void walk_map(Ar& ar, Map& m, const char* what, F entry) {
  std::size_t n = m.size();
  ar.count(n, what);
  if constexpr (Ar::kReading) {
    for (std::size_t i = 0; i < n; ++i) {
      typename Map::key_type k{};
      typename Map::mapped_type v{};
      entry(k, v);
      m.insert_or_assign(k, std::move(v));
    }
  } else {
    for (auto& [k, v] : m) entry(k, v);
  }
}

/// Walks a vector or deque: its size, then each element. Reading appends.
template <class Ar, class Seq, class F>
void walk_seq(Ar& ar, Seq& seq, const char* what, F elem) {
  std::size_t n = seq.size();
  ar.count(n, what);
  if constexpr (Ar::kReading) {
    for (std::size_t i = 0; i < n; ++i) elem(seq.emplace_back());
  } else {
    for (auto& e : seq) elem(e);
  }
}

template <class Ar, class Stats>
void walk_decode(Ar& ar, Stats& s) {
  ar.i64(s.pairs_routed, s.pairs_failed, s.nodes_expanded, s.entries_decoded,
         s.raw_entries, s.negotiation_iterations);
}

/// The cache's serial counters; the fingerprint and the snapshot give them
/// at different places of their cache sections.
template <class Ar, class Cache>
void walk_cache_counters(Ar& ar, Cache& c) {
  long long hits = c.hits(), misses = c.misses(), insertions = c.insertions();
  long long evictions = c.evictions(), fault_drops = c.fault_drops();
  std::uint64_t insert_seq = c.insert_seq();
  ar.i64(hits, misses, insertions, evictions, fault_drops, insert_seq);
  if constexpr (Ar::kReading) {
    c.restore_counters(hits, misses, insertions, evictions, fault_drops,
                       insert_seq);
  }
}

class StateHasher {
 public:
  static constexpr bool kReading = false;

  StateHasher() {
    constexpr char kTag[] = "vbs.service.state.v1";
    h_ = fnv1a64(kTag, sizeof kTag - 1);
  }
  std::uint64_t value() const { return h_; }

  template <class... T>
  void i32(const T&... v) {
    (fold(v), ...);
  }
  template <class... T>
  void i64(const T&... v) {
    (fold(v), ...);
  }
  void bit(bool b) { fold(b); }
  template <class E>
  void enum8(E e, E, const char*) {
    fold(e);
  }
  void count(std::size_t n, const char*) { fold(n); }

  /// Content keys in MRU order with their footprints (the key IS the content
  /// hash, so payload bytes add nothing), the size, then the counters.
  void cache(const DecodedStreamCache& c) {
    const auto entries = c.entries_mru();
    fold(entries.size());
    for (const auto& [key, value] : entries) {
      fold(key);
      fold(value->footprint_bits());
    }
    fold(c.size_bits());
    walk_cache_counters(*this, c);
  }
  /// Wall time and threads_used are excluded; the image is the task's
  /// configuration, already hashed with config memory.
  void task_tail(const TaskRecord&, const ReconfigController&) {}
  /// A queued load by its content hash, anything else by 0.
  void queued_stream(const BitVector& stream, bool load) {
    fold(load ? stream_content_hash(stream) : 0);
  }

 private:
  template <class T>
  void fold(T v) {
    h_ = hash_u64(h_, static_cast<std::uint64_t>(v));
  }

  std::uint64_t h_;
};

class StateWriter {
 public:
  static constexpr bool kReading = false;

  BitWriter w;

  template <class... T>
  void i32(const T&... v) {
    (artio::put_i32(w, static_cast<std::int32_t>(v)), ...);
  }
  template <class... T>
  void i64(const T&... v) {
    (w.write(static_cast<std::uint64_t>(v), 64), ...);
  }
  void bit(bool b) { w.write_bit(b); }
  template <class E>
  void enum8(E e, E, const char*) {
    w.write(static_cast<std::uint64_t>(e), 8);
  }
  void count(std::size_t n, const char*) { i32(n); }

  /// Counters, then entries MRU -> LRU with images, payloads and decode
  /// stats (restore_entry rebuilds the same order).
  void cache(const DecodedStreamCache& c) {
    walk_cache_counters(*this, c);
    const auto entries = c.entries_mru();
    count(entries.size(), "cache entry");
    for (const auto& [key, value] : entries) {
      i64(key);
      put_bitvec(w, serialize_vbs(value->image));
      count(value->payloads.size(), "payload");
      for (const BitVector& p : value->payloads) put_bitvec(w, p);
      walk_decode(*this, value->decode);
    }
  }
  void task_tail(const TaskRecord& rec, const ReconfigController& rtc) {
    i32(rec.threads_used);
    put_bitvec(w, serialize_vbs(rtc.image_of(rec.id)));
  }
  void queued_stream(const BitVector& stream, bool) { put_bitvec(w, stream); }
};

class StateReader {
 public:
  static constexpr bool kReading = true;

  explicit StateReader(const BitVector& snapshot) : r(snapshot) {}

  BitReader r;

  template <class... T>
  void i32(T&... v) {
    ((v = static_cast<T>(artio::get_i32(r))), ...);
  }
  template <class... T>
  void i64(T&... v) {
    ((v = static_cast<T>(r.read(64))), ...);
  }
  void bit(bool& b) { b = r.read_bit(); }
  template <class E>
  void enum8(E& e, E max, const char* what) {
    const std::uint64_t v = r.read(8);
    if (v > static_cast<std::uint64_t>(max)) {
      bad_journal(std::string("bad ") + what);
    }
    e = static_cast<E>(v);
  }
  /// Rejects counts that could not fit in the remaining bits (each element
  /// takes at least 64): a corrupt count fails typed, before allocating.
  void count(std::size_t& n, const char* what) {
    const std::int32_t v = artio::get_i32(r);
    if (v < 0 || static_cast<std::uint64_t>(v) > r.remaining() / 64) {
      bad_journal(std::string("bad ") + what + " count");
    }
    n = static_cast<std::size_t>(v);
  }

  void cache(DecodedStreamCache& c) {
    walk_cache_counters(*this, c);
    std::size_t n = 0;
    count(n, "cache entry");
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t key = 0;
      i64(key);
      auto ds = std::make_shared<DecodedStream>();
      ds->image = deserialize_vbs(get_bitvec(r));
      std::size_t npayloads = 0;
      count(npayloads, "payload");
      ds->payloads.resize(npayloads);
      for (BitVector& p : ds->payloads) p = get_bitvec(r);
      walk_decode(*this, ds->decode);
      c.restore_entry(key, std::move(ds));
    }
  }
  void task_tail(TaskRecord& rec, ReconfigController& rtc) {
    i32(rec.threads_used);
    rtc.restore_task(rec, deserialize_vbs(get_bitvec(r)));
  }
  void queued_stream(BitVector& stream, bool) { stream = get_bitvec(r); }
};

constexpr std::uint32_t kSnapshotVersion = 2;
constexpr std::uint32_t kOpenVersion = 1;

}  // namespace

template <class Self, class Ar>
void ReconfigService::walk_state(Self& self, Ar& ar) {
  // Controller: counters, aggregate decode stats, then the tasks.
  TaskId next_task = self.rtc_.next_task_id();
  std::uint64_t decode_seq = self.rtc_.decode_seq();
  std::uint64_t alloc_seq = self.rtc_.alloc_seq();
  DecodeStats total = self.rtc_.total_decode_stats();
  ar.i32(next_task);
  ar.i64(decode_seq, alloc_seq);
  walk_decode(ar, total);
  if constexpr (Ar::kReading) {
    self.rtc_.restore_counters(next_task, decode_seq, alloc_seq);
    self.rtc_.set_total_decode_stats(total);
  }
  const std::vector<TaskId> ids = self.rtc_.task_ids();  // none when reading
  std::size_t ntasks = ids.size();
  ar.count(ntasks, "task");
  for (std::size_t i = 0; i < ntasks; ++i) {
    TaskRecord rec;
    if constexpr (!Ar::kReading) rec = self.rtc_.record(ids[i]);
    ar.i32(rec.id, rec.rect.x, rec.rect.y, rec.rect.w, rec.rect.h);
    ar.i64(rec.stream_bits);
    walk_decode(ar, rec.decode);
    ar.task_tail(rec, self.rtc_);
  }
  ar.cache(self.cache_);
  // Service scalars and tables.
  ar.i64(self.next_request_, self.use_seq_, self.now_ticks_, self.live_loads_,
         self.last_shed_);
  walk_map(ar, self.tenant_priority_, "priority",
           [&](auto& tenant, auto& prio) { ar.i32(tenant, prio); });
  walk_map(ar, self.tenants_, "tenant", [&](auto& tenant, auto& t) {
    ar.i32(tenant, t.priority);
    ar.i64(t.submitted, t.done, t.rejected, t.failed, t.shed,
           t.deadline_misses, t.retries, t.latency_ticks, t.queue_wait_ticks,
           t.backoff_ticks, t.spike_ticks, t.exec_ticks);
  });
  walk_map(ar, self.task_of_request_, "request-map",
           [&](auto& req, auto& task) {
             ar.i64(req);
             ar.i32(task);
           });
  walk_map(ar, self.task_info_, "task-info", [&](auto& task, auto& info) {
    ar.i32(task);
    ar.i64(info.content_hash, info.last_use, info.origin_request);
  });
  walk_seq(ar, self.eviction_log_, "eviction", [&](auto& e) {
    ar.i64(e.seq);
    ar.i32(e.task, e.rect.x, e.rect.y, e.rect.w, e.rect.h);
    ar.i64(e.cause);
  });
  auto& st = self.stats_;
  ar.i64(st.loads, st.unloads, st.relocates, st.rejected, st.failed, st.shed,
         st.deadline_misses, st.retries, st.faults_injected,
         st.latency_spike_ticks, st.warm_loads, st.cold_loads,
         st.relocates_cached, st.relocates_decoded, st.batches,
         st.task_evictions);
  walk_decode(ar, st.decode);
  walk_seq(ar, self.queue_, "queue", [&](auto& q) {
    ar.i64(q.id);
    ar.enum8(q.kind, RequestKind::kRelocate, "queued request kind");
    ar.queued_stream(q.stream, q.kind == RequestKind::kLoad);
    ar.i64(q.target);
    ar.i32(q.tenant, q.priority, q.attempt);
    ar.bit(q.shed);
    ar.i64(q.submitted_tick, q.not_before, q.retry_tick, q.queue_wait_ticks,
           q.backoff_ticks, q.spike_ticks, q.exec_ticks);
    // Wall clock is not part of the contract; restamp on the telemetry
    // clock so a restored request still reports a sane wall latency.
    if constexpr (Ar::kReading) q.submitted_ns = telem::now_ns();
  });
}

std::uint64_t ReconfigService::state_fingerprint() const {
  StateHasher ar;
  // Configuration memory: the paper-level ground truth.
  const BitVector& config = rtc_.config_memory();
  for (const std::uint64_t w : config.words()) ar.i64(w);
  ar.i64(config.size());
  walk_state(*this, ar);
  return ar.value();
}

std::string ReconfigService::serialize_open() const {
  const ArchSpec& spec = rtc_.fabric().spec();
  std::string p;
  ServiceJournal::put_u32(p, kOpenVersion);
  ServiceJournal::put_u32(p, static_cast<std::uint32_t>(spec.chan_width));
  ServiceJournal::put_u32(p, static_cast<std::uint32_t>(spec.lut_k));
  ServiceJournal::put_u32(p, static_cast<std::uint32_t>(spec.sb_pattern));
  ServiceJournal::put_u32(p,
                          static_cast<std::uint32_t>(rtc_.fabric().width()));
  ServiceJournal::put_u32(p,
                          static_cast<std::uint32_t>(rtc_.fabric().height()));
  ServiceJournal::put_u32(p, static_cast<std::uint32_t>(opts_.threads));
  ServiceJournal::put_u64(p, opts_.cache_capacity_bits);
  ServiceJournal::put_str(p, opts_.policy);
  ServiceJournal::put_u32(p, opts_.evict_to_fit ? 1 : 0);
  ServiceJournal::put_u32(p, static_cast<std::uint32_t>(opts_.max_batch));
  ServiceJournal::put_u64(p, opts_.queue_limit);
  ServiceJournal::put_u64(p, static_cast<std::uint64_t>(opts_.deadline_ticks));
  ServiceJournal::put_u32(p, static_cast<std::uint32_t>(opts_.retry_limit));
  ServiceJournal::put_u64(
      p, static_cast<std::uint64_t>(opts_.retry_backoff_ticks));
  ServiceJournal::put_str(p, opts_.faults.spec());
  return p;
}

std::unique_ptr<ReconfigService> ReconfigService::construct_from_open(
    const std::string& open_payload, int threads) {
  try {
    std::size_t pos = 0;
    const std::uint32_t version = ServiceJournal::get_u32(open_payload, pos);
    if (version != kOpenVersion) bad_journal("unsupported open version");
    ArchSpec spec;
    spec.chan_width =
        static_cast<int>(ServiceJournal::get_u32(open_payload, pos));
    spec.lut_k = static_cast<int>(ServiceJournal::get_u32(open_payload, pos));
    const std::uint32_t sb = ServiceJournal::get_u32(open_payload, pos);
    if (sb > static_cast<std::uint32_t>(SbPattern::kWilton)) {
      bad_journal("bad sb_pattern");
    }
    spec.sb_pattern = static_cast<SbPattern>(sb);
    const int w = static_cast<int>(ServiceJournal::get_u32(open_payload, pos));
    const int h = static_cast<int>(ServiceJournal::get_u32(open_payload, pos));
    ServiceOptions o;
    o.threads = static_cast<int>(ServiceJournal::get_u32(open_payload, pos));
    o.cache_capacity_bits = static_cast<std::size_t>(
        ServiceJournal::get_u64(open_payload, pos));
    o.policy = ServiceJournal::get_str(open_payload, pos);
    o.evict_to_fit = ServiceJournal::get_u32(open_payload, pos) != 0;
    o.max_batch = static_cast<int>(ServiceJournal::get_u32(open_payload, pos));
    o.queue_limit = static_cast<std::size_t>(
        ServiceJournal::get_u64(open_payload, pos));
    o.deadline_ticks =
        static_cast<long long>(ServiceJournal::get_u64(open_payload, pos));
    o.retry_limit =
        static_cast<int>(ServiceJournal::get_u32(open_payload, pos));
    o.retry_backoff_ticks =
        static_cast<long long>(ServiceJournal::get_u64(open_payload, pos));
    o.faults = FaultPlan::parse(ServiceJournal::get_str(open_payload, pos));
    if (pos != open_payload.size()) bad_journal("trailing open bytes");
    if (threads > 0) o.threads = threads;
    return std::make_unique<ReconfigService>(spec, w, h, std::move(o));
  } catch (const VbsError& e) {
    if (e.code() == VbsErrc::kBadJournal) throw;
    bad_journal(e.what());
  } catch (const std::exception& e) {
    // Validation failures (ArchSpec, ServiceOptions, FaultPlan::parse) mean
    // the journal's configuration record is corrupt.
    bad_journal(e.what());
  }
}

BitVector ReconfigService::serialize_snapshot() const {
  StateWriter ar;
  ar.w.write(kSnapshotVersion, 32);
  put_bytes(ar.w, serialize_open());
  put_bitvec(ar.w, rtc_.config_memory());
  walk_state(*this, ar);
  return ar.w.take();
}

std::unique_ptr<ReconfigService> ReconfigService::restore_snapshot(
    const BitVector& snapshot, int threads) {
  try {
    StateReader ar(snapshot);
    if (ar.r.read(32) != kSnapshotVersion) {
      bad_journal("unsupported snapshot version");
    }
    auto svc = construct_from_open(get_bytes(ar.r), threads);
    svc->rtc_.restore_config_memory(get_bitvec(ar.r));
    walk_state(*svc, ar);
    if (!ar.r.at_end()) bad_journal("trailing snapshot bits");
    return svc;
  } catch (const VbsError& e) {
    if (e.code() == VbsErrc::kBadJournal) throw;
    bad_journal(e.what());  // truncation, bad VBS image, ... : corrupt
  } catch (const std::exception& e) {
    bad_journal(e.what());  // inconsistent snapshot (overlapping tasks, ...)
  }
}

void ReconfigService::journal_append(ServiceJournal::Kind kind,
                                     const std::string& payload) {
  try {
    journal_->append(kind, payload);
  } catch (const VbsError&) {
    journal_.reset();  // durability is gone; keep serving from memory
    throw;
  }
}

void ReconfigService::journal_append2(ServiceJournal::Kind k1,
                                      const std::string& p1,
                                      ServiceJournal::Kind k2,
                                      const std::string& p2) {
  try {
    journal_->append2(k1, p1, k2, p2);
  } catch (const VbsError&) {
    journal_.reset();
    throw;
  }
}

void ReconfigService::open_journal(const std::string& dir,
                                   const FaultPlan* io_faults) {
  journal_ = std::make_unique<ServiceJournal>(
      dir, io_faults != nullptr ? *io_faults : FaultPlan(), serialize_open());
}

void ReconfigService::compact_journal() {
  if (!journal_) {
    throw std::logic_error("compact_journal: no journal attached");
  }
  try {
    journal_->compact(serialize_snapshot(), state_fingerprint());
  } catch (const VbsError&) {
    journal_.reset();
    throw;
  }
}

std::unique_ptr<ReconfigService> ReconfigService::recover(
    const std::string& dir, int threads, RecoveryInfo* info) {
  const ServiceJournal::ScanResult sr = ServiceJournal::scan(dir);
  RecoveryInfo ri;
  ri.records = static_cast<long long>(sr.records.size());
  ri.torn_tail = sr.torn_tail;
  ri.journal_bytes = sr.wal_bytes;
  ri.epoch = sr.epoch;

  std::unique_ptr<ReconfigService> svc;
  if (!sr.snapshot_path.empty()) {
    ri.from_snapshot = true;
    std::uint64_t stored_fp = 0;
    const BitVector snap =
        ServiceJournal::read_snapshot(sr.snapshot_path, &stored_fp);
    svc = restore_snapshot(snap, threads);
    if (svc->state_fingerprint() != stored_fp) {
      bad_journal("snapshot fingerprint mismatch");
    }
  } else {
    svc = construct_from_open(sr.records.front().payload, threads);
  }

  // Replay through the public mutators — the same code path as the live
  // run, so every deterministic decision (shedding, faults, deadlines,
  // eviction) reproduces itself.
  for (std::size_t i = 1; i < sr.records.size(); ++i) {
    const ServiceJournal::Record& rec = sr.records[i];
    std::size_t pos = 0;
    switch (rec.kind) {
      case ServiceJournal::Kind::kAdmitLoad: {
        const RequestId id = static_cast<RequestId>(
            ServiceJournal::get_u64(rec.payload, pos));
        const int tenant = static_cast<int>(
            ServiceJournal::get_u32(rec.payload, pos));
        BitVector stream = ServiceJournal::get_bits(rec.payload, pos);
        if (svc->submit_load(std::move(stream), tenant) != id) {
          bad_journal("replayed load got a different request id");
        }
        // The shed decision re-derives deterministically; the journaled
        // companion (same append) must agree — unless it was torn off the
        // tail, which is the one legitimate crash window.
        if (svc->last_shed_ != kNoRequest) {
          if (i + 1 < sr.records.size()) {
            const ServiceJournal::Record& shed = sr.records[i + 1];
            std::size_t spos = 0;
            if (shed.kind != ServiceJournal::Kind::kShed ||
                ServiceJournal::get_u64(shed.payload, spos) !=
                    static_cast<std::uint64_t>(svc->last_shed_)) {
              bad_journal("shed record disagrees with replay");
            }
            ++i;
          }
        } else if (i + 1 < sr.records.size() &&
                   sr.records[i + 1].kind == ServiceJournal::Kind::kShed) {
          bad_journal("shed record without a shed admission");
        }
        ++ri.admits;
        break;
      }
      case ServiceJournal::Kind::kAdmitUnload:
      case ServiceJournal::Kind::kAdmitRelocate: {
        const RequestId id = static_cast<RequestId>(
            ServiceJournal::get_u64(rec.payload, pos));
        const RequestId target = static_cast<RequestId>(
            ServiceJournal::get_u64(rec.payload, pos));
        const int tenant = static_cast<int>(
            ServiceJournal::get_u32(rec.payload, pos));
        const RequestId got =
            rec.kind == ServiceJournal::Kind::kAdmitUnload
                ? svc->submit_unload(target, tenant)
                : svc->submit_relocate(target, tenant);
        if (got != id) {
          bad_journal("replayed request got a different id");
        }
        ++ri.admits;
        break;
      }
      case ServiceJournal::Kind::kSetPriority: {
        const int tenant = static_cast<int>(
            ServiceJournal::get_u32(rec.payload, pos));
        const int priority = static_cast<int>(
            ServiceJournal::get_u32(rec.payload, pos));
        svc->set_tenant_priority(tenant, priority);
        ++ri.admits;
        break;
      }
      case ServiceJournal::Kind::kCommit: {
        const std::uint64_t fp = ServiceJournal::get_u64(rec.payload, pos);
        svc->drain();
        if (svc->state_fingerprint() != fp) {
          bad_journal("commit fingerprint mismatch after replayed drain");
        }
        ++ri.commits;
        break;
      }
      case ServiceJournal::Kind::kShed:
        bad_journal("stray shed record");
      case ServiceJournal::Kind::kOpen:
      case ServiceJournal::Kind::kSnapshotBarrier:
        bad_journal("open/barrier record mid-stream");  // scan enforces too
    }
  }

  // Reattach for continued appends — with no I/O injection: the plan that
  // killed the predecessor must not re-kill recovery's successor.
  svc->journal_ = std::make_unique<ServiceJournal>(
      ServiceJournal::AttachTag{}, dir, sr.epoch);
  if (info != nullptr) *info = ri;
  return svc;
}

}  // namespace vbs
