#include "rtc/controller.h"

#include <algorithm>
#include <stdexcept>

#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace vbs {

ReconfigController::ReconfigController(const ArchSpec& spec, int width,
                                       int height)
    : fabric_(spec, width, height),
      config_(fabric_.config_bits_total()),
      alloc_(width, height) {}

ReconfigController::LoadedTask& ReconfigController::lookup(TaskId id) {
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    throw std::out_of_range("rtc: unknown task " + std::to_string(id));
  }
  return it->second;
}

const TaskRecord& ReconfigController::record(TaskId id) const {
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    throw std::out_of_range("rtc: unknown task " + std::to_string(id));
  }
  return it->second.rec;
}

const VbsImage& ReconfigController::image_of(TaskId id) const {
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    throw std::out_of_range("rtc: unknown task " + std::to_string(id));
  }
  return it->second.image;
}

std::vector<TaskId> ReconfigController::task_ids() const {
  std::vector<TaskId> ids;
  ids.reserve(tasks_.size());
  for (const auto& [id, task] : tasks_) ids.push_back(id);
  return ids;
}

void ReconfigController::decode_into(const VbsImage& img, Point origin,
                                     int threads, TaskRecord& rec) {
  if (fault_plan_ != nullptr && fault_plan_->decode_fails(decode_seq_++)) {
    telem::counter_add("rtc.decode.fault_injected");
    throw VbsError(VbsErrc::kFaultInjected, "rtc: injected decode fault");
  }
  telem::Span span("rtc", "decode");
  const std::uint64_t t0 = telem::now_ns();
  ThreadPool pool(threads);
  const ImageDecode d = std::move(decode_images({&img}, pool).front());
  if (!d.error.empty()) {
    throw VbsError(VbsErrc::kDecodeFailed, "rtc: decode failed: " + d.error);
  }
  write_decoded(img, d.payloads, origin);

  rec.decode_seconds = telem::seconds_since(t0);
  rec.threads_used = std::max(1, threads);
  rec.decode += d.decode;
  total_stats_ += d.decode;
  span.arg("entries", img.entries.size()).arg("threads", rec.threads_used);
  telem::counter_add("rtc.decode.ops");
  telem::counter_add("rtc.decode.entries",
                     static_cast<long long>(img.entries.size()));
  telem::histogram_record("rtc.decode.seconds", rec.decode_seconds);
}

void ReconfigController::clear_region(const Rect& r) {
  const int nraw = fabric_.spec().nraw_bits();
  for (int y = r.y; y < r.y + r.h; ++y) {
    for (int x = r.x; x < r.x + r.w; ++x) {
      const std::size_t base =
          fabric_.macro_config_offset(fabric_.macro_index(x, y));
      for (int b = 0; b < nraw; ++b) {
        config_.set(base + static_cast<std::size_t>(b), false);
      }
    }
  }
}

void ReconfigController::write_decoded(const VbsImage& img,
                                       const std::vector<BitVector>& payloads,
                                       Point origin) {
  // Single writer: frames of adjacent macros share storage words.
  for (std::size_t i = 0; i < img.entries.size(); ++i) {
    write_entry_config(img, img.entries[i], payloads[i], fabric_, origin,
                       config_);
  }
}

void ReconfigController::check_arch(const VbsImage& img) const {
  if (img.spec.chan_width != fabric_.spec().chan_width ||
      img.spec.lut_k != fabric_.spec().lut_k ||
      img.spec.sb_pattern != fabric_.spec().sb_pattern) {
    // Typed (not logic_error): a stream encoded for another architecture
    // is hostile input a tenant can submit, not a programming error.
    throw VbsError(VbsErrc::kArchMismatch, "rtc: task architecture mismatch");
  }
}

void ReconfigController::check_payloads(
    const VbsImage& img, const std::vector<BitVector>& payloads) const {
  if (payloads.size() != img.entries.size()) {
    throw std::logic_error("rtc: payload count does not match entries");
  }
  // Every decoded payload (and every raw fallback) is exactly the region's
  // c^2 * (Nraw - NLB) routing bits; anything else would read or write out
  // of bounds in write_entry_config.
  const std::size_t want = static_cast<std::size_t>(img.cluster) *
                           static_cast<std::size_t>(img.cluster) *
                           static_cast<std::size_t>(img.spec.nroute_bits());
  for (const BitVector& p : payloads) {
    if (p.size() != want) {
      throw std::logic_error("rtc: payload size mismatch");
    }
  }
}

TaskId ReconfigController::adopt(VbsImage img, std::size_t stream_bits,
                                 Point origin, const Configure& configure) {
  const Rect rect{origin.x, origin.y, img.task_w, img.task_h};
  alloc_.occupy(rect);  // throws if not free / out of bounds
  LoadedTask task;
  task.rec.id = next_id_++;
  task.rec.rect = rect;
  task.rec.stream_bits = stream_bits;
  task.image = std::move(img);
  try {
    configure(task.image, task.rec);
  } catch (...) {
    alloc_.release(rect);
    throw;
  }
  const TaskId id = task.rec.id;
  tasks_.emplace(id, std::move(task));
  return id;
}

void ReconfigController::move_task(TaskId id, Point new_origin,
                                   const Configure& configure) {
  LoadedTask& task = lookup(id);
  const Rect old_rect = task.rec.rect;
  const Rect new_rect{new_origin.x, new_origin.y, old_rect.w, old_rect.h};
  if (new_rect == old_rect) return;
  // The new region must be free; a task may not overlap itself mid-move
  // (the controller has no shadow configuration plane).
  alloc_.occupy(new_rect);
  try {
    configure(task.image, task.rec);
  } catch (...) {
    alloc_.release(new_rect);
    throw;
  }
  clear_region(old_rect);
  alloc_.release(old_rect);
  task.rec.rect = new_rect;
}

TaskId ReconfigController::load_decoded(const VbsImage& img,
                                        const std::vector<BitVector>& payloads,
                                        std::size_t stream_bits, Point origin,
                                        const DecodeStats& decode,
                                        double decode_seconds,
                                        int threads_used) {
  check_arch(img);
  check_payloads(img, payloads);
  if (fault_plan_ != nullptr && fault_plan_->alloc_fails(alloc_seq_++)) {
    // Before occupy: an injected allocation failure leaves the allocator
    // and the configuration memory untouched, like a real transient one.
    throw VbsError(VbsErrc::kFaultInjected, "rtc: injected allocation fault");
  }
  return adopt(img, stream_bits, origin,
               [&](const VbsImage& image, TaskRecord& rec) {
                 write_decoded(image, payloads, origin);
                 rec.decode = decode;
                 rec.decode_seconds = decode_seconds;
                 rec.threads_used = threads_used;
                 total_stats_ += decode;
               });
}

void ReconfigController::relocate_decoded(
    TaskId id, Point new_origin, const std::vector<BitVector>& payloads) {
  check_payloads(image_of(id), payloads);
  move_task(id, new_origin, [&](const VbsImage& image, TaskRecord&) {
    write_decoded(image, payloads, new_origin);
  });
}

TaskId ReconfigController::load(const BitVector& vbs_stream, int threads) {
  VbsImage img = deserialize_vbs(vbs_stream);
  const auto slot = alloc_.find_free(img.task_w, img.task_h);
  if (!slot) return kNoTask;
  return load_image(std::move(img), vbs_stream.size(), *slot, threads);
}

TaskId ReconfigController::load_at(const BitVector& vbs_stream, Point origin,
                                   int threads) {
  return load_image(deserialize_vbs(vbs_stream), vbs_stream.size(), origin,
                    threads);
}

TaskId ReconfigController::load_image(VbsImage img, std::size_t stream_bits,
                                      Point origin, int threads) {
  check_arch(img);
  return adopt(std::move(img), stream_bits, origin,
               [&](const VbsImage& image, TaskRecord& rec) {
                 decode_into(image, origin, threads, rec);
               });
}

void ReconfigController::unload(TaskId id) {
  LoadedTask& task = lookup(id);
  clear_region(task.rec.rect);
  alloc_.release(task.rec.rect);
  tasks_.erase(id);
}

void ReconfigController::relocate(TaskId id, Point new_origin, int threads) {
  move_task(id, new_origin, [&](const VbsImage& image, TaskRecord& rec) {
    decode_into(image, new_origin, threads, rec);
  });
}

void ReconfigController::defragment(int threads) {
  // Greedy compaction: tasks in increasing current-origin order are moved
  // to the first free slot, which is never further from the origin.
  std::vector<TaskId> ids = task_ids();
  std::sort(ids.begin(), ids.end(), [&](TaskId a, TaskId b) {
    const Rect& ra = record(a).rect;
    const Rect& rb = record(b).rect;
    if (ra.y != rb.y) return ra.y < rb.y;
    return ra.x < rb.x;
  });
  for (const TaskId id : ids) {
    const Rect r = record(id).rect;
    // Temporarily free our own tiles so the search can slide us leftward
    // over them; a found slot must not overlap the old region (no shadow
    // plane), so re-check before moving.
    alloc_.release(r);
    const auto slot = alloc_.find_free(r.w, r.h);
    alloc_.occupy(r);
    if (!slot) continue;
    const Rect target{slot->x, slot->y, r.w, r.h};
    if (target == r || target.overlaps(r)) continue;
    if ((target.y > r.y) || (target.y == r.y && target.x >= r.x)) continue;
    relocate(id, {target.x, target.y}, threads);
  }
}

void ReconfigController::restore_config_memory(const BitVector& config) {
  if (config.size() != config_.size()) {
    throw std::logic_error("restore_config_memory: size mismatch");
  }
  config_ = config;
}

void ReconfigController::restore_task(const TaskRecord& rec, VbsImage image) {
  if (tasks_.count(rec.id) != 0) {
    throw std::logic_error("restore_task: duplicate task id");
  }
  alloc_.occupy(rec.rect);  // throws std::logic_error if unavailable
  tasks_[rec.id] = LoadedTask{rec, std::move(image)};
}

}  // namespace vbs
