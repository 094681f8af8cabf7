#include "vbs/devirtualizer.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <stdexcept>

#include "util/error.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace vbs {

DecodeStats& DecodeStats::operator+=(const DecodeStats& o) {
  pairs_routed += o.pairs_routed;
  pairs_failed += o.pairs_failed;
  nodes_expanded += o.nodes_expanded;
  entries_decoded += o.entries_decoded;
  raw_entries += o.raw_entries;
  negotiation_iterations += o.negotiation_iterations;
  return *this;
}

namespace {

struct HeapEntry {
  float est;
  float cost;
  std::int32_t node;
  bool operator>(const HeapEntry& o) const {
    if (est != o.est) return est > o.est;
    return node > o.node;  // deterministic tie-break
  }
};

using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

}  // namespace

Devirtualizer::Devirtualizer(const RegionModel& region) : region_(&region) {
  const auto n = static_cast<std::size_t>(region.num_nodes());
  occ_.assign(n, 0);
  hist_.assign(n, 0.0f);
  cost_.assign(n, 0.0f);
  back_.assign(n, -1);
  back_bit_.assign(n, -1);
  visit_epoch_.assign(n, 0);
  port_group_.assign(static_cast<std::size_t>(region.num_ports()), -1);
}

bool Devirtualizer::route_group(Group& g, double pres_fac) {
  const RegionModel& rm = *region_;
  const int scale =
      std::min(rm.spec().pins_on_x(), rm.spec().pins_on_y()) + 1;

  g.tree.clear();
  g.tree.push_back({g.source_node, -1});
  ++occ_[static_cast<std::size_t>(g.source_node)];

  for (const int target : g.targets) {
    if (target == g.source_node) continue;
    // Already absorbed into the tree by an earlier pair's path?
    bool in_tree = false;
    for (const TreeNode& tn : g.tree) in_tree |= (tn.node == target);
    if (in_tree) continue;

    ++search_epoch_;
    MinHeap heap;
    const Point tp = rm.node_tile(target);
    auto heur = [&](int v) {
      const Point p = rm.node_tile(v);
      return static_cast<float>(scale * (std::abs(p.x - tp.x) +
                                         std::abs(p.y - tp.y)));
    };
    for (const TreeNode& tn : g.tree) {
      const auto v = static_cast<std::size_t>(tn.node);
      visit_epoch_[v] = search_epoch_;
      cost_[v] = 0.0f;
      back_[v] = -1;
      back_bit_[v] = -1;
      heap.push({heur(tn.node), 0.0f, tn.node});
    }
    bool found = false;
    while (!heap.empty()) {
      const HeapEntry top = heap.top();
      heap.pop();
      ++expanded_;
      const auto u = static_cast<std::size_t>(top.node);
      if (visit_epoch_[u] != search_epoch_ || cost_[u] != top.cost) continue;
      if (top.node == target) {
        found = true;
        break;
      }
      for (const RegionModel::Adj& adj : rm.adjacency(top.node)) {
        const auto v = static_cast<std::size_t>(adj.to);
        // Port wires are reserved for the signal that declares them; this
        // is a hard constraint, not a negotiable cost (it protects wires
        // shared with neighbouring, independently decoded regions).
        const int port = rm.node_port(adj.to);
        if (port >= 0 &&
            port_group_[static_cast<std::size_t>(port)] != g.id) {
          continue;
        }
        const float nc =
            top.cost +
            (1.0f + hist_[v]) *
                (1.0f + static_cast<float>(pres_fac) * occ_[v]);
        if (visit_epoch_[v] != search_epoch_ || nc < cost_[v]) {
          visit_epoch_[v] = search_epoch_;
          cost_[v] = nc;
          back_[v] = top.node;
          back_bit_[v] = rm.switch_bit(adj.macro, adj.point, adj.pair);
          heap.push({nc + heur(adj.to), nc, adj.to});
        }
      }
    }
    if (!found) return false;
    int v = target;
    while (back_[static_cast<std::size_t>(v)] != -1) {
      g.tree.push_back({v, back_bit_[static_cast<std::size_t>(v)]});
      ++occ_[static_cast<std::size_t>(v)];
      v = back_[static_cast<std::size_t>(v)];
    }
  }
  return true;
}

void Devirtualizer::rip_up(Group& g) {
  for (const TreeNode& tn : g.tree) {
    --occ_[static_cast<std::size_t>(tn.node)];
  }
  g.tree.clear();
}

bool Devirtualizer::decode_entry(const VbsEntry& entry, BitVector& routing_out,
                                 DecodeStats* stats) {
  const RegionModel& rm = *region_;
  const int c = rm.cluster();
  const std::size_t payload_bits =
      static_cast<std::size_t>(c) * c * rm.spec().nroute_bits();

  if (stats) ++stats->entries_decoded;
  if (entry.raw) {
    routing_out = entry.raw_routing;
    if (stats) ++stats->raw_entries;
    return true;
  }
  routing_out.resize(payload_bits);
  routing_out.reset();
  if (entry.conns.empty()) return true;

  // --- signal groups: one per distinct `in` port --------------------------
  std::fill(port_group_.begin(), port_group_.end(), -1);
  groups_.clear();
  auto claim_port = [&](int port, int group) -> bool {
    if (port < 0 || port >= rm.num_ports()) return false;
    const auto sp = static_cast<std::size_t>(port);
    if (port_group_[sp] != -1) return port_group_[sp] == group;
    port_group_[sp] = group;
    return true;
  };
  for (const VbsConnection& conn : entry.conns) {
    if (conn.in == conn.out) return false;
    if (conn.in >= rm.num_ports() || conn.out >= rm.num_ports()) return false;
    // Ports outside a partial region's extent carry no wire.
    if (rm.port_node(conn.in) < 0 || rm.port_node(conn.out) < 0) return false;
    int g = port_group_[static_cast<std::size_t>(conn.in)];
    if (g == -1) {
      g = static_cast<int>(groups_.size());
      groups_.push_back({});
      groups_.back().id = g;
      groups_.back().source_node = rm.port_node(conn.in);
      claim_port(conn.in, g);
    }
    // An `out` already claimed by a different signal is a short: reject.
    if (!claim_port(conn.out, g)) return false;
    groups_[static_cast<std::size_t>(g)].targets.push_back(
        rm.port_node(conn.out));
  }

  // --- negotiated-congestion decode ---------------------------------------
  // First pass is the pure greedy, stateful decode (paper Section II-C);
  // remaining iterations negotiate conflicts exactly like the global
  // router, which is the "higher computing power" the paper attributes to
  // coarser-grain decoding (Section IV-B).
  std::fill(occ_.begin(), occ_.end(), 0);
  std::fill(hist_.begin(), hist_.end(), 0.0f);
  expanded_ = 0;

  double pres_fac = 0.0;
  bool converged = false;
  for (int iter = 1; iter <= max_iterations_; ++iter) {
    if (stats) ++stats->negotiation_iterations;
    for (Group& g : groups_) {
      if (iter > 1) {
        bool congested = false;
        for (const TreeNode& tn : g.tree) {
          congested |= occ_[static_cast<std::size_t>(tn.node)] > 1;
        }
        if (!congested) continue;
        rip_up(g);
      }
      if (!route_group(g, pres_fac)) {
        if (stats) {
          ++stats->pairs_failed;
          stats->nodes_expanded += expanded_;
        }
        return false;
      }
    }
    std::size_t overused = 0;
    for (std::size_t v = 0; v < occ_.size(); ++v) {
      if (occ_[v] > 1) {
        ++overused;
        hist_[v] += static_cast<float>(occ_[v] - 1);
      }
    }
    if (overused == 0) {
      converged = true;
      break;
    }
    pres_fac = iter == 1 ? 1.0 : pres_fac * 2.0;
  }
  if (stats) {
    stats->nodes_expanded += expanded_;
    stats->pairs_routed += static_cast<long long>(entry.conns.size());
  }
  if (!converged) {
    if (stats) ++stats->pairs_failed;
    return false;
  }

  // --- realize switches ------------------------------------------------------
  for (const Group& g : groups_) {
    for (const TreeNode& tn : g.tree) {
      if (tn.switch_bit >= 0) {
        routing_out.set(static_cast<std::size_t>(tn.switch_bit), true);
      }
    }
  }
  return true;
}

void write_entry_config(const VbsImage& img, const VbsEntry& entry,
                        const BitVector& routing, const Fabric& target,
                        Point origin, BitVector& config) {
  const ArchSpec& spec = img.spec;
  const int c = img.cluster;
  const int nlb = spec.nlb_bits();
  const int rbits = spec.nroute_bits();
  for (int uy = 0; uy < c; ++uy) {
    for (int ux = 0; ux < c; ++ux) {
      const int tx = entry.cx * c + ux;
      const int ty = entry.cy * c + uy;
      if (tx >= img.task_w || ty >= img.task_h) continue;  // partial cluster
      const int m = target.macro_index(origin.x + tx, origin.y + ty);
      const std::size_t base = target.macro_config_offset(m);
      const int u = uy * c + ux;
      const LogicConfig& lc = entry.logic[static_cast<std::size_t>(u)];
      if (lc.used) {
        BitVector lbits;
        append_logic_bits(lbits, lc, spec);
        config.overwrite(base, lbits);
      }
      const std::size_t src = static_cast<std::size_t>(u) * rbits;
      for (int b = 0; b < rbits; ++b) {
        if (routing.get(src + static_cast<std::size_t>(b))) {
          config.set(base + static_cast<std::size_t>(nlb) +
                         static_cast<std::size_t>(b),
                     true);
        }
      }
    }
  }
}

RegionDecoderCache::RegionDecoderCache(const ArchSpec& spec, int cluster,
                                       int task_w, int task_h)
    : spec_(spec), c_(cluster), task_w_(task_w), task_h_(task_h) {}

std::pair<int, int> RegionDecoderCache::extent_of(int cx, int cy) const {
  return {std::min(c_, task_w_ - cx * c_), std::min(c_, task_h_ - cy * c_)};
}

RegionDecoderCache::Slot& RegionDecoderCache::slot_for(int cx, int cy) {
  const auto key = extent_of(cx, cy);
  if (key.first < 1 || key.second < 1) {
    throw VbsError(VbsErrc::kBadEntry,
                   "region cache: entry outside the task");
  }
  Slot& slot = slots_[key];
  if (!slot.region) {
    slot.region =
        std::make_unique<RegionModel>(spec_, c_, key.first, key.second);
    slot.decoder = std::make_unique<Devirtualizer>(*slot.region);
  }
  return slot;
}

const RegionModel& RegionDecoderCache::region_for(int cx, int cy) {
  return *slot_for(cx, cy).region;
}

Devirtualizer& RegionDecoderCache::decoder_for(int cx, int cy) {
  return *slot_for(cx, cy).decoder;
}

std::vector<ImageDecode> decode_images(
    const std::vector<const VbsImage*>& images, ThreadPool& pool) {
  struct Item {
    std::size_t image;
    std::size_t entry;
    DecodeStats stats{};
    double seconds = 0.0;
    VbsErrc code = VbsErrc::kNone;
    std::string error{};
  };
  std::vector<ImageDecode> out(images.size());
  std::vector<Item> items;
  for (std::size_t m = 0; m < images.size(); ++m) {
    out[m].payloads.resize(images[m]->entries.size());
    for (std::size_t e = 0; e < images[m]->entries.size(); ++e) {
      items.push_back({m, e});
    }
  }
  // Region models are built lazily per (rank, image): a rank only touches
  // its own row, and a Devirtualizer is reusable but not thread-safe.
  std::vector<std::vector<std::unique_ptr<RegionDecoderCache>>> decoders(
      static_cast<std::size_t>(pool.size()));
  for (auto& row : decoders) row.resize(images.size());
  pool.parallel_for(items.size(), [&](int rank, std::size_t idx) {
    Item& item = items[idx];
    const VbsImage& img = *images[item.image];
    const std::uint64_t t0 = telem::now_ns();
    try {
      auto& cache = decoders[static_cast<std::size_t>(rank)][item.image];
      if (!cache) {
        cache = std::make_unique<RegionDecoderCache>(img.spec, img.cluster,
                                                     img.task_w, img.task_h);
      }
      const VbsEntry& e = img.entries[item.entry];
      if (!cache->decoder_for(e.cx, e.cy).decode_entry(
              e, out[item.image].payloads[item.entry], &item.stats)) {
        item.code = VbsErrc::kDecodeFailed;
        item.error = "entry " + std::to_string(e.cx) + "," +
                     std::to_string(e.cy) + " failed to decode";
      }
    } catch (const VbsError& ex) {
      item.code = ex.code();
      item.error = ex.what();
    } catch (const std::exception& ex) {
      item.code = VbsErrc::kDecodeFailed;
      item.error = ex.what();
    }
    item.seconds = telem::seconds_since(t0);
  });
  for (Item& item : items) {
    ImageDecode& d = out[item.image];
    d.decode += item.stats;
    d.seconds += item.seconds;
    if (!item.error.empty() && d.error.empty()) {
      d.code = item.code;
      d.error = std::move(item.error);
    }
  }
  return out;
}

std::size_t DecodedStream::footprint_bits() const {
  std::size_t bits = 0;
  for (const BitVector& p : payloads) bits += p.size();
  return bits;
}

std::shared_ptr<DecodedStream> decode_stream(VbsImage image) {
  ThreadPool serial(1);
  ImageDecode d = std::move(decode_images({&image}, serial).front());
  if (!d.error.empty()) {
    throw VbsError(d.code, "decode_stream: " + d.error);
  }
  auto out = std::make_shared<DecodedStream>();
  out->image = std::move(image);
  out->payloads = std::move(d.payloads);
  out->decode = d.decode;
  return out;
}

BitVector devirtualize_image(const VbsImage& img, const Fabric& target,
                             Point origin, DecodeStats* stats) {
  if (img.spec.chan_width != target.spec().chan_width ||
      img.spec.lut_k != target.spec().lut_k ||
      img.spec.sb_pattern != target.spec().sb_pattern) {
    throw VbsError(VbsErrc::kArchMismatch,
                   "devirtualize: architecture mismatch");
  }
  if (origin.x < 0 || origin.y < 0 ||
      origin.x + img.task_w > target.width() ||
      origin.y + img.task_h > target.height()) {
    throw VbsError(VbsErrc::kNoPlacement,
                   "devirtualize: task does not fit at origin");
  }
  RegionDecoderCache cache(img.spec, img.cluster, img.task_w, img.task_h);
  BitVector config(target.config_bits_total());
  BitVector routing;
  for (const VbsEntry& e : img.entries) {
    if (!cache.decoder_for(e.cx, e.cy).decode_entry(e, routing, stats)) {
      throw VbsError(
          VbsErrc::kDecodeFailed,
          "devirtualize: connection list failed to route (entry at " +
          std::to_string(e.cx) + "," + std::to_string(e.cy) + ")");
    }
    write_entry_config(img, e, routing, target, origin, config);
  }
  return config;
}

}  // namespace vbs
