// The de-virtualization algorithm: the paper's run-time router (Section
// II-C) that expands a region's connection list back into switch
// configurations.
//
// Decoding is a deterministic, stateful process: connections are grouped
// into signals (pairs sharing an `in` port are one signal — the fan-out
// case) and routed strictly in list order by A* over the region's switch
// graph. The first pass is the pure greedy decode; if signals collide, a
// bounded number of negotiated-congestion iterations (the same PathFinder
// scheme as the global router) resolves the conflicts. Port wires are a
// hard constraint throughout — usable only by the signal that declares
// them — which keeps independently decoded neighbouring regions
// electrically consistent. Coarser clusters give the router more freedom
// but more work per entry: exactly the decode-cost trade-off the paper
// describes for clustering (Section IV-B).
//
// Because decoding is deterministic in the connection order, the offline
// encoder runs this exact code as its feedback loop: any order it validates
// is guaranteed to decode online (paper Section III-B).
//
// Hot path: almost all decode time is route_group's A* loop. Its open list
// is a member MinHeap (util/min_heap.h, shared with the global router)
// that keeps its capacity across searches and orders entries by one
// integer compare; each adjacency arm carries its precomputed switch bit
// (RegionModel::Adj); per-node search state is epoch-stamped, so a search
// starts with one bump_epoch instead of an O(nodes) clear.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fabric/fabric.h"
#include "util/bitvector.h"
#include "util/error.h"
#include "util/geometry.h"
#include "util/min_heap.h"
#include "vbs/region_model.h"
#include "vbs/vbs_format.h"

namespace vbs {

class ThreadPool;

struct DecodeStats {
  long long pairs_routed = 0;
  long long pairs_failed = 0;
  long long nodes_expanded = 0;
  long long entries_decoded = 0;
  long long raw_entries = 0;
  long long negotiation_iterations = 0;

  DecodeStats& operator+=(const DecodeStats& o);
};

/// Routes entries of one region geometry. Reusable across entries; not
/// thread-safe (use one instance per decode thread).
class Devirtualizer {
 public:
  explicit Devirtualizer(const RegionModel& region);

  /// Decodes one connection-list entry into the region's routing payload
  /// (c^2 * (Nraw-NLB) bits, region row-major). Returns false if no valid
  /// switch assignment is found within the iteration budget (the offline
  /// encoder then re-orders or falls back to raw coding). Raw entries are
  /// copied through unchanged.
  bool decode_entry(const VbsEntry& entry, BitVector& routing_out,
                    DecodeStats* stats = nullptr);

  const RegionModel& region() const { return *region_; }

  /// Negotiation budget; 1 degenerates to the pure greedy decoder.
  void set_max_iterations(int n) { max_iterations_ = n; }
  int max_iterations() const { return max_iterations_; }

 private:
  struct TreeNode {
    std::int32_t node;
    std::int32_t switch_bit;  ///< -1 at the tree root
  };
  struct Group {
    int id = 0;
    std::int32_t source_node = -1;
    std::vector<std::int32_t> targets;
    std::vector<TreeNode> tree;
  };

  bool route_group(Group& g, double pres_fac);
  void rip_up(Group& g);

  const RegionModel* region_;
  int max_iterations_ = 24;
  std::vector<Group> groups_;
  std::vector<std::int32_t> port_group_;  ///< per port: declaring group or -1
  // Negotiation state (reset per entry).
  std::vector<std::uint16_t> occ_;
  std::vector<float> hist_;
  // Per-connection A* state, valid while the stamp equals search_epoch_.
  std::vector<float> cost_;
  std::vector<std::int32_t> back_;
  std::vector<std::int32_t> back_bit_;
  std::vector<std::uint32_t> visit_epoch_;
  std::uint32_t search_epoch_ = 0;
  MinHeap heap_;  ///< A* open list, reused by every search
  long long expanded_ = 0;
};

/// Lazily builds the region model + decoder for every distinct region shape
/// of a task: the full c x c cluster plus up to three partial extents when
/// the task size is not a multiple of c. Shared by the encoder's feedback
/// loop and the run-time decode (decode_images).
class RegionDecoderCache {
 public:
  RegionDecoderCache(const ArchSpec& spec, int cluster, int task_w,
                     int task_h);

  /// Extent of the cluster at cluster-grid position (cx, cy).
  std::pair<int, int> extent_of(int cx, int cy) const;
  const RegionModel& region_for(int cx, int cy);
  Devirtualizer& decoder_for(int cx, int cy);

 private:
  struct Slot {
    std::unique_ptr<RegionModel> region;
    std::unique_ptr<Devirtualizer> decoder;
  };
  Slot& slot_for(int cx, int cy);

  ArchSpec spec_;
  int c_;
  int task_w_;
  int task_h_;
  std::map<std::pair<int, int>, Slot> slots_;  ///< keyed by extent
};

/// What decode_images produced for one image.
struct ImageDecode {
  /// Decoded routing payload of every entry, in entry order.
  std::vector<BitVector> payloads;
  DecodeStats decode;
  double seconds = 0.0;  ///< per-entry decode times, summed
  /// The first failing entry's code and message (entry order); the
  /// message is empty when every entry decoded.
  VbsErrc code = VbsErrc::kNone;
  std::string error;
};

/// The run-time de-virtualization step (paper Fig. 2): decodes every entry
/// of every image as one flat (image, entry) work list on `pool` (a pool
/// of one runs it serially). Entries are independent (paper Section II-C)
/// and results merge in entry order, so nothing depends on the schedule.
/// Every entry is decoded even after a failure, so `decode` counts the
/// whole image's work; a failing entry is reported, not thrown.
std::vector<ImageDecode> decode_images(
    const std::vector<const VbsImage*>& images, ThreadPool& pool);

/// One devirtualized stream: the parsed image, the decoded routing payload
/// of every entry, and what the decode cost when it actually ran.
struct DecodedStream {
  VbsImage image;
  std::vector<BitVector> payloads;
  DecodeStats decode;

  /// Bits this stream charges against a decoded-stream cache's capacity.
  std::size_t footprint_bits() const;
};

/// Serially devirtualizes a parsed image into a cacheable DecodedStream
/// (decode_images on one image). Throws VbsError with the first failing
/// entry's code — impossible for encoder-validated streams.
std::shared_ptr<DecodedStream> decode_stream(VbsImage image);

/// Decodes a whole image into a full-fabric raw configuration, placing the
/// task origin at `origin` (relocation: the same image decodes at any
/// origin, paper Section I). Throws std::runtime_error if any entry fails —
/// impossible for encoder-validated images — or if the task does not fit.
BitVector devirtualize_image(const VbsImage& img, const Fabric& target,
                             Point origin, DecodeStats* stats = nullptr);

/// Writes one decoded entry (logic + routing payload) into a full-fabric
/// configuration image with the task origin at `origin`.
void write_entry_config(const VbsImage& img, const VbsEntry& entry,
                        const BitVector& routing, const Fabric& target,
                        Point origin, BitVector& config);

}  // namespace vbs
