// Decode-region model: the black box whose port-to-port connections the
// Virtual Bit-Stream stores.
//
// For cluster size c the region pools the routing resources of a c x c
// block of macros (paper Section IV-B); c = 1 is the finest grain, a single
// macro. The region's I/O ports are the 4*c*W perimeter track wires plus
// the c^2*L logic-block pins, giving connection endpoints coded on
// M = ceil(log2(4cW + c^2 L + 1)) bits.
//
// Both the offline encoder's feedback loop and the online de-virtualizer
// route on this model, which is what guarantees that a stream validated
// offline decodes identically online.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/macro_model.h"
#include "util/geometry.h"

namespace vbs {

class RegionModel {
 public:
  /// A full c x c region, or — for clusters straddling the task edge when
  /// the task size is not a multiple of c — a partial extent_w x extent_h
  /// region. Port *identifiers* always use the full-c numbering (so the
  /// on-wire field widths are uniform); ports whose side tile or pin macro
  /// falls outside the extent simply have no node.
  RegionModel(const ArchSpec& spec, int cluster, int extent_w = -1,
              int extent_h = -1);

  const ArchSpec& spec() const { return macro_.spec(); }
  const MacroModel& macro() const { return macro_; }
  int cluster() const { return c_; }
  int extent_w() const { return rw_; }
  int extent_h() const { return rh_; }
  int num_macros() const { return c_ * c_; }

  int num_nodes() const { return num_nodes_; }
  /// Region node of macro-local node `local` in region macro (ux,uy);
  /// (ux,uy) must lie within the extent.
  int node_of(int ux, int uy, int local) const {
    return node_of_raw_[static_cast<std::size_t>(uy * c_ + ux) *
                            macro_.num_nodes() +
                        local];
  }
  /// Representative region-macro tile of a node (for search heuristics).
  Point node_tile(int node) const { return {tile_x_[node], tile_y_[node]}; }

  // --- ports ---------------------------------------------------------------
  /// 4cW perimeter track ports followed by c^2 L pin ports.
  int num_ports() const {
    return 4 * c_ * spec().chan_width + num_macros() * spec().lb_pins();
  }
  /// Perimeter port: `tile` indexes along the side (y for W/E, x for N/S).
  int port_of_side(Side side, int tile, int track) const {
    return (static_cast<int>(side) * c_ + tile) * spec().chan_width + track;
  }
  int port_of_pin(int ux, int uy, int pin) const {
    return 4 * c_ * spec().chan_width + (uy * c_ + ux) * spec().lb_pins() + pin;
  }
  /// Node carrying a port, or -1 for ports outside a partial extent.
  int port_node(int port) const { return port_node_[port]; }
  /// Port carried by a node, -1 for interior nodes.
  int node_port(int node) const { return node_port_[node]; }
  bool is_pin_port(int port) const {
    return port >= 4 * c_ * spec().chan_width;
  }

  /// M: bits per connection-list endpoint for this region size.
  unsigned port_field_bits() const;
  /// Bits of the route-count field: Table I's ceil(log2(2W)) for c = 1,
  /// widened to the endpoint-field width for clusters (which can hold one
  /// connection per out-port).
  unsigned route_count_bits() const;

  // --- switch adjacency ------------------------------------------------------
  struct Adj {
    std::int32_t to;
    std::int32_t bit;  ///< switch_bit() of the switch joining the two nodes
  };
  std::span<const Adj> adjacency(int node) const {
    return {adj_data_.data() + adj_begin_[node],
            adj_data_.data() + adj_begin_[node + 1]};
  }

  /// Bit index of a switch within the region's routing payload: macros in
  /// region row-major order, (Nraw - NLB) routing bits each.
  int switch_bit(int macro, int point, int pair) const {
    return macro * spec().nroute_bits() +
           macro_.switch_points()[static_cast<std::size_t>(point)].bit_offset +
           pair;
  }

 private:
  MacroModel macro_;
  int c_;
  int rw_;
  int rh_;
  int num_nodes_ = 0;
  std::vector<std::int32_t> node_of_raw_;
  std::vector<std::int16_t> tile_x_, tile_y_;
  std::vector<std::int32_t> port_node_;
  std::vector<std::int32_t> node_port_;
  std::vector<std::size_t> adj_begin_;
  std::vector<Adj> adj_data_;
};

}  // namespace vbs
