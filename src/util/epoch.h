// Epoch stamps: O(1) resets of per-node search state. An entry is valid
// only while its stamp equals the current epoch, so starting a new search
// is one increment instead of an O(V) clear.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "util/telemetry.h"

namespace vbs {

/// The one way to advance an epoch counter. Returns the new epoch. When
/// the u32 counter wraps it clears every stamp array of its family and
/// restarts at 1, so a stamp written 2^32 searches ago cannot alias the
/// restarted counter and make an untouched entry look current.
inline std::uint32_t bump_epoch(
    std::uint32_t& epoch_counter,
    std::initializer_list<std::vector<std::uint32_t>*> stamps) {
  if (++epoch_counter == 0) {
    for (std::vector<std::uint32_t>* v : stamps) {
      std::fill(v->begin(), v->end(), 0u);
    }
    epoch_counter = 1;
    // Once per 2^32 bumps per family; the counter makes the wrap path
    // visible in long-lived processes.
    telem::counter_add("util.epoch_wrap_resets");
  }
  return epoch_counter;
}

}  // namespace vbs
