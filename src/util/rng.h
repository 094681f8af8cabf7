// Deterministic, seedable random number generation.
//
// Every stochastic component of the flow (netlist generation, placement
// annealing, connection-list re-ordering) takes an explicit Rng so whole
// runs are reproducible from a single seed; nothing uses global RNG state.
#pragma once

#include <cstdint>
#include <cassert>

#include "util/hash.h"

namespace vbs {

/// xoshiro256** seeded via splitmix64. Small, fast, and good enough for
/// annealing/shuffling; not for cryptography.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // splitmix64 seeding, per Vigna's reference implementation.
    std::uint64_t x = seed;
    for (auto& word : s_) {
      word = splitmix64(x);
      x += kSplitmixGamma;
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    assert(bound > 0);
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t t = (0 - bound) % bound;
      while (l < t) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  int next_int(int lo, int hi_inclusive) {
    assert(lo <= hi_inclusive);
    return lo + static_cast<int>(
                    next_below(static_cast<std::uint64_t>(hi_inclusive - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  bool next_bool(double p_true) { return next_double() < p_true; }

  /// Fisher–Yates shuffle.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Derives an independent child stream (for per-thread / per-macro use).
  Rng fork(std::uint64_t salt) {
    return Rng(next_u64() ^ (salt * 0x9e3779b97f4a7c15ULL + 0x1234567u));
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace vbs
