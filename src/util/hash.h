// 64-bit FNV-1a hashing: the one hash behind every content hash,
// checksum and fingerprint in the code base (artifact containers, VBS
// files, journal records, wire frames, the decoded-stream cache and the
// service state fingerprint), plus the splitmix64 bit mixer. The byte order
// of hash_u64 is part of every stored format, so these functions must never
// change.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace vbs {

inline constexpr std::uint64_t kFnvOffset64 = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime64 = 0x100000001b3ull;

/// FNV-1a over a byte range, continuing from `h`.
inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                             std::uint64_t h = kFnvOffset64) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime64;
  }
  return h;
}

/// Folds one 64-bit value into a running FNV-1a hash (8 bytes, LE order).
inline std::uint64_t hash_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime64;
  }
  return h;
}

/// splitmix64's increment (the 64-bit golden ratio).
inline constexpr std::uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ull;

/// splitmix64 (Steele, Lea & Flood): adds the increment, then mixes. The one
/// bit mixer behind fault rolls, Rng seeding, connection fault keys and wire
/// auth tokens; like hash_u64 its output is pinned by golden values.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitmixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline std::uint64_t hash_double(std::uint64_t h, double v) {
  return hash_u64(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace vbs
