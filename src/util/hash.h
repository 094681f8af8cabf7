// 64-bit FNV-1a hashing: the one hash behind every content hash,
// checksum and fingerprint in the code base (artifact containers, VBS
// files, journal records, wire frames, the decoded-stream cache and the
// service state fingerprint). The byte order of hash_u64 is part of every
// stored format, so these functions must never change.
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

inline std::uint64_t hash_double(std::uint64_t h, double v) {
  return hash_u64(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace vbs
