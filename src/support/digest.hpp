// The state digest of the incremental sessions (mst::state_digest,
// pta::state_digest): an FNV-style byte mix over 64-bit words.
#pragma once

#include <cstdint>

namespace morph {

/// Starting value of every state digest. It is not the standard FNV-1a
/// offset basis (14695981039346656037): every session reply carries the
/// digest, so the constant is part of the wire format and stays as is.
inline constexpr std::uint64_t kDigestBasis = 1469598103934665603ull;

/// Folds the 8 bytes of `v`, least significant first, into `h` (one FNV-1a
/// step per byte, 64-bit FNV prime).
inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
}

}  // namespace morph
