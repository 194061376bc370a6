// campuslab::util — the one FNV-1a implementation.
//
// FNV-1a (64-bit) is CampusLab's workhorse non-cryptographic hash: the
// capture spreader uses it to shard frames that carry no 5-tuple, the
// three framed formats (CLSEG01 segment files, the CLRP01 wire and the
// CLMRG01 registry) use it for header and payload checksums, the
// fault injector salts per-site decisions with it, and the store
// cluster's consistent-hash ring places keyspace slices with it. All of
// those used to carry private copies; they now share these functions,
// so the constants — and therefore on-disk checksums, shard spreads and
// ring placements — can never drift apart silently. The spreader and
// segment-file pin tests assert the exact historical outputs.
//
// The incremental `fnv1a_step` folds a whole 64-bit word per step
// (h = (h ^ v) * prime). That is the spreader's historical tail-mix
// semantics, not byte-at-a-time FNV over the word's bytes; use the
// span/string_view overloads when byte-exact FNV-1a is required.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace campuslab::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// The basis the capture spreader and the fault injector's site salt
/// shipped with: the standard basis with its last decimal digit
/// dropped. Kept verbatim so shard placement of tuple-less frames and
/// seeded fault-plan replays stay bit-stable across the dedup (the
/// spreader pin test asserts outputs under this basis). New call sites
/// should use kFnvOffsetBasis.
inline constexpr std::uint64_t kFnvCompatBasis = 1469598103934665603ULL;

/// Fold one byte into a running FNV-1a state.
constexpr std::uint64_t fnv1a_byte(std::uint64_t h, std::uint8_t b) noexcept {
  return (h ^ b) * kFnvPrime;
}

/// Fold one 64-bit word into a running state in a single step (the
/// capture spreader's length mix and the hash ring's key mixing).
constexpr std::uint64_t fnv1a_step(std::uint64_t h,
                                   std::uint64_t v) noexcept {
  return (h ^ v) * kFnvPrime;
}

/// Byte-exact FNV-1a over a buffer, resumable via `seed`.
constexpr std::uint64_t fnv1a(std::span<const std::uint8_t> data,
                              std::uint64_t seed = kFnvOffsetBasis) noexcept {
  std::uint64_t h = seed;
  for (const auto b : data) h = fnv1a_byte(h, b);
  return h;
}

/// Byte-exact FNV-1a over a string (site names, file tags).
constexpr std::uint64_t fnv1a(std::string_view s,
                              std::uint64_t seed = kFnvOffsetBasis) noexcept {
  std::uint64_t h = seed;
  for (const char c : s) h = fnv1a_byte(h, static_cast<std::uint8_t>(c));
  return h;
}

/// Finalizing bit-mixer (splitmix64's). FNV-1a of a short input has
/// weak high-bit avalanche — the last folded word reaches the top bits
/// through a single prime multiply — which is fine for table buckets
/// (low bits) but disastrous for anything partitioned by *magnitude*,
/// like a consistent-hash ring: vnode points computed from (seed,
/// node, v) clump into a few tight arcs. Run the final FNV state
/// through this before using it as a ring position or placement key.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace campuslab::util
