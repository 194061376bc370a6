// campuslab::util — the one FNV-1a implementation, and the word
// checksum for large payloads.
//
// FNV-1a (64-bit) is CampusLab's workhorse non-cryptographic hash: the
// capture spreader uses it to shard frames that carry no 5-tuple, the
// three framed formats (CLSEG02 segment headers, the CLRP01 wire and
// the CLMRG01 registry) use it for header and payload checksums, the
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
//
// FNV-1a folds one byte per multiply, about 1.5 ns per byte: fine for a
// header, a quarter of a cold segment load when it covers a 470 KB
// payload. `checksum64` covers those payloads a word at a time instead.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

namespace detail {

inline constexpr std::uint64_t kSumPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kSumPrime2 = 0xC2B2AE3D27D4EB4FULL;

/// One checksum step (xxHash64's round). For a fixed word it is a
/// bijection of `acc`, and for a fixed `acc` an injection of the word:
/// the multipliers are odd, and add and rotate are invertible.
constexpr std::uint64_t sum_round(std::uint64_t acc,
                                  std::uint64_t word) noexcept {
  acc += word * kSumPrime2;
  acc = (acc << 31) | (acc >> 33);
  return acc * kSumPrime1;
}

/// Eight bytes as a little-endian word, at any alignment.
inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  return v;
}

}  // namespace detail

/// Word-at-a-time 64-bit checksum of a buffer (the CLSEG02 payload
/// sum). Four lanes each fold every fourth little-endian 64-bit word
/// with detail::sum_round, so a core keeps four multiply chains in
/// flight; then the length, the four lanes and the tail words (the last
/// one zero-padded) fold into one state the same way, and mix64
/// finishes it. Every fold is a bijection of the state for a fixed word
/// and an injection of the word for a fixed state, so for a given
/// length a change confined to one aligned 8-byte word, such as any one
/// damaged byte, always changes the sum. Not FNV-1a, and not any
/// published hash's exact output.
inline std::uint64_t checksum64(std::span<const std::uint8_t> data) noexcept {
  using detail::kSumPrime1;
  using detail::kSumPrime2;
  using detail::load_le64;
  using detail::sum_round;
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  std::uint64_t lane[4] = {kSumPrime1 + kSumPrime2, kSumPrime2, 0,
                           0 - kSumPrime1};
  for (; left >= 32; left -= 32, p += 32) {
    lane[0] = sum_round(lane[0], load_le64(p));
    lane[1] = sum_round(lane[1], load_le64(p + 8));
    lane[2] = sum_round(lane[2], load_le64(p + 16));
    lane[3] = sum_round(lane[3], load_le64(p + 24));
  }
  std::uint64_t h = sum_round(0, data.size());
  for (const std::uint64_t v : lane) h = sum_round(h, v);
  for (; left >= 8; left -= 8, p += 8) h = sum_round(h, load_le64(p));
  if (left > 0) {
    std::uint64_t tail = 0;
    for (std::size_t i = 0; i < left; ++i)
      tail |= std::uint64_t{p[i]} << (8 * i);
    h = sum_round(h, tail);
  }
  return mix64(h);
}

}  // namespace campuslab::util
