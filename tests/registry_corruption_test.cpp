// ModelRegistry corruption suite: the CLMRG01 decoder must be total.
//
// A truncated, bit-flipped, zeroed, saturated, garbage-extended, or
// checksum-resealed-but-structurally-wrong registry file yields a clean
// util::Result error with a stable code — never a crash, an
// out-of-bounds read (the ASAN CI job runs this binary), or an
// allocation bomb — and ModelRegistry::open over any such file degrades
// to an empty start instead of refusing to boot. Reuses the
// segment_corruption_test seeded-mutation pattern: every failure
// replays from (seed, iteration).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

#include "campuslab/control/model_registry.h"
#include "campuslab/util/rng.h"

namespace campuslab::control {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kHeaderBytes = 32;

constexpr const char* kTreeText =
    "campuslab-tree v1\n"
    "2 2 3\n"
    "udp_fraction\n"
    "pkt_len\n"
    "benign\n"
    "attack\n"
    "0 3.5 1 2 100 0.5 0.5\n"
    "-1 0 -1 -1 75 0.75 0.25\n"
    "-1 0 -1 -1 25 0.125 0.875\n";

RegistryEntry sample_entry(Rng& rng, std::uint32_t version) {
  RegistryEntry entry;
  entry.version = version;
  entry.trained_at = Timestamp::from_nanos(
      static_cast<std::int64_t>(rng.below(1'000'000'000'000ull)));
  entry.candidate_accuracy =
      static_cast<double>(rng.below(1'000'000)) * 1e-6;
  entry.incumbent_accuracy =
      static_cast<double>(rng.below(1'000'000)) * 1e-6;
  entry.package.task = AutomationTask::dns_amplification_drop();
  entry.package.task.rate_limit_pps =
      static_cast<double>(1 + rng.below(10'000));
  auto tree = ml::DecisionTree::deserialize(kTreeText);
  EXPECT_TRUE(tree.ok());
  entry.package.student = std::move(tree).value();
  entry.package.quantizer = dataplane::Quantizer::from_levels(
      {static_cast<double>(rng.below(100)), -1.5},
      {0.25, static_cast<double>(1 + rng.below(8))});
  entry.package.strategy = rng.chance(0.5) ? "rule_tcam" : "tree_walk";
  entry.package.resources.stages_used = static_cast<int>(rng.below(12));
  entry.package.resources.tcam_entries = rng.below(4096);
  entry.package.resources.sram_bits = rng.below(1 << 20);
  entry.package.resources.register_arrays_used =
      static_cast<int>(rng.below(8));
  return entry;
}

std::vector<std::uint8_t> valid_file(Rng& rng, std::size_t entries) {
  RegistryFile file;
  for (std::size_t i = 0; i < entries; ++i)
    file.entries.push_back(
        sample_entry(rng, static_cast<std::uint32_t>(i + 1)));
  if (entries > 0)
    file.active_version =
        static_cast<std::uint32_t>(1 + rng.below(entries));
  return encode_registry(file);
}

bool known_code(const std::string& code) {
  return code == "registry_magic" || code == "registry_version" ||
         code == "registry_truncated" || code == "registry_checksum" ||
         code == "registry_corrupt" || code == "registry_io";
}

// One random structural mutation, in place.
void mutate(Rng& rng, std::vector<std::uint8_t>& file) {
  switch (rng.below(6)) {
    case 0:  // truncate anywhere, including to zero
      file.resize(rng.below(file.size() + 1));
      break;
    case 1: {  // flip 1-8 random bytes
      if (file.empty()) break;
      const std::size_t flips = 1 + rng.below(8);
      for (std::size_t i = 0; i < flips; ++i)
        file[rng.below(file.size())] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      break;
    }
    case 2: {  // zero a random region (wipes counts/lengths)
      if (file.empty()) break;
      const std::size_t begin = rng.below(file.size());
      const std::size_t len = rng.below(file.size() - begin + 1);
      for (std::size_t i = begin; i < begin + len; ++i) file[i] = 0;
      break;
    }
    case 3: {  // saturate a random region (maxes the same fields)
      if (file.empty()) break;
      const std::size_t begin = rng.below(file.size());
      const std::size_t len = rng.below(file.size() - begin + 1);
      for (std::size_t i = begin; i < begin + len; ++i) file[i] = 0xFF;
      break;
    }
    case 4: {  // append garbage
      const std::size_t extra = 1 + rng.below(64);
      for (std::size_t i = 0; i < extra; ++i)
        file.push_back(static_cast<std::uint8_t>(rng.below(256)));
      break;
    }
    default: {  // replace the whole tail with noise
      if (file.empty()) break;
      const std::size_t begin = rng.below(file.size());
      for (std::size_t i = begin; i < file.size(); ++i)
        file[i] = static_cast<std::uint8_t>(rng.below(256));
      break;
    }
  }
}

// FNV-1a 64, the file's checksum function — the test-side copy lets the
// suite craft files whose checksums are *valid* but whose payload is
// structurally wrong, reaching the validators behind the checksum gate.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void put_u64_be(std::vector<std::uint8_t>& buf, std::size_t at,
                std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

// Recompute both checksums after a deliberate payload tamper.
// Header: 8 magic + 1 ver + 1 flags + 2 reserved + 4 len | fnv64(payload)
// at 16 | fnv64(header[0..24)) at 24.
void reseal(std::vector<std::uint8_t>& file) {
  put_u64_be(file, 16,
             fnv1a(file.data() + kHeaderBytes, file.size() - kHeaderBytes));
  put_u64_be(file, 24, fnv1a(file.data(), kHeaderBytes - 8));
}

// ----------------------------------------------------------- the suite

TEST(RegistryCorruption, StableErrorCodes) {
  Rng rng(11);
  const auto base = valid_file(rng, 5);
  ASSERT_TRUE(decode_registry(base).ok());

  auto bad = base;
  bad[0] ^= 0xFF;
  EXPECT_EQ(decode_registry(bad).error().code, "registry_magic");

  bad = base;
  bad[8] = 0x7F;  // future format version (checked before the checksum)
  EXPECT_EQ(decode_registry(bad).error().code, "registry_version");

  bad = base;
  bad.resize(kHeaderBytes - 1);  // shorter than the header
  EXPECT_EQ(decode_registry(bad).error().code, "registry_truncated");

  bad = base;
  bad.pop_back();  // payload length disagrees with file size
  EXPECT_EQ(decode_registry(bad).error().code, "registry_truncated");

  bad = base;
  bad[10] ^= 0x01;  // reserved header byte: header checksum catches it
  EXPECT_EQ(decode_registry(bad).error().code, "registry_checksum");

  bad = base;
  bad[kHeaderBytes + 3] ^= 0x01;  // payload byte
  EXPECT_EQ(decode_registry(bad).error().code, "registry_checksum");

  // Valid checksums, structurally wrong payload: version order breaks.
  bad = base;
  bad[kHeaderBytes] = 0xFF;  // entry-count varint becomes huge
  reseal(bad);
  auto resealed = decode_registry(bad);
  ASSERT_FALSE(resealed.ok());
  EXPECT_EQ(resealed.error().code, "registry_corrupt");

  EXPECT_EQ(read_registry_file("/nonexistent/campuslab.clmr").error().code,
            "registry_io");
}

// Every prefix of a valid file, byte by byte: errors all the way up,
// no crash, no over-read.
TEST(RegistryCorruption, TruncationLadder) {
  Rng rng(22);
  const auto base = valid_file(rng, 3);
  for (std::size_t len = 0; len < base.size(); ++len) {
    std::vector<std::uint8_t> cut(
        base.begin(), base.begin() + static_cast<std::ptrdiff_t>(len));
    auto r = decode_registry(cut);
    ASSERT_FALSE(r.ok()) << "decoded a " << len << "-byte prefix of a "
                         << base.size() << "-byte file";
    ASSERT_TRUE(known_code(r.error().code)) << r.error().code;
  }
}

// Seeded mutation storm: any mutation either still decodes (mutations
// can cancel) or fails with a stable code. ASAN is the other half of
// this test.
TEST(RegistryCorruption, SeededMutationStorm) {
  Rng rng(33);
  for (int round = 0; round < 400; ++round) {
    auto file = valid_file(rng, 1 + rng.below(6));
    const std::size_t mutations = 1 + rng.below(3);
    for (std::size_t m = 0; m < mutations; ++m) mutate(rng, file);
    auto r = decode_registry(file);
    if (!r.ok()) {
      ASSERT_TRUE(known_code(r.error().code))
          << "round " << round << ": unstable code " << r.error().code;
    }
  }
}

// Mutations behind resealed checksums: drives the structural validators
// (bounds, enum ranges, monotonic versions, exact consumption) rather
// than the checksum gate.
TEST(RegistryCorruption, ResealedMutationStorm) {
  Rng rng(44);
  for (int round = 0; round < 400; ++round) {
    auto file = valid_file(rng, 1 + rng.below(4));
    const std::size_t begin =
        kHeaderBytes + rng.below(file.size() - kHeaderBytes);
    const std::size_t flips = 1 + rng.below(6);
    for (std::size_t i = 0; i < flips; ++i)
      file[begin + rng.below(file.size() - begin)] ^=
          static_cast<std::uint8_t>(1 + rng.below(255));
    reseal(file);
    auto r = decode_registry(file);
    if (!r.ok()) {
      ASSERT_TRUE(r.error().code == "registry_corrupt")
          << "round " << round << ": resealed file failed with "
          << r.error().code << " (" << r.error().message << ")";
    }
  }
}

// A resealed file whose student tree has a self-loop (node 0 is its own
// left child): the tree decoder must reject it, so the registry never
// hands FastLoop::deploy a tree whose walk would not reach a leaf.
TEST(RegistryCorruption, CyclicStudentTreeIsCorrupt) {
  Rng rng(66);
  auto file = valid_file(rng, 1);
  const std::string root = "0 3.5 1 2 100";
  const auto at =
      std::search(file.begin(), file.end(), root.begin(), root.end());
  ASSERT_NE(at, file.end());
  at[6] = '0';  // "0 3.5 1 ..." -> "0 3.5 0 ...": left child 1 becomes 0
  reseal(file);
  const auto r = decode_registry(file);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "registry_corrupt");
}

// ModelRegistry::open over arbitrarily mutated files: never a crash,
// never a failed open — corrupt registries degrade to an empty start.
TEST(RegistryCorruption, OpenDegradesToEmptyStartNotCrash) {
  Rng rng(55);
  const auto dir =
      fs::path(::testing::TempDir()) / "campuslab_registry_storm";
  for (int round = 0; round < 60; ++round) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto file = valid_file(rng, 1 + rng.below(4));
    const std::size_t mutations = 1 + rng.below(3);
    for (std::size_t m = 0; m < mutations; ++m) mutate(rng, file);
    {
      std::ofstream out(dir / "registry.clmr",
                        std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(file.data()),
                static_cast<std::streamsize>(file.size()));
    }
    auto reg = ModelRegistry::open(dir.string());
    ASSERT_TRUE(reg.ok()) << "round " << round << ": open failed: "
                          << reg.error().message;
    if (reg.value().recovered_from_corruption()) {
      EXPECT_TRUE(reg.value().entries().empty());
      EXPECT_EQ(reg.value().active_version(), 0u);
    }
    // Whatever happened, the registry must be immediately usable.
    RegistryEntry next;
    next.version = reg.value().next_version();
    next.trained_at = Timestamp::from_nanos(round);
    next.package = sample_entry(rng, next.version).package;
    ASSERT_TRUE(reg.value().publish(next, "post-recovery").ok());
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace campuslab::control
