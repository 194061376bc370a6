// ModelRegistry: CLMRG01 codec round trips, durable open/publish/
// promote/reload, audit-trail semantics (torn tails, no phantom
// promotions), fault-injected persistence, and the golden format
// fixture (tests/data/golden_registry_v1.clmr; regenerate intentional
// format changes with CAMPUSLAB_UPDATE_GOLDEN=1).
#include "campuslab/control/model_registry.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "campuslab/resilience/fault.h"

namespace campuslab::control {
namespace {

namespace fs = std::filesystem;

// A tiny fitted tree, hand-written in the v1 text format so the test
// needs no training run and the golden fixture stays deterministic.
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

DeploymentPackage make_package(double lo0 = 0.0) {
  DeploymentPackage package;
  package.task = AutomationTask::dns_amplification_drop();
  auto tree = ml::DecisionTree::deserialize(kTreeText);
  EXPECT_TRUE(tree.ok());
  package.student = std::move(tree).value();
  package.quantizer =
      dataplane::Quantizer::from_levels({lo0, -2.5}, {0.25, 1.0});
  package.strategy = "tree_walk";
  package.resources.stages_used = 3;
  package.resources.tcam_entries = 128;
  package.resources.sram_bits = 4096;
  package.resources.register_arrays_used = 2;
  return package;
}

RegistryEntry make_entry(std::uint32_t version) {
  RegistryEntry entry;
  entry.version = version;
  entry.trained_at = Timestamp::from_nanos(1'000'000'000LL * version);
  entry.candidate_accuracy = 0.5 + 0.001 * version;
  entry.incumbent_accuracy = 0.5;
  entry.package = make_package(0.5 * version);
  return entry;
}

fs::path fresh_dir(const char* tag) {
  auto dir = fs::path(::testing::TempDir()) /
             (std::string("campuslab_registry_") + tag);
  fs::remove_all(dir);
  return dir;
}

void expect_entries_equal(const RegistryEntry& a, const RegistryEntry& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.trained_at.nanos(), b.trained_at.nanos());
  EXPECT_EQ(a.candidate_accuracy, b.candidate_accuracy);
  EXPECT_EQ(a.incumbent_accuracy, b.incumbent_accuracy);
  EXPECT_EQ(a.package.task.name, b.package.task.name);
  EXPECT_EQ(a.package.task.event, b.package.task.event);
  EXPECT_EQ(a.package.task.confidence_threshold,
            b.package.task.confidence_threshold);
  EXPECT_EQ(a.package.task.action, b.package.task.action);
  EXPECT_EQ(a.package.task.rate_limit_pps, b.package.task.rate_limit_pps);
  EXPECT_EQ(a.package.strategy, b.package.strategy);
  EXPECT_EQ(a.package.resources.stages_used, b.package.resources.stages_used);
  EXPECT_EQ(a.package.resources.tcam_entries,
            b.package.resources.tcam_entries);
  EXPECT_EQ(a.package.resources.sram_bits, b.package.resources.sram_bits);
  EXPECT_EQ(a.package.resources.register_arrays_used,
            b.package.resources.register_arrays_used);
  ASSERT_EQ(a.package.quantizer.n_features(),
            b.package.quantizer.n_features());
  for (std::size_t f = 0; f < a.package.quantizer.n_features(); ++f) {
    // Bit-exact: the recovered model must quantize identically.
    EXPECT_EQ(a.package.quantizer.lo(f), b.package.quantizer.lo(f));
    EXPECT_EQ(a.package.quantizer.step(f), b.package.quantizer.step(f));
  }
  EXPECT_EQ(a.package.student.serialize(), b.package.student.serialize());
}

// ------------------------------------------------------------- codec

TEST(RegistryCodec, EncodeDecodeRoundTrip) {
  RegistryFile file;
  file.active_version = 2;
  file.entries.push_back(make_entry(1));
  file.entries.push_back(make_entry(2));
  file.entries.push_back(make_entry(7));

  const auto bytes = encode_registry(file);
  auto decoded = decode_registry(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value().active_version, 2u);
  ASSERT_EQ(decoded.value().entries.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    expect_entries_equal(decoded.value().entries[i], file.entries[i]);
}

TEST(RegistryCodec, EmptyRegistryRoundTrips) {
  RegistryFile file;
  const auto bytes = encode_registry(file);
  auto decoded = decode_registry(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().active_version, 0u);
  EXPECT_TRUE(decoded.value().entries.empty());
}

TEST(RegistryCodec, EncodingIsDeterministic) {
  RegistryFile file;
  file.active_version = 1;
  file.entries.push_back(make_entry(1));
  EXPECT_EQ(encode_registry(file), encode_registry(file));
}

TEST(RegistryCodec, RejectsForeignMagicWithStableCode) {
  auto bytes = encode_registry(RegistryFile{});
  bytes[0] = 'X';
  auto decoded = decode_registry(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "registry_magic");
}

TEST(RegistryCodec, RejectsFutureVersionWithStableCode) {
  auto bytes = encode_registry(RegistryFile{});
  bytes[8] = kModelRegistryFormatVersion + 1;
  // The version is checked before the header checksum that covers it,
  // so no reseal is needed for the version check to fire.
  auto decoded = decode_registry(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "registry_version");
}

TEST(RegistryCodec, RejectsTruncationWithStableCode) {
  RegistryFile file;
  file.entries.push_back(make_entry(1));
  const auto bytes = encode_registry(file);
  auto truncated = decode_registry(
      std::span<const std::uint8_t>(bytes).subspan(0, bytes.size() - 1));
  ASSERT_FALSE(truncated.ok());
  EXPECT_TRUE(truncated.error().code == "registry_truncated" ||
              truncated.error().code == "registry_checksum")
      << truncated.error().code;
}

TEST(RegistryCodec, RejectsPayloadFlipWithStableCode) {
  RegistryFile file;
  file.entries.push_back(make_entry(1));
  auto bytes = encode_registry(file);
  bytes[bytes.size() - 1] ^= 0x40;
  auto decoded = decode_registry(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "registry_checksum");
}

// ------------------------------------------------------- audit codec

TEST(AuditLineCodec, RoundTripsEveryKindAndEscapesDetail) {
  for (int k = 0; k <= 5; ++k) {
    AuditEvent event;
    event.seq = 41 + static_cast<std::uint64_t>(k);
    event.at = Timestamp::from_nanos(123'456'789 + k);
    event.kind = static_cast<AuditKind>(k);
    event.version = 9;
    event.detail = "cycle 3: tv=0.31 % done\nnext";
    const auto line = encode_audit_line(event);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    auto decoded = decode_audit_line(line);
    ASSERT_TRUE(decoded.has_value()) << line;
    EXPECT_EQ(decoded->seq, event.seq);
    EXPECT_EQ(decoded->at.nanos(), event.at.nanos());
    EXPECT_EQ(decoded->kind, event.kind);
    EXPECT_EQ(decoded->version, event.version);
    EXPECT_EQ(decoded->detail, event.detail);
  }
}

TEST(AuditLineCodec, TamperedLineIsRejected) {
  AuditEvent event;
  event.seq = 7;
  event.kind = AuditKind::kPromoted;
  event.version = 3;
  auto line = encode_audit_line(event);
  line[3] ^= 1;
  EXPECT_FALSE(decode_audit_line(line).has_value());
  EXPECT_FALSE(decode_audit_line("").has_value());
  EXPECT_FALSE(decode_audit_line("v1 garbage").has_value());
  // A torn (half-written) line fails its checksum.
  EXPECT_FALSE(
      decode_audit_line(line.substr(0, line.size() / 2)).has_value());
}

// ---------------------------------------------------------- registry

TEST(ModelRegistry, EphemeralModeNeedsNoFilesystem) {
  auto reg = ModelRegistry::open("");
  ASSERT_TRUE(reg.ok());
  EXPECT_FALSE(reg.value().persistent());
  ASSERT_TRUE(reg.value().publish(make_entry(1), "initial").ok());
  ASSERT_TRUE(reg.value()
                  .promote(1, Timestamp::from_nanos(5), "initial")
                  .ok());
  EXPECT_EQ(reg.value().active_version(), 1u);
  EXPECT_EQ(reg.value().audit_trail().size(), 2u);
}

TEST(ModelRegistry, PublishPromoteSurviveReload) {
  const auto dir = fresh_dir("reload");
  {
    auto reg = ModelRegistry::open(dir.string());
    ASSERT_TRUE(reg.ok()) << reg.error().message;
    ASSERT_TRUE(reg.value().publish(make_entry(1), "initial").ok());
    ASSERT_TRUE(
        reg.value().promote(1, Timestamp::from_nanos(10), "initial").ok());
    ASSERT_TRUE(reg.value().publish(make_entry(2), "cycle 1").ok());
  }
  auto reopened = ModelRegistry::open(dir.string());
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(reopened.value().recovered_from_corruption());
  EXPECT_EQ(reopened.value().active_version(), 1u);
  ASSERT_EQ(reopened.value().entries().size(), 2u);
  expect_entries_equal(reopened.value().entries()[0], make_entry(1));
  EXPECT_EQ(reopened.value().next_version(), 3u);

  // Audit order: published(1), promoted(1), published(2).
  const auto& audit = reopened.value().audit_trail();
  ASSERT_EQ(audit.size(), 3u);
  EXPECT_EQ(audit[0].kind, AuditKind::kPublished);
  EXPECT_EQ(audit[1].kind, AuditKind::kPromoted);
  EXPECT_EQ(audit[1].version, 1u);
  EXPECT_EQ(audit[2].kind, AuditKind::kPublished);
  EXPECT_EQ(audit[2].version, 2u);
  fs::remove_all(dir);
}

TEST(ModelRegistry, PromoteToOlderVersionIsRollback) {
  auto reg = ModelRegistry::open("");
  ASSERT_TRUE(reg.ok());
  ASSERT_TRUE(reg.value().publish(make_entry(1)).ok());
  ASSERT_TRUE(reg.value().publish(make_entry(2)).ok());
  ASSERT_TRUE(reg.value().promote(2, Timestamp::from_nanos(1)).ok());
  ASSERT_TRUE(reg.value().promote(1, Timestamp::from_nanos(2)).ok());
  EXPECT_EQ(reg.value().active_version(), 1u);
  auto missing = reg.value().promote(9, Timestamp::from_nanos(3));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, "registry_not_found");
}

TEST(ModelRegistry, VersionsMustAscend) {
  auto reg = ModelRegistry::open("");
  ASSERT_TRUE(reg.ok());
  ASSERT_TRUE(reg.value().publish(make_entry(5)).ok());
  auto stale = reg.value().publish(make_entry(5));
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error().code, "registry_version_order");
}

TEST(ModelRegistry, PruneKeepsTheActiveVersion) {
  auto reg = ModelRegistry::open("");
  ASSERT_TRUE(reg.ok());
  ASSERT_TRUE(reg.value().publish(make_entry(1)).ok());
  ASSERT_TRUE(reg.value().promote(1, Timestamp::from_nanos(1)).ok());
  const auto last = static_cast<std::uint32_t>(kRegistryRetainedEntries + 5);
  for (std::uint32_t v = 2; v <= last; ++v)
    ASSERT_TRUE(reg.value().publish(make_entry(v)).ok());
  EXPECT_EQ(reg.value().entries().size(), kRegistryRetainedEntries);
  EXPECT_NE(reg.value().find(1), nullptr)
      << "pruning evicted the active version";
  EXPECT_EQ(reg.value().active_version(), 1u);
}

TEST(ModelRegistry, TornAuditTailIsDropped) {
  const auto dir = fresh_dir("torn");
  {
    auto reg = ModelRegistry::open(dir.string());
    ASSERT_TRUE(reg.ok());
    ASSERT_TRUE(reg.value().publish(make_entry(1)).ok());
    ASSERT_TRUE(reg.value().promote(1, Timestamp::from_nanos(1)).ok());
  }
  {
    // Simulate a kill mid-append: a half line, then (unreachable in
    // reality, but adversarial here) a valid-looking line after it.
    std::ofstream audit(dir / "audit.log", std::ios::app);
    audit << "v1 3 17 aborted 1 de";  // no checksum, no newline
  }
  auto reopened = ModelRegistry::open(dir.string());
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened.value().audit_trail().size(), 2u);
  // Appends after the torn tail reuse its sequence number cleanly.
  ASSERT_TRUE(reopened.value()
                  .record(AuditKind::kRecovered, 1,
                          Timestamp::from_nanos(2), "post-torn")
                  .ok());
  EXPECT_EQ(reopened.value().audit_trail().back().seq, 3u);
  fs::remove_all(dir);
}

TEST(ModelRegistry, CorruptRegistryDegradesToEmptyStart) {
  const auto dir = fresh_dir("corrupt");
  {
    auto reg = ModelRegistry::open(dir.string());
    ASSERT_TRUE(reg.ok());
    ASSERT_TRUE(reg.value().publish(make_entry(1)).ok());
  }
  {
    std::ofstream out(dir / "registry.clmr",
                      std::ios::binary | std::ios::trunc);
    out << "not a registry at all";
  }
  auto reopened = ModelRegistry::open(dir.string());
  ASSERT_TRUE(reopened.ok()) << "corrupt file must not fail open()";
  EXPECT_TRUE(reopened.value().recovered_from_corruption());
  EXPECT_TRUE(reopened.value().entries().empty());
  EXPECT_EQ(reopened.value().active_version(), 0u);
  EXPECT_TRUE(fs::exists(dir / "registry.clmr.corrupt"))
      << "bad file should be quarantined, not deleted";
  // And the registry is usable immediately.
  ASSERT_TRUE(reopened.value().publish(make_entry(1)).ok());
  fs::remove_all(dir);
}

TEST(ModelRegistry, InjectedPersistFailureRevertsMemoryState) {
  auto reg = ModelRegistry::open("");
  ASSERT_TRUE(reg.ok());
  ASSERT_TRUE(reg.value().publish(make_entry(1)).ok());
  {
    resilience::FaultPlan plan;
    plan.faults.push_back(resilience::FaultSpec{
        "control.registry", resilience::FaultKind::kFail, 1});
    resilience::FaultScope scope(std::move(plan));
    auto failed = reg.value().publish(make_entry(2));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code, "fault_injected");
    EXPECT_EQ(reg.value().entries().size(), 1u)
        << "unpersisted publish must not linger in memory";
    auto promoted = reg.value().promote(1, Timestamp::from_nanos(1));
    ASSERT_FALSE(promoted.ok());
    EXPECT_EQ(reg.value().active_version(), 0u)
        << "unpersisted promote must not flip the active version";
  }
  // Injector disarmed: the same mutations now succeed (retry story).
  ASSERT_TRUE(reg.value().publish(make_entry(2)).ok());
  ASSERT_TRUE(reg.value().promote(2, Timestamp::from_nanos(2)).ok());
  EXPECT_EQ(reg.value().active_version(), 2u);
}

// ------------------------------------------------------ golden fixture

fs::path golden_path() {
  return fs::path(CAMPUSLAB_TEST_DATA_DIR) / "golden_registry_v1.clmr";
}

TEST(ModelRegistry, GoldenFixturePinsFormat) {
  RegistryFile file;
  file.active_version = 2;
  file.entries.push_back(make_entry(1));
  file.entries.push_back(make_entry(2));
  const auto bytes = encode_registry(file);

  // Layout invariants, independent of the fixture file.
  const std::uint8_t magic[8] = {'C', 'L', 'M', 'R', 'G', '0', '1', '\n'};
  ASSERT_GE(bytes.size(), 32u);
  EXPECT_TRUE(std::equal(magic, magic + 8, bytes.begin()));
  EXPECT_EQ(bytes[8], kModelRegistryFormatVersion);

  const auto path = golden_path();
  if (std::getenv("CAMPUSLAB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden fixture regenerated at " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing " << path
                  << " — regenerate with CAMPUSLAB_UPDATE_GOLDEN=1";
  std::vector<std::uint8_t> golden{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
  EXPECT_EQ(bytes, golden)
      << "registry format changed; if intentional, bump "
         "kModelRegistryFormatVersion and regenerate with "
         "CAMPUSLAB_UPDATE_GOLDEN=1";

  auto decoded = decode_registry(golden);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().active_version, 2u);
  ASSERT_EQ(decoded.value().entries.size(), 2u);
  expect_entries_equal(decoded.value().entries[1], make_entry(2));
}

}  // namespace
}  // namespace campuslab::control
