// Tests for the Testbed harness itself — pipeline wiring (tap ->
// capture -> flow meter -> store, collector), the optional raw-packet
// archive with collection-time payload policy, and harvest semantics.
#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "campuslab/packet/view.h"
#include "campuslab/testbed/testbed.h"

namespace campuslab::testbed {
namespace {

TestbedConfig base_config(std::uint64_t seed) {
  TestbedConfig cfg;
  cfg.scenario.campus.seed = seed;
  cfg.scenario.campus.diurnal = false;
  return cfg;
}

TEST(Testbed, PipelineWiringPopulatesStoreAndCollector) {
  auto cfg = base_config(31001);
  cfg.scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .rate(500)
          .starting_at(Timestamp::from_seconds(2))
          .lasting(Duration::seconds(4)));
  cfg.collector.labeling.attack_vs_benign = true;
  Testbed bed(cfg);
  bed.run(Duration::seconds(8));

  EXPECT_GT(bed.capture_engine().stats().offered, 1000u);
  EXPECT_EQ(bed.capture_engine().stats().dropped, 0u);
  EXPECT_GT(bed.collector().rows_collected(), 500u);

  const auto dataset = bed.harvest_dataset();
  EXPECT_GT(dataset.n_rows(), 500u);
  EXPECT_EQ(bed.collector().rows_collected(), 0u);  // taken
  EXPECT_GT(bed.store().size(), 50u);  // flushed flows landed
  const auto counts = dataset.class_counts();
  EXPECT_GT(counts[0], 0u);
  EXPECT_GT(counts[1], 0u);
}

TEST(Testbed, ObserversSeeEveryCapturedPacket) {
  auto cfg = base_config(31002);
  Testbed bed(cfg);
  std::uint64_t observed = 0;
  bed.add_observer(
      [&](const capture::DecodedPacket&) { ++observed; });
  bed.run(Duration::seconds(5));
  EXPECT_EQ(observed, bed.capture_engine().stats().consumed);
  EXPECT_GT(observed, 500u);
}

class ArchiveTestbedFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("campuslab_tb_archive_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(ArchiveTestbedFixture, ArchivesRedactedPackets) {
  auto cfg = base_config(31003);
  cfg.archive_directory = dir_.string();
  cfg.archive_segment_span = Duration::seconds(5);
  Testbed bed(cfg);
  ASSERT_TRUE(bed.archive().has_value());
  bed.run(Duration::seconds(12));
  ASSERT_TRUE(bed.archive()->seal().ok());

  // Multiple segments rotated and recorded on disk.
  EXPECT_GE(bed.archive()->segments().size(), 2u);
  EXPECT_EQ(bed.archive()->records_written(),
            bed.capture_engine().stats().consumed);

  auto packets = bed.archive()->read_range(Timestamp::from_seconds(0),
                                           Timestamp::from_seconds(12));
  ASSERT_TRUE(packets.ok());
  ASSERT_GT(packets.value().size(), 500u);

  // Collection-time policy: ssh payloads are stripped, DNS kept.
  for (const auto& pkt : packets.value()) {
    packet::PacketView view(pkt);
    if (!view.valid()) continue;
    const auto tuple = view.five_tuple();
    if (!tuple) continue;
    if (tuple->src_port == 22 || tuple->dst_port == 22) {
      EXPECT_TRUE(view.payload().empty())
          << "ssh payload survived the policy";
    }
  }
}

TEST_F(ArchiveTestbedFixture, MissingDirectoryDisablesArchive) {
  auto cfg = base_config(31004);
  cfg.archive_directory = (dir_ / "nope" / "nothere").string();
  Testbed bed(cfg);
  EXPECT_FALSE(bed.archive().has_value());
  bed.run(Duration::seconds(2));  // still works without the archive
  EXPECT_GT(bed.capture_engine().stats().consumed, 100u);
}

TEST(Testbed, FlashCrowdScenarioStaysBenign) {
  auto cfg = base_config(31005);
  cfg.scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kFlashCrowd)
          .rate(800)
          .starting_at(Timestamp::from_seconds(1))
          .lasting(Duration::seconds(4)));
  Testbed bed(cfg);
  bed.run(Duration::seconds(6));
  // The crowd dominated inbound traffic, yet nothing is labelled attack.
  const auto& acc = bed.network().accounting();
  EXPECT_GT(acc.tapped_in.benign_frames(), 2500u);
  EXPECT_EQ(acc.tapped_in.attack_frames(), 0u);
}

}  // namespace
}  // namespace campuslab::testbed
