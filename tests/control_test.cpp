// Tests for campuslab::control + campuslab::testbed — the complete
// Figure-2 pipeline: collect labelled packets on the testbed, run the
// development loop (train -> extract -> compile), deploy the fast loop
// as the ingress filter, and verify mitigation quality with ground
// truth; canary and safety-monitor behaviour included.
#include <gtest/gtest.h>

#include "campuslab/control/development_loop.h"
#include "campuslab/control/fast_loop.h"
#include "campuslab/testbed/canary.h"
#include "campuslab/testbed/report.h"
#include "campuslab/testbed/safety.h"
#include "campuslab/testbed/testbed.h"

namespace campuslab::control {
namespace {

using packet::TrafficLabel;
using testbed::Testbed;
using testbed::TestbedConfig;

/// A testbed preloaded with the DNS-amplification scenario and a
/// binary packet collector for it.
TestbedConfig amp_scenario(std::uint64_t seed, double attack_pps = 2000,
                           double attack_start_s = 5,
                           double attack_duration_s = 20) {
  TestbedConfig cfg;
  cfg.scenario.campus.seed = seed;
  cfg.scenario.campus.diurnal = false;
  cfg.scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .with(sim::DnsAmplificationShape{.response_bytes = 2500})
          .rate(attack_pps)
          .starting_at(Timestamp::from_seconds(attack_start_s))
          .lasting(Duration::from_seconds(attack_duration_s)));
  cfg.collector.labeling.binary_target =
      TrafficLabel::kDnsAmplification;
  cfg.collector.attack_sample_rate = 0.25;  // balance the classes
  cfg.collector.seed = seed ^ 0xC011EC7;
  return cfg;
}

DevelopmentConfig small_dev_config(std::uint64_t seed) {
  DevelopmentConfig cfg;
  cfg.teacher.n_trees = 20;
  cfg.teacher.max_depth = 12;
  cfg.teacher.seed = seed;
  cfg.extraction.student_max_depth = 5;
  cfg.extraction.synthetic_samples = 5000;
  cfg.extraction.seed = seed + 1;
  cfg.seed = seed + 2;
  return cfg;
}

class PipelineFixture : public ::testing::Test {
 protected:
  void build_package(std::uint64_t seed = 101) {
    Testbed bed(amp_scenario(seed));
    bed.run(Duration::seconds(30));
    dataset_ = std::make_unique<ml::Dataset>(bed.harvest_dataset());
    ASSERT_GT(dataset_->n_rows(), 2000u);
    const auto counts = dataset_->class_counts();
    ASSERT_GT(counts[0], 100u);
    ASSERT_GT(counts[1], 100u);

    DevelopmentLoop loop(small_dev_config(seed));
    auto result = loop.run(*dataset_);
    ASSERT_TRUE(result.ok()) << result.error().message;
    package_ = std::make_unique<DeploymentPackage>(
        std::move(result).value());
  }

  std::unique_ptr<ml::Dataset> dataset_;
  std::unique_ptr<DeploymentPackage> package_;
};

// ------------------------------------------------------ DevelopmentLoop

TEST_F(PipelineFixture, PackageQualityAndArtifacts) {
  build_package();
  EXPECT_GT(package_->teacher_holdout_accuracy, 0.97);
  EXPECT_GT(package_->student_holdout_accuracy, 0.95);
  EXPECT_GT(package_->holdout_fidelity, 0.95);
  EXPECT_TRUE(package_->resources.fits(
      dataplane::ResourceBudget::tofino_like()));
  EXPECT_EQ(package_->strategy, "tree_walk");  // depth 5 fits stages
  EXPECT_NE(package_->p4_source.find("model_metadata_t"),
            std::string::npos);
  EXPECT_NE(package_->p4_source.find("dst_inbound_pps"),
            std::string::npos);
  EXPECT_GT(package_->timings.train_us, 0);
  EXPECT_GT(package_->timings.extract_us, 0);
  EXPECT_GT(package_->timings.total_us, package_->timings.train_us);
  // The trust report names the paper's task.
  EXPECT_NE(package_->trust.to_string().find(
                "dns-amplification-ingress-drop"),
            std::string::npos);
}

TEST(DevelopmentLoop, RejectsMulticlassDataset) {
  ml::Dataset data(features::packet_feature_names(),
                   {"a", "b", "c"});
  DevelopmentLoop loop(small_dev_config(1));
  const auto result = loop.run(data);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "shape");
}

TEST(DevelopmentLoop, RejectsSingleClassData) {
  ml::Dataset data(features::packet_feature_names(), {"rest", "evt"});
  std::vector<double> row(features::kPacketFeatureCount, 1.0);
  for (int i = 0; i < 100; ++i) data.add(row, 0);
  DevelopmentLoop loop(small_dev_config(2));
  const auto result = loop.run(data);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "data");
}

TEST(DevelopmentLoop, GradientBoostedTeacherWorksToo) {
  Testbed bed(amp_scenario(313));
  bed.run(Duration::seconds(25));
  const auto dataset = bed.harvest_dataset();
  auto cfg = small_dev_config(313);
  cfg.teacher_kind = TeacherKind::kGradientBoosted;
  cfg.boosted_teacher.n_rounds = 40;
  cfg.boosted_teacher.seed = 314;
  const auto result = DevelopmentLoop(cfg).run(dataset);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_GT(result.value().teacher_holdout_accuracy, 0.97);
  EXPECT_GT(result.value().student_holdout_accuracy, 0.95);
  EXPECT_GT(result.value().holdout_fidelity, 0.95);
}

TEST(DevelopmentLoop, AutoFallsBackToTcamWhenStagesTooFew) {
  Testbed bed(amp_scenario(323));
  bed.run(Duration::seconds(25));
  const auto dataset = bed.harvest_dataset();
  auto cfg = small_dev_config(323);
  cfg.extraction.student_max_depth = 3;  // keep TCAM expansion small
  cfg.budget.stages = 3;  // too few for a tree walk (needs depth+2)
  cfg.budget.tcam_entries_per_stage = 1 << 14;
  const auto result = DevelopmentLoop(cfg).run(dataset);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result.value().strategy, "rule_tcam");
}

TEST(DevelopmentLoop, FailsWhenNothingFits) {
  Testbed bed(amp_scenario(333));
  bed.run(Duration::seconds(25));
  const auto dataset = bed.harvest_dataset();
  auto cfg = small_dev_config(333);
  cfg.budget.stages = 1;  // nothing fits one stage
  const auto result = DevelopmentLoop(cfg).run(dataset);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "budget");
}

TEST(DevelopmentLoop, ForcedTcamStrategy) {
  Testbed bed(amp_scenario(303));
  bed.run(Duration::seconds(25));
  const auto dataset = bed.harvest_dataset();
  auto cfg = small_dev_config(303);
  cfg.strategy = CompileStrategy::kRuleTcam;
  cfg.extraction.student_max_depth = 4;  // keep expansion tame
  const auto result = DevelopmentLoop(cfg).run(dataset);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result.value().strategy, "rule_tcam");
  EXPECT_GT(result.value().resources.tcam_entries, 0u);
}

// -------------------------------------------------------------- FastLoop

TEST_F(PipelineFixture, EnforcementMitigatesAttack) {
  build_package();
  // Fresh campus, same attack profile, different seed: road-test.
  Testbed bed(amp_scenario(202, 3000, 3, 15));
  auto loop = FastLoop::deploy(*package_);
  ASSERT_TRUE(loop.ok());
  loop.value()->install(bed.network());
  bed.run(Duration::seconds(25));

  const auto& stats = loop.value()->stats();
  EXPECT_GT(stats.inspected, 10000u);
  EXPECT_GT(stats.attack_block_rate(), 0.90);
  EXPECT_GT(stats.drop_precision(), 0.95);
  EXPECT_LT(stats.benign_loss_rate(), 0.02);
  // The network's own per-label accounting agrees.
  const auto& acc = bed.network().accounting();
  EXPECT_EQ(acc.filtered.total_frames(), stats.dropped);
  // Latency was measured.
  EXPECT_GT(loop.value()->latency_ns().count(), 0u);
  EXPECT_GT(loop.value()->latency_ns().mean(), 0.0);
}

TEST_F(PipelineFixture, MonitorOnlyNeverDrops) {
  build_package();
  package_->task.action = MitigationAction::kMonitorOnly;
  Testbed bed(amp_scenario(404, 1500, 2, 8));
  auto loop = FastLoop::deploy(*package_);
  ASSERT_TRUE(loop.ok());
  loop.value()->install(bed.network());
  bed.run(Duration::seconds(12));
  EXPECT_EQ(loop.value()->stats().dropped, 0u);
  EXPECT_GT(loop.value()->stats().inspected, 1000u);
}

TEST_F(PipelineFixture, RateLimitCapsAttackPassRate) {
  build_package();
  package_->task.action = MitigationAction::kRateLimit;
  package_->task.rate_limit_pps = 50.0;
  Testbed bed(amp_scenario(505, 2000, 2, 10));
  auto loop = FastLoop::deploy(*package_);
  ASSERT_TRUE(loop.ok());
  loop.value()->install(bed.network());
  bed.run(Duration::seconds(14));

  const auto& stats = loop.value()->stats();
  EXPECT_GT(stats.rate_limited_dropped, 0u);
  // Attack packets that got through <= limit * attack seconds + slack.
  EXPECT_LT(stats.attack_passed, 50.0 * 10 * 1.8 + 200);
  // Most of the flood was still shed.
  EXPECT_GT(stats.attack_block_rate(), 0.7);
}

// ---------------------------------------------------------------- Canary

TEST_F(PipelineFixture, CanaryScoresWithoutTouchingTraffic) {
  build_package();
  Testbed bed(amp_scenario(606, 2000, 3, 10));
  auto canary = testbed::CanaryDeployment::create(*package_);
  ASSERT_TRUE(canary.ok());
  canary.value()->attach(bed);
  bed.run(Duration::seconds(15));

  const auto& stats = canary.value()->stats();
  EXPECT_GT(stats.observed, 5000u);
  EXPECT_GT(stats.would_drop_precision(), 0.95);
  EXPECT_GT(stats.would_block_rate(), 0.90);
  EXPECT_LT(stats.would_benign_loss(), 0.02);
  testbed::CanaryDeployment::Gate gate;
  gate.min_precision = 0.9;
  gate.min_block_rate = 0.8;
  EXPECT_TRUE(canary.value()->evaluate(gate).ok());
  // Mirror only: nothing filtered at the border.
  EXPECT_EQ(bed.network().accounting().filtered.total_frames(), 0u);
}

TEST_F(PipelineFixture, CanaryRefusesWithoutEvidence) {
  build_package();
  auto canary = testbed::CanaryDeployment::create(*package_);
  ASSERT_TRUE(canary.ok());
  testbed::CanaryDeployment::Gate gate;
  gate.min_precision = 0.5;
  gate.min_block_rate = 0.5;
  const Status verdict = canary.value()->evaluate(gate);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.error().code, "canary_underobserved");
}

// ---------------------------------------------------------- SafetyMonitor

TEST_F(PipelineFixture, SafetyHoldsForGoodModel) {
  build_package();
  Testbed bed(amp_scenario(707, 2500, 3, 12));
  auto loop = FastLoop::deploy(*package_);
  ASSERT_TRUE(loop.ok());
  testbed::SafetyMonitor safety(*loop.value(), testbed::SafetyConfig{});
  safety.install(bed.network());
  bed.run(Duration::seconds(18));
  EXPECT_FALSE(safety.rolled_back());
  EXPECT_GT(safety.windows_judged(), 3u);
  EXPECT_GT(loop.value()->stats().attack_dropped, 0u);
}

TEST_F(PipelineFixture, SafetyRollsBackPoisonedModel) {
  build_package();
  // Poison: flip every label so the "attack" class is benign traffic.
  ml::Dataset poisoned(dataset_->feature_names(),
                       dataset_->class_names());
  for (std::size_t i = 0; i < dataset_->n_rows(); ++i)
    poisoned.add(dataset_->row(i), 1 - dataset_->label(i));
  const auto bad = DevelopmentLoop(small_dev_config(808)).run(poisoned);
  ASSERT_TRUE(bad.ok()) << bad.error().message;

  Testbed bed(amp_scenario(808, 2000, 3, 12));
  auto loop = FastLoop::deploy(bad.value());
  ASSERT_TRUE(loop.ok());
  testbed::SafetyConfig scfg;
  scfg.max_benign_drop_fraction = 0.05;
  testbed::SafetyMonitor safety(*loop.value(), scfg);
  safety.install(bed.network());
  bed.run(Duration::seconds(18));

  EXPECT_TRUE(safety.rolled_back());
  // After rollback everything passes: benign delivery recovers.
  const auto& acc = bed.network().accounting();
  EXPECT_GT(acc.delivered.benign_frames(), 0u);
}

// --------------------------------------------------------- RoadTestReport

TEST_F(PipelineFixture, ReportAggregatesAllPhases) {
  build_package();
  Testbed bed(amp_scenario(909, 2000, 2, 10));
  auto canary = testbed::CanaryDeployment::create(*package_);
  ASSERT_TRUE(canary.ok());
  canary.value()->attach(bed);
  auto loop = FastLoop::deploy(*package_);
  ASSERT_TRUE(loop.ok());
  testbed::SafetyMonitor safety(*loop.value(), testbed::SafetyConfig{});
  safety.install(bed.network());
  bed.run(Duration::seconds(14));

  const auto report = testbed::make_road_test_report(
      *package_, *canary.value(), *loop.value(), safety, bed.network());
  EXPECT_EQ(report.task_name, "dns-amplification-ingress-drop");
  EXPECT_GT(report.enforcement.attack_dropped, 0u);
  EXPECT_FALSE(report.rolled_back);
  const auto text = report.to_string();
  EXPECT_NE(text.find("Road-test report"), std::string::npos);
  EXPECT_NE(text.find("canary (mirror)"), std::string::npos);
  EXPECT_NE(text.find("fast-loop latency"), std::string::npos);
  EXPECT_NE(text.find("held"), std::string::npos);
}

}  // namespace
}  // namespace campuslab::control
