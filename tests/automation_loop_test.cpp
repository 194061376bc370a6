// AutomationLoop — the supervised retrain/canary/hot-swap stage machine.
//
// Covers the robustness contract end to end on the simulated campus:
// initial bootstrap, crash-restart recovery from the durable registry,
// drift-triggered retraining that actually promotes, retraining on the
// check cadence (trigger at 0) recovering from drift the verdict
// stream cannot see, canary gate, budget and promote-margin rollbacks
// that keep the incumbent, retry exhaustion degrading to "keep serving
// the last good model", the five seeded control.* fault sites ending
// Healthy with a model deployed, and the lock-free ModelHandle under
// concurrent swap/acquire (TSAN job).
#include "campuslab/testbed/automation_loop.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "campuslab/resilience/fault.h"

namespace campuslab::control {
namespace {

namespace fs = std::filesystem;
using packet::TrafficLabel;

/// Two-phase drift scenario: a heavy large-packet flood early, then a
/// small-packet few-reflector flood late — the regime the phase-1
/// model decays on. `phase2_pps` sets how loud the drifted regime is:
/// the drift-trigger test needs it to dominate the verdict stream; the
/// quiet regime stays inside the benign DNS envelope, and the rollback
/// tests trigger cycles on it explicitly.
testbed::TestbedConfig drift_scenario(std::uint64_t seed,
                                      double phase2_pps = 60) {
  testbed::TestbedConfig cfg;
  cfg.scenario.campus.seed = seed;
  cfg.scenario.campus.diurnal = false;
  cfg.scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .with(sim::DnsAmplificationShape{.response_bytes = 2400})
          .rate(1200)
          .starting_at(Timestamp::from_seconds(4))
          .lasting(Duration::seconds(14)));
  cfg.scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .with(sim::DnsAmplificationShape{.response_bytes = 300,
                                           .reflectors = 20})
          .rate(phase2_pps)
          .starting_at(Timestamp::from_seconds(45))
          .lasting(Duration::seconds(35)));

  cfg.collector.labeling.binary_target = TrafficLabel::kDnsAmplification;
  cfg.collector.attack_sample_rate = 0.5;
  cfg.collector.seed = seed + 5;
  return cfg;
}

AutomationConfig small_automation(std::uint64_t seed) {
  AutomationConfig cfg;
  cfg.development.teacher.n_trees = 12;
  cfg.development.teacher.seed = seed;
  cfg.development.extraction.student_max_depth = 5;
  cfg.development.extraction.synthetic_samples = 3000;
  cfg.development.extraction.seed = seed + 1;
  cfg.development.seed = seed + 2;

  cfg.drift.window = 1500;
  cfg.drift.bins = 8;
  cfg.drift.min_samples = 300;
  cfg.drift.trigger_threshold = 0.2;
  cfg.drift.clear_threshold = 0.1;
  cfg.drift.trigger_windows = 2;

  cfg.drift_check_interval = Duration::seconds(5);
  cfg.canary_duration = Duration::seconds(5);
  cfg.gate.min_precision = 0.6;
  cfg.gate.min_block_rate = 0.3;
  cfg.gate.max_benign_loss = 0.2;
  cfg.gate.min_observed = 500;
  cfg.min_window_rows = 200;
  cfg.retry.initial_backoff = Duration::micros(10);
  cfg.retry.max_backoff = Duration::micros(100);
  cfg.seed = seed + 3;
  return cfg;
}

bool audit_has(const ModelRegistry& reg, AuditKind kind) {
  for (const auto& event : reg.audit_trail())
    if (event.kind == kind) return true;
  return false;
}

/// Details of the audit records of `kind`, oldest first.
std::vector<std::string> audit_details(const ModelRegistry& reg,
                                       AuditKind kind) {
  std::vector<std::string> details;
  for (const auto& event : reg.audit_trail())
    if (event.kind == kind) details.push_back(event.detail);
  return details;
}

/// Fraction of the amplification attack delivered past the filter
/// between two accounting snapshots.
double delivered_fraction(const sim::DeliveryAccounting& before,
                          const sim::DeliveryAccounting& after) {
  const auto idx = static_cast<std::size_t>(TrafficLabel::kDnsAmplification);
  const auto delivered =
      after.delivered.frames[idx] - before.delivered.frames[idx];
  const auto filtered =
      after.filtered.frames[idx] - before.filtered.frames[idx];
  return static_cast<double>(delivered) /
         static_cast<double>(delivered + filtered + 1);
}

TEST(AutomationLoop, BootstrapTrainsAndPromotesVersionOne) {
  auto cfg = drift_scenario(51001);
  cfg.scenario.scenarios.pop_back();  // phase 1 only
  testbed::Testbed bed(cfg);
  bed.run(Duration::seconds(20));

  AutomationLoop loop(small_automation(51001), bed);
  ASSERT_TRUE(loop.start().ok());

  EXPECT_EQ(loop.handle().version(), 1u);
  EXPECT_NE(loop.handle().acquire(), nullptr);
  EXPECT_EQ(loop.registry().active_version(), 1u);
  EXPECT_EQ(loop.stage(), LoopStage::kIdle);
  EXPECT_EQ(loop.health(), LoopHealth::kHealthy);
  EXPECT_TRUE(loop.cycles().empty());
  EXPECT_TRUE(audit_has(loop.registry(), AuditKind::kPublished));
  EXPECT_TRUE(audit_has(loop.registry(), AuditKind::kPromoted));
}

TEST(AutomationLoop, StartWithoutAttackDataFailsCleanly) {
  testbed::TestbedConfig cfg;
  cfg.scenario.campus.seed = 51002;
  cfg.collector.labeling.binary_target = TrafficLabel::kDnsAmplification;
  testbed::Testbed bed(cfg);
  bed.run(Duration::seconds(10));  // benign only

  AutomationLoop loop(small_automation(51002), bed);
  const auto s = loop.start();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.error().code == "window_single_class" ||
              s.error().code == "window_too_small")
      << s.error().code;
}

TEST(AutomationLoop, RestartRecoversLastPromotedVersionWithoutRetraining) {
  const auto dir = fs::path(::testing::TempDir()) / "automation_recovery";
  fs::remove_all(dir);
  fs::create_directories(dir);

  {
    auto cfg = drift_scenario(51003);
    cfg.scenario.scenarios.pop_back();
    testbed::Testbed bed(cfg);
    bed.run(Duration::seconds(20));
    auto auto_cfg = small_automation(51003);
    auto_cfg.registry_directory = dir.string();
    AutomationLoop loop(auto_cfg, bed);
    ASSERT_TRUE(loop.start().ok());
    ASSERT_EQ(loop.registry().active_version(), 1u);
  }

  // "Process restart": a fresh testbed with NO gathered data — recovery
  // must come entirely from the persisted registry.
  testbed::TestbedConfig fresh;
  fresh.scenario.campus.seed = 51004;
  fresh.collector.labeling.binary_target = TrafficLabel::kDnsAmplification;
  testbed::Testbed bed(fresh);
  auto auto_cfg = small_automation(51004);
  auto_cfg.registry_directory = dir.string();
  AutomationLoop loop(auto_cfg, bed);
  ASSERT_TRUE(loop.start().ok());

  EXPECT_EQ(loop.handle().version(), 1u);
  EXPECT_NE(loop.handle().acquire(), nullptr);
  EXPECT_EQ(loop.registry().entries().size(), 1u);
  EXPECT_TRUE(audit_has(loop.registry(), AuditKind::kRecovered));
  fs::remove_all(dir);
}

TEST(AutomationLoop, DriftTriggersRetrainAndPromotesWithoutDroppingPackets) {
  testbed::Testbed bed(drift_scenario(51005, 1200));
  bed.run(Duration::seconds(20));
  AutomationLoop loop(small_automation(51005), bed);
  ASSERT_TRUE(loop.start().ok());
  bed.run(Duration::seconds(70));  // through phase 2 (45s-80s)

  ASSERT_FALSE(loop.cycles().empty())
      << "phase-2 drift never armed the detector: judged="
      << loop.drift().windows_judged()
      << " score=" << loop.drift().last_score_distance()
      << " rate_delta=" << loop.drift().last_rate_delta()
      << " triggers=" << loop.drift().triggers();
  bool promoted = false;
  for (const auto& cycle : loop.cycles())
    promoted |= cycle.outcome == CycleOutcome::kPromoted;
  EXPECT_TRUE(promoted) << "no retrained model was promoted";
  EXPECT_GE(loop.registry().active_version(), 2u);
  EXPECT_EQ(loop.handle().version(), loop.registry().active_version());
  EXPECT_EQ(loop.health(), LoopHealth::kHealthy);
  // Each cycle start names its cause: the detector's signals.
  const auto starts =
      audit_details(loop.registry(), AuditKind::kDriftTrigger);
  EXPECT_FALSE(starts.empty());
  for (const auto& detail : starts) {
    EXPECT_EQ(detail.rfind("score=", 0), 0u) << detail;
    EXPECT_NE(detail.find(" rate_delta="), std::string::npos) << detail;
  }

  // Zero acked-flow loss: retraining and hot swaps never backpressured
  // the capture path into dropping.
  EXPECT_EQ(bed.capture_engine().stats().dropped, 0u);
}

// The quiet regime (60 pps x 300 B) sits inside the benign DNS
// envelope, so the deployed tree passes it confidently and the verdict
// stream never moves. With the trigger at 0 every judged window counts
// as drifted, and the loop retrains, canaries and promotes on its check
// cadence instead.
TEST(AutomationLoop, ArmedEveryWindowRecoversQuietDriftWhereStaticDecays) {
  constexpr std::uint64_t kSeed = 41003;
  auto cfg = small_automation(kSeed);
  cfg.drift.trigger_threshold = 0.0;

  // Static: train once on phase 1, never retrain.
  double static_phase2 = 0;
  {
    testbed::Testbed bed(drift_scenario(kSeed));
    bed.run(Duration::seconds(20));
    DevelopmentLoop dev(cfg.development);
    auto package = dev.run(bed.harvest_dataset());
    ASSERT_TRUE(package.ok()) << package.error().message;
    auto loop = FastLoop::deploy(package.value());
    ASSERT_TRUE(loop.ok());
    loop.value()->install(bed.network());
    bed.run(Duration::seconds(24));  // to t=44, just before phase 2
    const auto before = bed.network().accounting();
    bed.run(Duration::seconds(41));  // through phase 2
    static_phase2 = delivered_fraction(before, bed.network().accounting());
  }

  testbed::Testbed bed(drift_scenario(kSeed));
  bed.run(Duration::seconds(20));
  AutomationLoop loop(cfg, bed);
  ASSERT_TRUE(loop.start().ok());
  bed.run(Duration::seconds(24));
  const auto before = bed.network().accounting();
  bed.run(Duration::seconds(41));
  const double loop_phase2 =
      delivered_fraction(before, bed.network().accounting());

  EXPECT_GT(static_phase2, 0.2);  // the static model really did decay
  EXPECT_LT(loop_phase2, static_phase2 * 0.7)
      << "static=" << static_phase2 << " loop=" << loop_phase2;
  EXPECT_GE(loop.registry().active_version(), 2u);
  EXPECT_EQ(loop.handle().version(), loop.registry().active_version());
  EXPECT_EQ(loop.health(), LoopHealth::kHealthy);
  // At trigger 0 every cycle is a cadence retrain, and says so.
  const auto starts =
      audit_details(loop.registry(), AuditKind::kDriftTrigger);
  EXPECT_FALSE(starts.empty());
  for (const auto& detail : starts)
    EXPECT_EQ(detail, "cadence trigger_threshold=0");
  // Before the drift starts at t=45 the canary sees no attack, so its
  // gate rolls every candidate back and v1 keeps serving.
  for (const auto& event : loop.registry().audit_trail()) {
    if (event.kind == AuditKind::kPromoted && event.version > 1) {
      EXPECT_GE(event.at.to_seconds(), 45.0)
          << "v" << event.version << " promoted before the drift";
    }
  }
}

TEST(AutomationLoop, CanaryGateFailureRollsBackAndKeepsIncumbent) {
  testbed::Testbed bed(drift_scenario(51006));
  bed.run(Duration::seconds(20));
  auto cfg = small_automation(51006);
  cfg.gate.min_block_rate = 1.1;  // unsatisfiable: every candidate fails
  cfg.gate.min_observed = 100;
  AutomationLoop loop(cfg, bed);
  ASSERT_TRUE(loop.start().ok());
  bed.run(Duration::seconds(30));  // fresh phase-2 data in the reservoir

  ASSERT_TRUE(loop.trigger_cycle().ok());
  ASSERT_TRUE(loop.cycle_in_progress());
  const auto starts =
      audit_details(loop.registry(), AuditKind::kDriftTrigger);
  ASSERT_FALSE(starts.empty());
  EXPECT_EQ(starts.back(), "manual");
  bed.run(Duration::seconds(6));  // let the canary window elapse

  ASSERT_FALSE(loop.cycle_in_progress());
  ASSERT_FALSE(loop.cycles().empty());
  const auto& cycle = loop.cycles().back();
  EXPECT_EQ(cycle.outcome, CycleOutcome::kRolledBack);
  EXPECT_EQ(cycle.error_code, "canary_block_rate");
  // The incumbent kept serving; the candidate is published but never
  // promoted; a rollback is the guardrail working, not a degradation.
  EXPECT_EQ(loop.handle().version(), 1u);
  EXPECT_EQ(loop.registry().active_version(), 1u);
  EXPECT_GE(loop.registry().entries().size(), 2u);
  EXPECT_EQ(loop.health(), LoopHealth::kHealthy);
  EXPECT_TRUE(audit_has(loop.registry(), AuditKind::kRolledBack));
}

TEST(AutomationLoop, BudgetOverrunRollsBack) {
  testbed::Testbed bed(drift_scenario(51007));
  bed.run(Duration::seconds(20));
  auto cfg = small_automation(51007);
  // A gate every candidate passes, then an unsatisfiable budget cap.
  cfg.gate.min_precision = 0.0;
  cfg.gate.min_block_rate = 0.0;
  cfg.gate.max_benign_loss = 1.0;
  cfg.gate.min_observed = 1;
  cfg.max_budget_utilization = 1e-6;
  AutomationLoop loop(cfg, bed);
  ASSERT_TRUE(loop.start().ok());
  bed.run(Duration::seconds(30));

  ASSERT_TRUE(loop.trigger_cycle().ok());
  bed.run(Duration::seconds(6));

  ASSERT_FALSE(loop.cycles().empty());
  EXPECT_EQ(loop.cycles().back().outcome, CycleOutcome::kRolledBack);
  EXPECT_EQ(loop.cycles().back().error_code, "budget_utilization");
  EXPECT_EQ(loop.handle().version(), 1u);
  EXPECT_EQ(loop.registry().active_version(), 1u);
}

// The margin is judged on the rows that arrived during the canary, so
// the check tick must leave them to the canary: an empty fresh window
// would skip the margin and promote.
TEST(AutomationLoop, PromoteMarginIsJudgedOnTheCanaryWindow) {
  testbed::Testbed bed(drift_scenario(51020));
  bed.run(Duration::seconds(20));
  auto cfg = small_automation(51020);
  // A gate every candidate passes, then a margin no candidate can beat.
  cfg.gate.min_precision = 0.0;
  cfg.gate.min_block_rate = 0.0;
  cfg.gate.max_benign_loss = 1.0;
  cfg.gate.min_observed = 1;
  cfg.promote_margin = 1.5;
  AutomationLoop loop(cfg, bed);
  ASSERT_TRUE(loop.start().ok());
  bed.run(Duration::seconds(30));

  ASSERT_TRUE(loop.trigger_cycle().ok());
  bed.run(Duration::seconds(6));

  ASSERT_FALSE(loop.cycle_in_progress());
  ASSERT_FALSE(loop.cycles().empty());
  EXPECT_EQ(loop.cycles().back().outcome, CycleOutcome::kRolledBack);
  EXPECT_EQ(loop.cycles().back().error_code, "promote_margin");
  EXPECT_EQ(loop.handle().version(), 1u);
  EXPECT_EQ(loop.registry().active_version(), 1u);
}

TEST(AutomationLoop, RetryExhaustionAbortsCycleButKeepsServing) {
  testbed::Testbed bed(drift_scenario(51008));
  bed.run(Duration::seconds(20));
  auto cfg = small_automation(51008);
  cfg.retry.max_attempts = 2;
  AutomationLoop loop(cfg, bed);
  ASSERT_TRUE(loop.start().ok());
  bed.run(Duration::seconds(30));

  resilience::FaultPlan plan;
  plan.seed = 7;
  plan.faults.push_back(
      {.site = "control.train", .kind = resilience::FaultKind::kFail,
       .every_n = 1});
  resilience::FaultScope scope(std::move(plan));

  const auto s = loop.trigger_cycle();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "retry_exhausted");
  ASSERT_FALSE(loop.cycles().empty());
  EXPECT_EQ(loop.cycles().back().outcome, CycleOutcome::kAborted);
  EXPECT_EQ(loop.health(), LoopHealth::kDegraded);
  // Degraded, not dark: the incumbent still serves the dataplane.
  EXPECT_EQ(loop.handle().version(), 1u);
  EXPECT_NE(loop.handle().acquire(), nullptr);
  EXPECT_TRUE(audit_has(loop.registry(), AuditKind::kAborted));
}

// Acceptance: seeded transient faults at ALL FIVE control.* sites —
// throws and failures alike — are absorbed by the per-stage retry
// machinery; the loop ends Healthy with a model deployed. The seed
// comes from CAMPUSLAB_FAULT_SEED (chaos-CI matrix).
TEST(AutomationLoop, SeededFaultsAtAllFiveSitesEndHealthy) {
  const std::uint64_t seed = resilience::FaultPlan::seed_from_env(1);
  resilience::FaultPlan plan;
  plan.seed = seed;
  const char* sites[] = {"control.train", "control.extract",
                         "control.compile", "control.swap",
                         "control.registry"};
  for (std::size_t i = 0; i < 5; ++i) {
    resilience::FaultSpec spec;
    spec.site = sites[i];
    // Alternate hard failures and thrown faults across the sites; at
    // most two fires each so a 6-attempt retry budget always clears.
    spec.kind = (i + seed) % 2 == 0 ? resilience::FaultKind::kFail
                                    : resilience::FaultKind::kThrow;
    spec.probability = 0.5;
    spec.max_fires = 2;
    plan.faults.push_back(std::move(spec));
  }
  resilience::FaultScope scope(std::move(plan));

  testbed::Testbed bed(drift_scenario(51009 + seed));
  bed.run(Duration::seconds(20));
  auto cfg = small_automation(51009 + seed);
  cfg.retry.max_attempts = 6;
  AutomationLoop loop(cfg, bed);
  ASSERT_TRUE(loop.start().ok());
  bed.run(Duration::seconds(30));
  ASSERT_TRUE(loop.trigger_cycle().ok());
  bed.run(Duration::seconds(20));  // canary (+ possible extensions)

  EXPECT_FALSE(loop.cycle_in_progress());
  EXPECT_EQ(loop.health(), LoopHealth::kHealthy)
      << "seed " << seed << ": a transient fault was not absorbed";
  EXPECT_NE(loop.handle().acquire(), nullptr)
      << "the loop left the dataplane without a model";
  EXPECT_GE(loop.handle().version(), 1u);
  EXPECT_EQ(loop.handle().version(), loop.registry().active_version());
  // Audit consistency: every promoted version exists in the registry.
  for (const auto& event : loop.registry().audit_trail()) {
    if (event.kind == AuditKind::kPromoted) {
      EXPECT_NE(loop.registry().find(event.version), nullptr)
          << "phantom promotion of v" << event.version;
    }
  }
  EXPECT_EQ(bed.capture_engine().stats().dropped, 0u);
}

// TSAN target (CI runs -R AutomationConcurrency under ThreadSanitizer):
// the RCU-style ModelHandle must allow concurrent swap and acquire with
// no locks and no races — this is the "ingest never stops" property at
// the memory-model level.
TEST(AutomationConcurrency, ModelHandleSwapVersusAcquire) {
  ModelHandle handle;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint32_t last_seen = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = handle.acquire();
        if (snap) {
          // Versions only move forward in this test; a torn or stale
          // pointer would show up as a regression (or as a TSAN race).
          EXPECT_GE(snap->version, last_seen);
          last_seen = snap->version;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::uint32_t v = 1; v <= 2000; ++v) handle.swap(v, nullptr);
  // Keep the final version live until every reader has demonstrably
  // raced against the swaps (under a loaded machine the writer can
  // otherwise finish before a reader is even scheduled).
  while (reads.load(std::memory_order_relaxed) < 1000)
    std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(handle.version(), 2000u);
  EXPECT_GE(reads.load(), 1000u);
}

}  // namespace
}  // namespace campuslab::control
