// AutomationLoop — the closed loop over both of Figure 2's loops.
//
// The paper's endgame is a pipeline where "the network runs itself":
// the fast loop enforces, a drift detector watches the live verdict
// stream, and when the traffic distribution moves the slow loop
// retrains, re-extracts, re-compiles, canaries, and hot-swaps — with no
// operator in the loop but every step auditable after the fact. This
// class is that supervisor, run as a stage machine:
//
//        ┌────────────────────────────────────────────────────┐
//        v                 (drift trigger)                     │
//      Idle ──> Train ──> Extract ──> Compile ──> Canary ──> Swap
//        ^        │           │           │          │          │
//        │        └───────────┴─────┬─────┴──────────┘          │
//        │       retry (transient) / abort (exhausted):         │
//        └──────── keep serving the incumbent ──────────────────┘
//                  rollback (canary regressed): discard candidate
//
// Robustness contract:
//   * Ingest never stops: the live model hangs off an RCU-style
//     ModelHandle (control/fast_loop.h); the packet path takes a
//     lock-free snapshot per packet (one acquire load) and a swap is
//     one release store of the new version's pointer.
//   * Every stage crosses its own seeded fault site (control.train /
//     control.extract / control.compile / control.swap /
//     control.registry) and is wrapped in retry_status(); when retries
//     exhaust, the cycle ABORTS and the incumbent keeps serving — the
//     loop never leaves the dataplane without a model it already had.
//   * Every promotion is durable before it is claimed: ModelRegistry
//     persists via write-then-rename and audits promotions only after
//     the rename, so a SIGKILL at any stage recovers — on restart,
//     start() redeploys the last *promoted* version from disk and the
//     audit log shows no phantom promotions.
//
// Physically this file lives in the testbed module (the loop drives a
// Testbed and a CanaryDeployment, which link above campuslab_control),
// but the type belongs to the control plane and keeps its namespace.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campuslab/control/development_loop.h"
#include "campuslab/control/drift.h"
#include "campuslab/control/fast_loop.h"
#include "campuslab/control/model_registry.h"
#include "campuslab/resilience/retry.h"
#include "campuslab/testbed/canary.h"
#include "campuslab/testbed/testbed.h"

namespace campuslab::control {

struct AutomationConfig {
  DevelopmentConfig development;
  DriftConfig drift;
  /// Registry directory; empty = ephemeral (no durability, benches).
  std::string registry_directory;
  /// Cadence of the drift check (also the harvest cadence feeding the
  /// training reservoir; harvesting pauses while a canary is in
  /// flight, whose window finish_canary harvests instead).
  Duration drift_check_interval = Duration::seconds(5);
  /// Mirror-only canary window before a candidate may be promoted.
  Duration canary_duration = Duration::seconds(10);
  /// An underobserved canary extends its window at most this often
  /// before the cycle aborts (quiet network ≠ promotable model).
  std::size_t max_canary_extensions = 2;
  testbed::CanaryDeployment::Gate gate;
  /// Candidate resources must stay within this fraction of the switch
  /// budget (utilization(), worst dimension) or the canary rolls back.
  double max_budget_utilization = 1.0;
  /// Candidate must beat the incumbent on the fresh window by at least
  /// this much (balanced accuracy) to be promoted.
  double promote_margin = 0.0;
  /// Reservoir windows with fewer labelled rows than this do not start
  /// a cycle even when drift is armed.
  std::size_t min_window_rows = 500;
  /// Retraining reservoir cap: harvested windows accumulate and are
  /// down-sampled to this many rows (incremental retrain sees history
  /// plus the drifted present, not just one window).
  std::size_t reservoir_rows = 8192;
  resilience::RetryPolicy retry;
  std::uint64_t seed = 1;
};

enum class LoopStage : int {
  kIdle = 0,
  kTrain = 1,
  kExtract = 2,
  kCompile = 3,
  kCanary = 4,
  kSwap = 5,
};
std::string_view to_string(LoopStage stage) noexcept;

enum class LoopHealth : int { kHealthy = 0, kDegraded = 1 };

enum class CycleOutcome { kPromoted, kRolledBack, kAborted };

/// One completed retrain cycle, for reports and assertions.
struct CycleRecord {
  std::uint64_t cycle = 0;
  std::uint32_t candidate_version = 0;  // 0 = aborted before publish
  CycleOutcome outcome = CycleOutcome::kAborted;
  /// Stable code for a rollback/abort (canary_precision,
  /// retry_exhausted, budget_utilization, ...); empty on promotion.
  std::string error_code;
  double candidate_accuracy = 0.0;
  double incumbent_accuracy = 0.0;
};

class AutomationLoop {
 public:
  /// The testbed's collector must be binary for the task in
  /// `config.development.task`. The loop must outlive the testbed run.
  AutomationLoop(AutomationConfig config, testbed::Testbed& testbed);

  /// Install the model handle as the ingress filter and begin.
  /// Recovery first: when the registry holds a promoted version, it is
  /// redeployed (audited kRecovered) and training is skipped. Otherwise
  /// an initial model is built from whatever the collector holds now
  /// (promoted without a canary — there is no incumbent to protect).
  /// Either way, the periodic drift check is scheduled before return.
  Status start();

  /// Run one retrain cycle immediately (tests, benches, the crash
  /// helper). Builds + publishes the candidate and starts its canary;
  /// the canary itself completes on the event clock.
  Status trigger_cycle();

  // -- queries ------------------------------------------------------

  LoopHealth health() const noexcept { return health_; }
  LoopStage stage() const noexcept { return stage_; }
  bool cycle_in_progress() const noexcept { return pending_.has_value(); }
  ModelHandle& handle() noexcept { return handle_; }
  const ModelHandle& handle() const noexcept { return handle_; }
  ModelRegistry& registry() noexcept { return *registry_; }
  const ModelRegistry& registry() const noexcept { return *registry_; }
  DriftDetector& drift() noexcept { return drift_; }
  const DriftDetector& drift() const noexcept { return drift_; }
  const std::vector<CycleRecord>& cycles() const noexcept {
    return cycles_;
  }
  const testbed::CanaryDeployment* canary() const noexcept {
    return canary_.get();
  }

  /// Called at entry to every stage (before the stage's work and
  /// before its fault site). The crash-recovery chaos test installs a
  /// hook that SIGKILLs the process at a seed-chosen stage.
  using StageHook = std::function<void(LoopStage)>;
  void set_stage_hook(StageHook hook) { stage_hook_ = std::move(hook); }

 private:
  void enter_stage(LoopStage stage);
  void check_tick();
  void harvest_into_reservoir();
  void absorb_window(ml::Dataset window);
  Status bootstrap_initial();
  /// Start a cycle; `cause` is the detail of its kDriftTrigger audit
  /// record (the drift signals, a cadence retrain, or "manual").
  Status run_cycle(const std::string& cause);
  void finish_canary();
  void finish_cycle(CycleOutcome outcome, std::string error_code);
  /// retry_status around `fn` with the stage's fault site crossed per
  /// attempt; FaultInjected (kThrow) converts to a retryable error.
  Status run_stage(LoopStage stage, std::string_view site,
                   const std::function<Status()>& fn);
  Status with_registry_retry(const std::function<Status()>& fn);
  /// The three build stages (train / extract / compile) under their
  /// fault sites and retry policies.
  Result<DeploymentPackage> build_package(const ml::Dataset& data);
  Status deploy_version(std::uint32_t version,
                        const DeploymentPackage& package);

  struct PendingCycle {
    std::uint64_t cycle = 0;
    std::uint32_t version = 0;
    DeploymentPackage package;
    double candidate_accuracy = 0.0;
    double incumbent_accuracy = 0.0;
    std::size_t extensions = 0;
  };

  AutomationConfig config_;
  testbed::Testbed* testbed_;
  ModelHandle handle_;
  std::optional<ModelRegistry> registry_;
  DriftDetector drift_;
  std::unique_ptr<testbed::CanaryDeployment> canary_;
  std::optional<ml::Dataset> reservoir_;
  std::optional<PendingCycle> pending_;
  std::vector<CycleRecord> cycles_;
  std::uint64_t next_cycle_ = 1;
  LoopStage stage_ = LoopStage::kIdle;
  LoopHealth health_ = LoopHealth::kHealthy;
  StageHook stage_hook_;
  Rng rng_;
  bool started_ = false;
};

}  // namespace campuslab::control
