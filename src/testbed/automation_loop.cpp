#include "campuslab/testbed/automation_loop.h"

#include <utility>

#include "campuslab/obs/registry.h"
#include "campuslab/resilience/fault.h"

namespace campuslab::control {

namespace {

struct LoopMetrics {
  obs::Gauge& stage = obs::Registry::global().gauge("control.loop_stage");
  obs::Gauge& health = obs::Registry::global().gauge("control.loop_health");
  obs::Gauge& model_version =
      obs::Registry::global().gauge("control.model_version");
  obs::Counter& cycles_started =
      obs::Registry::global().counter("control.cycles_started");
  obs::Counter& cycles_promoted =
      obs::Registry::global().counter("control.cycles_promoted");
  obs::Counter& cycles_rolled_back =
      obs::Registry::global().counter("control.cycles_rolled_back");
  obs::Counter& cycles_aborted =
      obs::Registry::global().counter("control.cycles_aborted");
  obs::Counter& canary_extensions =
      obs::Registry::global().counter("control.canary_extensions");

  static LoopMetrics& get() {
    static LoopMetrics m;
    return m;
  }
};

}  // namespace

std::string_view to_string(LoopStage stage) noexcept {
  switch (stage) {
    case LoopStage::kIdle:
      return "idle";
    case LoopStage::kTrain:
      return "train";
    case LoopStage::kExtract:
      return "extract";
    case LoopStage::kCompile:
      return "compile";
    case LoopStage::kCanary:
      return "canary";
    case LoopStage::kSwap:
      return "swap";
  }
  return "?";
}

AutomationLoop::AutomationLoop(AutomationConfig config,
                               testbed::Testbed& testbed)
    : config_(std::move(config)),
      testbed_(&testbed),
      drift_(config_.drift),
      rng_(config_.seed) {}

void AutomationLoop::enter_stage(LoopStage stage) {
  stage_ = stage;
  LoopMetrics::get().stage.set(static_cast<int>(stage));
  if (stage_hook_) stage_hook_(stage);
}

Status AutomationLoop::run_stage(LoopStage stage, std::string_view site,
                                 const std::function<Status()>& fn) {
  enter_stage(stage);
  return resilience::retry_status(
      config_.retry, rng_, site, [&]() -> Status {
        try {
          if (auto s = resilience::fault_point_status(site); !s.ok())
            return s;
          return fn();
        } catch (const resilience::FaultInjected& e) {
          // kThrow faults are transient too: the supervisor converts
          // them to a retryable error rather than dying mid-cycle.
          return Error::make("fault_injected", e.what());
        }
      });
}

Status AutomationLoop::deploy_version(std::uint32_t version,
                                      const DeploymentPackage& package) {
  auto status = run_stage(
      LoopStage::kSwap, "control.swap", [&]() -> Status {
        auto loop = FastLoop::deploy(package);
        if (!loop.ok()) return loop.error();
        // The live model feeds the drift detector: score = model's
        // probability of the event class, positive = its verdict.
        loop.value()->set_verdict_hook(
            [this](int cls, double confidence, bool /*dropped*/) {
              drift_.observe(cls == 1 ? confidence : 1.0 - confidence,
                             cls == 1);
            });
        handle_.swap(version, std::move(loop).value());
        return Status::success();
      });
  if (status.ok())
    LoopMetrics::get().model_version.set(static_cast<std::int64_t>(version));
  return status;
}

Status AutomationLoop::start() {
  if (started_)
    return Error::make("loop_started", "start() called twice");
  auto registry = ModelRegistry::open(config_.registry_directory);
  if (!registry.ok()) return registry.error();
  registry_.emplace(std::move(registry).value());

  // The handle — not any single FastLoop — owns the ingress filter, so
  // later swaps never touch the network wiring. Installed before any
  // model exists: an empty handle forwards traffic.
  handle_.install(testbed_->network());
  // One permanent tee to whichever canary is live; sinks cannot be
  // removed, so cycles must not each register their own.
  testbed_->add_observer([this](const capture::DecodedPacket& tagged) {
    if (canary_) canary_->observe(tagged.pkt, tagged.view, tagged.dir);
  });
  started_ = true;
  LoopMetrics::get().health.set(static_cast<int>(health_));

  const auto now = testbed_->network().events().now();
  if (const RegistryEntry* active = registry_->active();
      active != nullptr) {
    // Crash/restart recovery: redeploy the last promoted version from
    // disk; no retraining, no canary.
    auto deployed = deploy_version(active->version, active->package);
    if (!deployed.ok()) return deployed;
    (void)registry_->record(AuditKind::kRecovered, active->version, now,
                            "redeployed after restart");
    drift_.rebase();
    enter_stage(LoopStage::kIdle);
  } else {
    // First boot: build v1 from the gathered prefix and promote it
    // without a canary — there is no incumbent to protect yet.
    harvest_into_reservoir();
    if (auto s = bootstrap_initial(); !s.ok()) return s;
  }

  testbed_->network().events().schedule_in(config_.drift_check_interval,
                                           [this] { check_tick(); });
  return Status::success();
}

Status AutomationLoop::bootstrap_initial() {
  if (!reservoir_.has_value() ||
      reservoir_->n_rows() < config_.min_window_rows)
    return Error::make("window_too_small",
                       "initial window too small for training");
  const auto counts = reservoir_->class_counts();
  if (counts[0] == 0 || counts[1] == 0)
    return Error::make("window_single_class",
                       "initial window lacks one class");

  auto built = build_package(*reservoir_);
  if (!built.ok()) return built.error();

  RegistryEntry entry;
  entry.version = registry_->next_version();
  entry.trained_at = testbed_->network().events().now();
  entry.candidate_accuracy = built.value().balanced_accuracy_on(*reservoir_);
  entry.package = std::move(built).value();

  if (auto s = with_registry_retry([&] {
        return registry_->publish(entry, "initial");
      });
      !s.ok())
    return s;
  if (auto s = deploy_version(entry.version, entry.package); !s.ok())
    return s;
  if (auto s = with_registry_retry([&] {
        return registry_->promote(entry.version,
                                  testbed_->network().events().now(),
                                  "initial");
      });
      !s.ok())
    return s;
  drift_.rebase();
  enter_stage(LoopStage::kIdle);
  return Status::success();
}

Status AutomationLoop::with_registry_retry(
    const std::function<Status()>& fn) {
  return resilience::retry_status(
      config_.retry, rng_, "control.registry", [&]() -> Status {
        try {
          return fn();
        } catch (const resilience::FaultInjected& e) {
          return Error::make("fault_injected", e.what());
        }
      });
}

void AutomationLoop::harvest_into_reservoir() {
  absorb_window(testbed_->harvest_dataset());
}

void AutomationLoop::check_tick() {
  testbed_->network().events().schedule_in(config_.drift_check_interval,
                                           [this] { check_tick(); });
  // A canary in flight owns the rows arriving meanwhile: finish_canary
  // scores them as its fresh window, then absorbs them.
  if (pending_.has_value()) return;
  harvest_into_reservoir();
  if (!drift_.triggered()) return;
  // At threshold 0 every judged window arms the detector, so the cycle
  // is the check cadence's, not a response to the signals.
  const std::string cause =
      config_.drift.trigger_threshold == 0.0
          ? std::string("cadence trigger_threshold=0")
          : "score=" + std::to_string(drift_.last_score_distance()) +
                " rate_delta=" + std::to_string(drift_.last_rate_delta());
  // A failed cycle start (thin window, retries exhausted) leaves the
  // detector armed; the next tick tries again.
  (void)run_cycle(cause);
}

Result<DeploymentPackage> AutomationLoop::build_package(
    const ml::Dataset& data) {
  DevelopmentLoop dev(config_.development);

  std::optional<TrainArtifacts> trained;
  auto status =
      run_stage(LoopStage::kTrain, "control.train", [&]() -> Status {
        auto result = dev.train(data);
        if (!result.ok()) return result.error();
        trained.emplace(std::move(result).value());
        return Status::success();
      });
  if (!status.ok()) return status.error();

  std::optional<ExtractArtifacts> extracted;
  status =
      run_stage(LoopStage::kExtract, "control.extract", [&]() -> Status {
        auto result = dev.extract(*trained);
        if (!result.ok()) return result.error();
        extracted.emplace(std::move(result).value());
        return Status::success();
      });
  if (!status.ok()) return status.error();

  std::optional<DeploymentPackage> package;
  status =
      run_stage(LoopStage::kCompile, "control.compile", [&]() -> Status {
        auto result = dev.compile(*trained, *extracted);
        if (!result.ok()) return result.error();
        package.emplace(std::move(result).value());
        return Status::success();
      });
  if (!status.ok()) return status.error();
  return std::move(*package);
}

Status AutomationLoop::trigger_cycle() {
  if (!started_)
    return Error::make("loop_not_started", "call start() first");
  return run_cycle("manual");
}

Status AutomationLoop::run_cycle(const std::string& cause) {
  if (pending_.has_value())
    return Error::make("cycle_in_progress",
                       "a canary is already running");
  if (!reservoir_.has_value() ||
      reservoir_->n_rows() < config_.min_window_rows)
    return Error::make("window_too_small",
                       "reservoir too thin to retrain");
  const auto counts = reservoir_->class_counts();
  if (counts[0] == 0 || counts[1] == 0)
    return Error::make("window_single_class",
                       "reservoir lacks one class");

  auto& metrics = LoopMetrics::get();
  metrics.cycles_started.increment();
  const std::uint64_t cycle = next_cycle_++;
  const auto now = testbed_->network().events().now();
  (void)registry_->record(AuditKind::kDriftTrigger, handle_.version(), now,
                          cause);

  auto abort_cycle = [&](std::uint32_t version, const Error& error) {
    cycles_.push_back(CycleRecord{cycle, version, CycleOutcome::kAborted,
                                  error.code, 0.0, 0.0});
    metrics.cycles_aborted.increment();
    health_ = LoopHealth::kDegraded;
    metrics.health.set(static_cast<int>(health_));
    (void)registry_->record(AuditKind::kAborted, version,
                            testbed_->network().events().now(),
                            error.code + ": " + error.message);
    // Pace the next attempt like any completed cycle: persistent drift
    // re-arms the detector after fresh windows.
    drift_.rebase();
    enter_stage(LoopStage::kIdle);
  };

  auto built = build_package(*reservoir_);
  if (!built.ok()) {
    abort_cycle(0, built.error());
    return built.error();
  }

  const double candidate_acc =
      built.value().balanced_accuracy_on(*reservoir_);
  double incumbent_acc = 0.0;
  if (auto snapshot = handle_.acquire(); snapshot != nullptr)
    if (const RegistryEntry* incumbent = registry_->find(snapshot->version);
        incumbent != nullptr)
      incumbent_acc = incumbent->package.balanced_accuracy_on(*reservoir_);

  RegistryEntry entry;
  entry.version = registry_->next_version();
  entry.trained_at = testbed_->network().events().now();
  entry.candidate_accuracy = candidate_acc;
  entry.incumbent_accuracy = incumbent_acc;
  entry.package = built.value();
  if (auto s = with_registry_retry([&] {
        return registry_->publish(entry,
                                  "cycle " + std::to_string(cycle));
      });
      !s.ok()) {
    abort_cycle(0, s.error());
    return s;
  }

  enter_stage(LoopStage::kCanary);
  auto canary = testbed::CanaryDeployment::create(entry.package);
  if (!canary.ok()) {
    abort_cycle(entry.version, canary.error());
    return canary.error();
  }
  canary_ = std::move(canary).value();
  pending_.emplace(PendingCycle{cycle, entry.version,
                                std::move(built).value(), candidate_acc,
                                incumbent_acc, 0});
  testbed_->network().events().schedule_in(config_.canary_duration,
                                           [this] { finish_canary(); });
  return Status::success();
}

void AutomationLoop::finish_canary() {
  if (!pending_.has_value()) return;
  auto& metrics = LoopMetrics::get();

  auto verdict = canary_->evaluate(config_.gate);
  if (!verdict.ok() &&
      verdict.error().code == "canary_underobserved" &&
      pending_->extensions < config_.max_canary_extensions) {
    ++pending_->extensions;
    metrics.canary_extensions.increment();
    testbed_->network().events().schedule_in(config_.canary_duration,
                                             [this] { finish_canary(); });
    return;
  }

  // The fresh window scores candidate vs incumbent on traffic neither
  // trained on; it then joins the reservoir either way.
  auto fresh = testbed_->harvest_dataset();
  if (!verdict.ok()) {
    // Underobserved past the extension budget aborts (no evidence);
    // any quality code is a regression and rolls the candidate back.
    finish_cycle(verdict.error().code == "canary_underobserved"
                     ? CycleOutcome::kAborted
                     : CycleOutcome::kRolledBack,
                 verdict.error().code);
    absorb_window(std::move(fresh));
    return;
  }

  const double utilization = pending_->package.resources.utilization(
      config_.development.budget);
  if (utilization > config_.max_budget_utilization) {
    finish_cycle(CycleOutcome::kRolledBack, "budget_utilization");
    absorb_window(std::move(fresh));
    return;
  }

  const auto fresh_counts =
      fresh.n_rows() > 0 ? fresh.class_counts()
                         : std::vector<std::size_t>{0, 0};
  if (fresh.n_rows() >= config_.min_window_rows && fresh_counts[0] > 0 &&
      fresh_counts[1] > 0) {
    const double cand = pending_->package.balanced_accuracy_on(fresh);
    double inc = 0.0;
    if (auto snapshot = handle_.acquire(); snapshot != nullptr)
      if (const RegistryEntry* e = registry_->find(snapshot->version);
          e != nullptr)
        inc = e->package.balanced_accuracy_on(fresh);
    pending_->candidate_accuracy = cand;
    pending_->incumbent_accuracy = inc;
    if (cand < inc + config_.promote_margin) {
      finish_cycle(CycleOutcome::kRolledBack, "promote_margin");
      absorb_window(std::move(fresh));
      return;
    }
  }

  // Swap first, promote second: the registry must never claim a
  // promotion the dataplane did not take.
  auto incumbent = handle_.acquire();
  if (auto s = deploy_version(pending_->version, pending_->package);
      !s.ok()) {
    finish_cycle(CycleOutcome::kAborted, s.error().code);
    absorb_window(std::move(fresh));
    return;
  }
  if (auto s = with_registry_retry([&] {
        return registry_->promote(pending_->version,
                                  testbed_->network().events().now(),
                                  "cycle " +
                                      std::to_string(pending_->cycle));
      });
      !s.ok()) {
    // The promotion never reached disk: restore the incumbent so the
    // served model and the durable record agree.
    handle_.exchange(std::move(incumbent));
    LoopMetrics::get().model_version.set(
        static_cast<std::int64_t>(handle_.version()));
    finish_cycle(CycleOutcome::kAborted, s.error().code);
    absorb_window(std::move(fresh));
    return;
  }
  finish_cycle(CycleOutcome::kPromoted, {});
  absorb_window(std::move(fresh));
}

void AutomationLoop::absorb_window(ml::Dataset window) {
  if (window.n_rows() == 0) return;
  if (!reservoir_.has_value()) {
    reservoir_.emplace(std::move(window));
  } else {
    reservoir_->append(window);
  }
  if (reservoir_->n_rows() > config_.reservoir_rows)
    *reservoir_ = reservoir_->sample(config_.reservoir_rows, rng_);
}

void AutomationLoop::finish_cycle(CycleOutcome outcome,
                                  std::string error_code) {
  auto& metrics = LoopMetrics::get();
  const auto now = testbed_->network().events().now();
  cycles_.push_back(CycleRecord{pending_->cycle, pending_->version,
                                outcome, error_code,
                                pending_->candidate_accuracy,
                                pending_->incumbent_accuracy});
  switch (outcome) {
    case CycleOutcome::kPromoted:
      metrics.cycles_promoted.increment();
      health_ = LoopHealth::kHealthy;
      break;
    case CycleOutcome::kRolledBack:
      // A rollback is the guardrail working, not a degradation.
      metrics.cycles_rolled_back.increment();
      health_ = LoopHealth::kHealthy;
      (void)registry_->record(AuditKind::kRolledBack, pending_->version,
                              now, error_code);
      break;
    case CycleOutcome::kAborted:
      metrics.cycles_aborted.increment();
      health_ = LoopHealth::kDegraded;
      (void)registry_->record(AuditKind::kAborted, pending_->version, now,
                              error_code);
      break;
  }
  metrics.health.set(static_cast<int>(health_));
  canary_.reset();
  pending_.reset();
  drift_.rebase();
  enter_stage(LoopStage::kIdle);
}

}  // namespace campuslab::control
