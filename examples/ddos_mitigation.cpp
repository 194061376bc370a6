// DDoS mitigation — the paper's running example (§2) through the full
// Figure-2 road to deployment:
//
//   1. operate the campus as a data source while a DNS-amplification
//      attack is in progress; collect labelled per-packet training data
//   2. SLOW LOOP: train the black-box teacher offline, extract the
//      deployable tree (XAI), compile it for the switch, and print the
//      operator-facing trust report + P4 excerpt
//   3. canary: score the model on mirrored traffic of a *new* incident
//   4. promote: enforce "drop attack traffic on ingress if confidence
//      >= 90%" under a safety monitor; print the road-test report
//
// Run:  ./ddos_mitigation
#include <cstdio>

#include "campuslab/control/development_loop.h"
#include "campuslab/control/fast_loop.h"
#include "campuslab/xai/collection_spec.h"
#include "campuslab/testbed/canary.h"
#include "campuslab/testbed/report.h"
#include "campuslab/testbed/safety.h"
#include "campuslab/testbed/testbed.h"

using namespace campuslab;

namespace {

testbed::TestbedConfig incident(std::uint64_t seed, double pps,
                                double start_s, double secs) {
  testbed::TestbedConfig cfg;
  cfg.scenario.campus.seed = seed;
  cfg.scenario.campus.diurnal = false;
  cfg.scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .with(sim::DnsAmplificationShape{.response_bytes = 2800})
          .rate(pps)
          .starting_at(Timestamp::from_seconds(start_s))
          .lasting(Duration::from_seconds(secs)));
  cfg.collector.labeling.binary_target =
      packet::TrafficLabel::kDnsAmplification;
  cfg.collector.attack_sample_rate = 0.25;
  cfg.collector.seed = seed + 7;
  return cfg;
}

}  // namespace

int main() {
  // ---- 1. Data collection during a live incident. --------------------
  std::puts("[1/4] Collecting labelled training data on the campus...");
  testbed::Testbed training_bed(incident(1001, 2000, 10, 40));
  training_bed.run(Duration::seconds(60));
  const auto dataset = training_bed.harvest_dataset();
  const auto counts = dataset.class_counts();
  std::printf("      %zu packet samples (%zu benign-ish, %zu attack)\n",
              dataset.n_rows(), counts[0], counts[1]);

  // ---- 2. Slow development loop. -------------------------------------
  std::puts("\n[2/4] Development loop: train -> extract -> compile...");
  control::DevelopmentConfig dev;
  dev.task = control::AutomationTask::dns_amplification_drop();
  dev.teacher.n_trees = 40;
  dev.teacher.seed = 11;
  dev.extraction.student_max_depth = 5;
  dev.extraction.seed = 12;
  auto package_result = control::DevelopmentLoop(dev).run(dataset);
  if (!package_result.ok()) {
    std::printf("development loop failed: %s\n",
                package_result.error().message.c_str());
    return 1;
  }
  auto& package = package_result.value();
  std::printf(
      "      timings: train %.1f ms, extract %.1f ms, compile %.2f ms\n",
      package.timings.train_us / 1e3, package.timings.extract_us / 1e3,
      package.timings.compile_us / 1e3);
  std::printf("      strategy %s, %s\n", package.strategy.c_str(),
              package.resources.to_string().c_str());
  std::puts("\n--- Operator trust report -----------------------------");
  std::fputs(package.trust.to_string().c_str(), stdout);
  std::puts("--- P4 program (first lines) ---------------------------");
  const auto p4_head = package.p4_source.substr(
      0, package.p4_source.find("control TreeLevel1"));
  std::fputs(p4_head.c_str(), stdout);
  std::puts("... (full program in package.p4_source)");

  // §5: the handoff artifact for a large-network deployment — exactly
  // which telemetry the model needs, nothing more.
  std::vector<bool> reg_mask(features::kPacketFeatureCount, false);
  for (std::size_t f = 0; f < reg_mask.size(); ++f)
    reg_mask[f] = features::is_register_feature(
        static_cast<features::PacketFeature>(f));
  std::puts("");
  std::fputs(
      xai::derive_collection_spec(package.student, reg_mask)
          .to_string()
          .c_str(),
      stdout);

  // ---- 3. Canary on a fresh incident. --------------------------------
  std::puts("\n[3/4] Canary: mirror-only scoring on a new incident...");
  testbed::Testbed canary_bed(incident(2002, 2500, 5, 20));
  auto canary = testbed::CanaryDeployment::create(package);
  if (!canary.ok()) return 1;
  canary.value()->attach(canary_bed);
  canary_bed.run(Duration::seconds(30));
  const auto& cs = canary.value()->stats();
  std::printf(
      "      would-drop precision %.3f, block rate %.3f, benign loss "
      "%.4f over %llu packets\n",
      cs.would_drop_precision(), cs.would_block_rate(),
      cs.would_benign_loss(), (unsigned long long)cs.observed);
  testbed::CanaryDeployment::Gate gate;
  gate.min_precision = 0.95;
  gate.min_block_rate = 0.85;
  if (!canary.value()->evaluate(gate).ok()) {
    std::puts("      canary says NOT ready; stopping before enforcement");
    return 1;
  }
  std::puts("      canary PASSED -> promoting to enforcement");

  // ---- 4. Enforcement with the safety monitor. -----------------------
  std::puts("\n[4/4] Enforcing at ingress (confidence >= 90%)...");
  testbed::Testbed enforce_bed(incident(3003, 3000, 5, 25));
  auto loop = control::FastLoop::deploy(package);
  if (!loop.ok()) return 1;
  testbed::SafetyMonitor safety(*loop.value(), testbed::SafetyConfig{});
  safety.install(enforce_bed.network());
  enforce_bed.run(Duration::seconds(40));

  const auto report = testbed::make_road_test_report(
      package, *canary.value(), *loop.value(), safety,
      enforce_bed.network());
  std::puts("");
  std::fputs(report.to_string().c_str(), stdout);

  const auto& acc = enforce_bed.network().accounting();
  std::printf(
      "victim-side outcome: %llu attack frames delivered (of %llu that "
      "reached the border)\n",
      (unsigned long long)acc.delivered.attack_frames(),
      (unsigned long long)acc.tapped_in.attack_frames());
  return 0;
}
