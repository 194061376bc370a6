// Testbed — the campus network operated "as a lab" (§4).
//
// Wires the full dual-role pipeline into one harness: the simulated
// campus (traffic + attacks) feeds a one-shard capture engine at the
// border tap, consumed inline on the simulation thread; the flow meter
// populates the data store; the packet dataset collector accumulates
// deployable-model training data. Road-testing a model is then: run()
// to gather data, DevelopmentLoop to build the package,
// CanaryDeployment to score it passively, FastLoop + SafetyMonitor to
// enforce it — all against the same live network.
#pragma once

#include <memory>

#include <optional>

#include "campuslab/capture/flow.h"
#include "campuslab/capture/sharded_engine.h"
#include "campuslab/features/packet_dataset.h"
#include "campuslab/privacy/policy.h"
#include "campuslab/sim/simulator.h"
#include "campuslab/store/datastore.h"
#include "campuslab/store/packet_archive.h"
#include "campuslab/testbed/sensors.h"

namespace campuslab::testbed {

struct TestbedConfig {
  sim::ScenarioConfig scenario;
  features::PacketDatasetOptions collector;
  capture::FlowMeterConfig flow_meter;
  store::DataStoreConfig store;
  /// When set, raw packets are archived as rotating pcap segments in
  /// this (existing) directory, after the payload policy is applied at
  /// collection time — §5's "what form data is stored in" control.
  std::string archive_directory;
  privacy::PayloadPolicy archive_policy =
      privacy::PayloadPolicy::conservative();
  Duration archive_segment_span = Duration::minutes(10);
  std::uint64_t archive_hash_key = 0xA5C1;
  /// Complementary-sensor emulation (firewall / sshd / ids / dhcp log
  /// events into the store). On by default: §5 wants the store to hold
  /// more than packets.
  bool enable_sensors = true;
  SensorConfig sensors;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);

  /// Advance the campus by `d`, running the capture pipeline inline.
  void run(Duration d);

  sim::CampusSimulator& simulator() noexcept { return *simulator_; }
  sim::CampusNetwork& network() noexcept { return simulator_->network(); }
  store::DataStore& store() noexcept { return store_; }
  const capture::ShardedCaptureEngine& capture_engine() const noexcept {
    return engine_;
  }
  const capture::FlowMeter& flow_meter() const noexcept { return meter_; }
  features::PacketDatasetCollector& collector() noexcept {
    return collector_;
  }
  /// Present only when archive_directory was configured.
  std::optional<store::PacketArchive>& archive() noexcept {
    return archive_;
  }
  /// Present unless enable_sensors was false.
  const std::optional<SensorEmulator>& sensors() const noexcept {
    return sensors_;
  }

  /// Register an extra consumer of captured packets (e.g. a canary).
  void add_observer(const capture::ShardedCaptureEngine::Sink& sink) {
    engine_.add_sink_factory([&sink](std::size_t) { return sink; });
  }

  /// Flush in-flight flows into the store and return the collected
  /// packet dataset (leaves the collector collecting afresh).
  ml::Dataset harvest_dataset();

  /// Flush in-flight flows into the store without touching the
  /// collector (e.g. before ad-hoc store queries mid-run).
  void flush_flows() {
    engine_.drain();
    meter_.flush();
  }

 private:
  TestbedConfig config_;
  std::unique_ptr<sim::CampusSimulator> simulator_;
  capture::ShardedCaptureEngine engine_;
  capture::FlowMeter meter_;
  store::DataStore store_;
  features::PacketDatasetCollector collector_;
  std::optional<store::PacketArchive> archive_;
  std::optional<SensorEmulator> sensors_;
};

}  // namespace campuslab::testbed
