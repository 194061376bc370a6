#include "campuslab/testbed/testbed.h"

namespace campuslab::testbed {

Testbed::Testbed(TestbedConfig config)
    : config_(config), engine_({.shards = 1}), meter_(config.flow_meter),
      store_(config.store), collector_(config.collector) {
  simulator_ = std::make_unique<sim::CampusSimulator>(config_.scenario);

  meter_.set_sink([this](const capture::FlowRecord& flow) {
    store_.ingest(flow);
  });
  add_observer([this](const capture::DecodedPacket& tagged) {
    // Parse-once: both consumers read the decode cached at the tap.
    meter_.offer(tagged);
    collector_.offer(tagged.pkt, tagged.view, tagged.dir);
  });
  if (config_.enable_sensors) {
    sensors_.emplace(config_.sensors, store_,
                     simulator_->network().topology());
    add_observer([this](const capture::DecodedPacket& tagged) {
      sensors_->observe(tagged);
    });
  }
  if (!config_.archive_directory.empty()) {
    store::PacketArchiveConfig acfg;
    acfg.directory = config_.archive_directory;
    acfg.segment_span = config_.archive_segment_span;
    auto archive = store::PacketArchive::open(acfg);
    if (archive.ok()) {
      archive_.emplace(std::move(archive).value());
      add_observer([this](const capture::DecodedPacket& tagged) {
        // Collection-side privacy: the payload policy decides what form
        // the raw bytes are stored in. The copy is a refcount bump;
        // redaction mutates it copy-on-write, so the shared buffer the
        // other sinks (and their cached view) read stays untouched.
        packet::Packet redacted = tagged.pkt;
        config_.archive_policy.apply(redacted, tagged.view,
                                     config_.archive_hash_key);
        (void)archive_->write(redacted);
      });
    }
  }
  simulator_->network().set_tap(
      [this](const packet::Packet& pkt, sim::Direction dir) {
        engine_.offer(pkt, dir);
        engine_.poll_shard(0, 64);  // inline: same-thread capture
      });
}

void Testbed::run(Duration d) {
  simulator_->run_for(d);
  engine_.drain();
}

ml::Dataset Testbed::harvest_dataset() {
  engine_.drain();
  meter_.flush();
  return collector_.take();
}

}  // namespace campuslab::testbed
