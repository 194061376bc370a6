// Quickstart — the campus network as a data source (paper §3).
//
// Simulates a slice of a campus day, captures every border packet
// losslessly, meters flows into the data store, and then asks the
// store the kinds of questions a researcher or operator asks:
// what is in here, who talked to whom, what did the attack look like,
// and what does the privacy gate let each role see.
//
// Run:  ./quickstart
#include <cstdio>

#include "campuslab/capture/sharded_engine.h"
#include "campuslab/obs/registry.h"
#include "campuslab/obs/stage_timer.h"
#include "campuslab/privacy/gate.h"
#include "campuslab/store/shard.h"
#include "campuslab/store/sharded_ingest.h"
#include "campuslab/store/timeline.h"
#include "campuslab/testbed/testbed.h"

using namespace campuslab;

int main() {
  // --- 1. A campus with one injected DNS-amplification incident. -----
  testbed::TestbedConfig config;
  config.scenario.campus.seed = 42;
  config.scenario.campus.upstream_gbps = 10.0;
  config.scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .rate(2000)
          .starting_at(Timestamp::from_seconds(60))
          .lasting(Duration::seconds(30)));

  testbed::Testbed bed(config);
  std::puts("Simulating 3 minutes of campus traffic (incl. one attack)...");
  bed.run(Duration::minutes(3));
  bed.simulator().network().set_tap(nullptr);  // stop capturing
  // Flush in-flight flows into the store.
  bed.flush_flows();

  // --- 2. Capture & store health. ------------------------------------
  const auto& cap = bed.capture_engine().stats();
  std::printf("capture: offered=%llu dropped=%llu (loss %.4f%%)\n",
              (unsigned long long)cap.offered,
              (unsigned long long)cap.dropped, 100.0 * cap.loss_rate());

  const auto catalog = bed.store().catalog();
  std::printf(
      "store:   %llu flows, %llu packets, %.1f MB, %zu segments, "
      "span %.0fs..%.0fs\n",
      (unsigned long long)catalog.total_flows,
      (unsigned long long)catalog.total_packets,
      catalog.total_bytes / 1e6, catalog.segments,
      catalog.earliest.to_seconds(), catalog.latest.to_seconds());
  for (std::size_t i = 0; i < packet::kTrafficLabelCount; ++i) {
    if (catalog.flows_per_label[i] == 0) continue;
    std::printf("         %-18s %llu flows\n",
                std::string(to_string(static_cast<packet::TrafficLabel>(i)))
                    .c_str(),
                (unsigned long long)catalog.flows_per_label[i]);
  }

  // --- 3. Flexible search (the §5 "fast and flexible search"). -------
  const auto victim = bed.network().topology().clients().front().endpoint.ip;
  store::FlowQuery attack_query;
  attack_query.about_host(victim)
      .with_label(packet::TrafficLabel::kDnsAmplification)
      .top(5);
  const auto hits = bed.store().query(attack_query);
  std::printf("\nTop flows of the incident against %s:\n",
              victim.to_string().c_str());
  for (const auto& stored : hits) {
    std::printf("  %s  %llu pkts, %.2f MB, %.1fs\n",
                stored.flow.tuple.to_string().c_str(),
                (unsigned long long)stored.flow.packets,
                stored.flow.bytes / 1e6,
                stored.flow.duration().to_seconds());
  }

  store::FlowQuery dns_query;
  dns_query.dns_only = true;
  std::printf("DNS flows in store: %zu\n",
              bed.store().query(dns_query).size());

  const auto talkers =
      bed.store().aggregate(store::FlowQuery{}, store::GroupBy::kHost,
                            /*top_k=*/3);
  std::puts("Top talkers (bytes, both directions):");
  for (const auto& row : talkers.rows) {
    std::printf("  %-15s %6llu flows  %.2f MB\n",
                row.host().to_string().c_str(),
                (unsigned long long)row.flows, row.bytes / 1e6);
  }

  // --- 4. Role-arbitrated access through the privacy gate. -----------
  privacy::PrivacyGate gate(bed.store(),
                            privacy::AccessPolicy::campus_default(),
                            /*anonymization_key=*/0xCA3B5);
  const auto now = bed.simulator().now();

  auto operator_view = gate.query(store::FlowQuery{}.top(1),
                                  privacy::Role::kOperator, "noc", now);
  auto researcher_view = gate.query(store::FlowQuery{}.top(1),
                                    privacy::Role::kResearcher, "phd",
                                    now);
  auto external_view = gate.query(store::FlowQuery{},
                                  privacy::Role::kExternal, "3rdparty",
                                  now);
  std::puts("\nPrivacy gate:");
  if (operator_view.ok() && !operator_view.value().empty())
    std::printf("  operator sees   %s\n",
                operator_view.value()[0].flow.tuple.to_string().c_str());
  if (researcher_view.ok() && !researcher_view.value().empty())
    std::printf("  researcher sees %s  (prefix-preserving anonymized)\n",
                researcher_view.value()[0].flow.tuple.to_string().c_str());
  std::printf("  external party: %s\n",
              external_view.ok() ? "GRANTED (bug!)"
                                 : external_view.error().message.c_str());
  std::printf("  audit trail: %zu entries\n", gate.audit_log().size());

  // --- 5. Cross-source incident timeline (flows + sensor logs). ------
  std::puts("\nIncident timeline for the victim (first 8 entries):");
  store::TimelineOptions opt;
  opt.max_entries = 8;
  opt.min_benign_flow_bytes = 100'000;  // keep it readable
  const auto timeline = store::incident_timeline(
      bed.store(), victim, Timestamp::from_seconds(55),
      Timestamp::from_seconds(95), opt);
  std::fputs(store::to_string(timeline).c_str(), stdout);
  if (bed.sensors()) {
    std::printf("(sensor events so far: %llu firewall, %llu sshd, "
                "%llu ids, %llu dhcp)\n",
                (unsigned long long)bed.sensors()->stats().firewall_events,
                (unsigned long long)bed.sensors()->stats().auth_events,
                (unsigned long long)bed.sensors()->stats().ids_events,
                (unsigned long long)bed.sensors()->stats().dhcp_events);
  }

  // --- 6. The same capture, sharded across worker threads. -----------
  // At 10-20 Gbps one consumer thread is the bottleneck; the sharded
  // engine hash-spreads the tap across N rings, each with its own
  // worker and flow meter (the ingester's, which merges every shard's
  // flows into the store in one canonical order) — losslessness stays
  // measured per shard.
  std::puts("\nSharded capture (4 workers) over a fresh campus run:");
  constexpr std::size_t kShards = 4;
  capture::ShardedCaptureConfig shard_cfg;
  shard_cfg.shards = kShards;
  capture::ShardedCaptureEngine sharded(shard_cfg);
  store::ShardedFlowIngester ingester(kShards);
  sharded.add_sink_factory([&](std::size_t s) {
    return [&ingester, s](const capture::DecodedPacket& t) {
      ingester.meter(s).offer(t);  // the view decoded at the tap
    };
  });

  sim::ScenarioConfig rerun = config.scenario;
  sim::CampusSimulator replay(rerun);
  replay.network().set_tap(
      [&](const packet::Packet& p, sim::Direction d) {
        sharded.offer(p, d);  // ring-full would count as a shard drop
      });
  sharded.start();
  replay.run_for(Duration::minutes(3));
  sharded.stop();  // drains every ring, joins the workers
  ingester.flush();

  store::LocalShard sharded_store;
  const auto merged_flows = ingester.merge_into(sharded_store).value();
  const auto total = sharded.stats();
  std::printf("  merged:  offered=%llu consumed=%llu dropped=%llu -> "
              "%llu flows in store\n",
              (unsigned long long)total.offered,
              (unsigned long long)total.consumed,
              (unsigned long long)total.dropped,
              (unsigned long long)merged_flows);
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto shard = sharded.shard_stats(s);
    std::printf("  shard %zu: offered=%-8llu consumed=%-8llu dropped=%llu\n",
                s, (unsigned long long)shard.offered,
                (unsigned long long)shard.consumed,
                (unsigned long long)shard.dropped);
  }

  // --- 7. One snapshot of the whole pipeline (campuslab::obs). -------
  // Every stage above — tap decode, rings, flow meters, dataset and
  // store ingest, buffer pool — registered its counters, live gauges
  // and per-stage latency histograms in the global registry as a side
  // effect of running. An operator (or a scraper) exports them all
  // with one call; no per-component plumbing.
  std::puts("\nMetrics snapshot (obs::Registry::global):");
  const auto snapshot = obs::Registry::global().snapshot();
  std::fputs(snapshot.to_text().c_str(), stdout);
  const auto json = snapshot.to_json();
  std::printf("\nJSON export: %zu bytes, e.g. %.120s...\n", json.size(),
              json.c_str());
  return 0;
}
