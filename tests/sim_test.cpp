// Tests for campuslab::sim — event queue and loop semantics, link
// queueing and tail-drop, topology/address-plan determinism, border
// accounting conservation, benign traffic realism, and attack scenario
// behaviour.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>

#include "campuslab/packet/view.h"
#include "campuslab/sim/simulator.h"

namespace campuslab::sim {
namespace {

using packet::PacketView;
using packet::TrafficLabel;

// ------------------------------------------------------------ EventQueue

TEST(EventQueue, RunsInTimestampOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(Timestamp::from_seconds(3.0), [&] { order.push_back(3); });
  q.schedule_at(Timestamp::from_seconds(1.0), [&] { order.push_back(1); });
  q.schedule_at(Timestamp::from_seconds(2.0), [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Timestamp::from_seconds(3.0));
}

TEST(EventQueue, FifoWithinSameTimestamp) {
  EventQueue q;
  std::vector<int> order;
  const auto t = Timestamp::from_seconds(1.0);
  for (int i = 0; i < 5; ++i)
    q.schedule_at(t, [&order, i] { order.push_back(i); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(Timestamp::from_seconds(1.0), [&] { ++fired; });
  q.schedule_at(Timestamp::from_seconds(2.0), [&] { ++fired; });
  q.schedule_at(Timestamp::from_seconds(2.5), [&] { ++fired; });
  const auto n = q.run_until(Timestamp::from_seconds(2.0));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), Timestamp::from_seconds(2.0));
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockPastDrainedQueue) {
  EventQueue q;
  q.run_until(Timestamp::from_seconds(9.0));
  EXPECT_EQ(q.now(), Timestamp::from_seconds(9.0));
}

TEST(EventQueue, PastEventsFireAtCurrentTime) {
  EventQueue q;
  q.schedule_at(Timestamp::from_seconds(5.0), [] {});
  q.run_all();
  Timestamp when;
  q.schedule_at(Timestamp::from_seconds(1.0), [&] { when = q.now(); });
  q.run_all();
  EXPECT_EQ(when, Timestamp::from_seconds(5.0));
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 10) q.schedule_in(Duration::millis(1), recur);
  };
  q.schedule_in(Duration::millis(1), recur);
  q.run_until(Timestamp::from_seconds(1.0));
  EXPECT_EQ(depth, 10);
}

// --------------------------------------------------------- EventQueue loop

static_assert(!std::is_copy_constructible_v<EventQueue>,
              "loop events hold the queue's address");

TEST(EventQueueLoop, RunsAtEachReturnedTimeAndStopsAtNullopt) {
  EventQueue q;
  std::vector<double> ran;
  q.loop(Timestamp::from_seconds(1.0), [&]() -> std::optional<Timestamp> {
    ran.push_back(q.now().to_seconds());
    if (ran.size() == 3) return std::nullopt;
    return q.now() + Duration::seconds(2);
  });
  EXPECT_EQ(q.run_all(), 3u);
  EXPECT_EQ(ran, (std::vector<double>{1.0, 3.0, 5.0}));
  EXPECT_TRUE(q.empty());
}

// The successor queues after the events the step scheduled at the same
// instant, in FIFO order: where a chain that re-schedules itself last
// puts it.
TEST(EventQueueLoop, SuccessorQueuesAfterTheStepsOwnEvents) {
  const auto t = Timestamp::from_seconds(1.0);
  const auto trace = [t](bool as_loop) {
    EventQueue q;
    std::vector<std::string> order;
    int round = 0;
    const auto body = [&] {
      const auto r = std::to_string(round);
      order.push_back("step" + r);
      q.schedule_at(t, [&order, r] { order.push_back("a" + r); });
      q.schedule_at(t, [&order, r] { order.push_back("b" + r); });
      return ++round < 3;
    };
    q.schedule_at(t, [&] { order.push_back("before"); });
    std::function<void()> chain = [&] {
      if (body()) q.schedule_at(t, chain);
    };
    if (as_loop) {
      q.loop(t, [&]() -> std::optional<Timestamp> {
        if (body()) return t;
        return std::nullopt;
      });
    } else {
      q.schedule_at(t, chain);
    }
    q.schedule_at(t, [&] { order.push_back("after"); });
    q.run_all();
    return order;
  };
  const std::vector<std::string> want{"before", "step0", "after", "a0",
                                      "b0",     "step1", "a1",    "b1",
                                      "step2",  "a2",    "b2"};
  EXPECT_EQ(trace(true), want);
  EXPECT_EQ(trace(false), want);
}

TEST(EventQueueLoop, AStepCanStartAnotherLoop) {
  struct World {
    EventQueue q;
    int parents = 0;
    int children = 0;
  } w;
  // Both steps capture so little that they sit inside their slots: each
  // child the parent starts mid-step grows the slot table, and the
  // parent reads its capture after that.
  w.q.loop(Timestamp{}, [&w]() -> std::optional<Timestamp> {
    w.q.loop(w.q.now(), [&w, left = 3]() mutable -> std::optional<Timestamp> {
      ++w.children;
      if (--left == 0) return std::nullopt;
      return w.q.now() + Duration::millis(10);
    });
    if (++w.parents == 40) return std::nullopt;
    return w.q.now() + Duration::millis(1);
  });
  w.q.run_all();
  EXPECT_EQ(w.parents, 40);
  EXPECT_EQ(w.children, 120);
}

TEST(EventQueueLoop, AnEndedLoopReleasesItsStateAtOnce) {
  EventQueue q;
  auto state = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = state;
  q.loop(Timestamp{},
         [&q, state = std::move(state)]() -> std::optional<Timestamp> {
           if (++*state == 3) return std::nullopt;
           return q.now() + Duration::millis(1);
         });
  q.schedule_at(Timestamp::from_seconds(1.0), [] {});
  q.run_until(Timestamp::from_seconds(0.001));
  EXPECT_FALSE(watch.expired());
  q.run_until(Timestamp::from_seconds(0.5));
  EXPECT_TRUE(watch.expired());  // while the queue still holds an event
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueLoop, DestroyingTheQueueReleasesLiveLoops) {
  std::weak_ptr<int> watch;
  {
    EventQueue q;
    auto state = std::make_shared<int>(0);
    watch = state;
    q.loop(Timestamp{}, [&q, state]() -> std::optional<Timestamp> {
      ++*state;
      return q.now() + Duration::millis(1);
    });
    q.run_until(Timestamp::from_seconds(0.01));
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

// ------------------------------------------------------------------ Link

TEST(Link, SerializationDelayMatchesRate) {
  // 1000 bytes at 8 Mbps = 1 ms serialization; +2 ms propagation.
  Link link(8e6, Duration::millis(2), 1'000'000);
  const auto d = link.transmit(1000, Timestamp::epoch());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->nanos(), Duration::millis(3).count_nanos());
}

TEST(Link, BackToBackFramesQueueBehindEachOther) {
  Link link(8e6, Duration{}, 1'000'000);
  const auto d1 = link.transmit(1000, Timestamp::epoch());
  const auto d2 = link.transmit(1000, Timestamp::epoch());
  ASSERT_TRUE(d1 && d2);
  EXPECT_EQ((*d2 - *d1).count_nanos(), Duration::millis(1).count_nanos());
}

TEST(Link, TailDropWhenQueueFull) {
  // Queue of 1500 bytes; the first frame goes straight to serialization,
  // the second waits (backlog 1000 <= 1500), the third arrives with a
  // 2000-byte waiting backlog and is tail-dropped.
  Link link(8e6, Duration{}, 1500);
  EXPECT_TRUE(link.transmit(1000, Timestamp::epoch()).has_value());
  EXPECT_TRUE(link.transmit(1000, Timestamp::epoch()).has_value());
  EXPECT_FALSE(link.transmit(1000, Timestamp::epoch()).has_value());
  EXPECT_EQ(link.stats().frames_dropped, 1u);
  EXPECT_EQ(link.stats().frames_forwarded, 2u);
  EXPECT_NEAR(link.stats().drop_rate(), 1.0 / 3.0, 1e-12);
}

TEST(Link, QueueDrainsOverTime) {
  Link link(8e6, Duration{}, 1500);
  (void)link.transmit(1000, Timestamp::epoch());
  (void)link.transmit(1000, Timestamp::epoch());
  // After 2ms both frames have serialized; the queue is empty again.
  const auto later = Timestamp::epoch() + Duration::millis(2);
  EXPECT_EQ(link.backlog_bytes(later), 0u);
  EXPECT_TRUE(link.transmit(1000, later).has_value());
}

TEST(Link, ExtraDelayShiftsDelivery) {
  Link link(8e9, Duration::millis(1), 1'000'000);
  const auto base = link.transmit(1000, Timestamp::epoch());
  link.set_extra_delay(Duration::millis(40));
  const auto slow = link.transmit(1000, *base);
  ASSERT_TRUE(base && slow);
  EXPECT_GT(*slow - *base, Duration::millis(40));
}

// -------------------------------------------------------------- Topology

TEST(Topology, DeterministicForSameConfig) {
  CampusConfig cfg;
  cfg.seed = 7;
  Topology a(cfg), b(cfg);
  ASSERT_EQ(a.hosts().size(), b.hosts().size());
  for (std::size_t i = 0; i < a.hosts().size(); ++i) {
    EXPECT_EQ(a.hosts()[i].endpoint.ip, b.hosts()[i].endpoint.ip);
    EXPECT_EQ(a.hosts()[i].endpoint.mac, b.hosts()[i].endpoint.mac);
  }
}

TEST(Topology, DistinctSeedsGetDistinctPrefixes) {
  CampusConfig a, b;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(Topology(a).campus_prefix(), Topology(b).campus_prefix());
}

TEST(Topology, AllHostsInsideCampusPrefix) {
  CampusConfig cfg;
  cfg.wired_clients = 50;
  cfg.wifi_clients = 80;
  Topology topo(cfg);
  EXPECT_EQ(topo.clients().size(), 130u);
  EXPECT_EQ(topo.servers().size(), 5u);
  for (const auto& h : topo.hosts())
    EXPECT_TRUE(topo.is_campus(h.endpoint.ip)) << h.endpoint.ip.to_string();
}

TEST(Topology, UniqueAddressesAndMacs) {
  CampusConfig cfg;
  Topology topo(cfg);
  std::set<std::uint32_t> ips;
  std::set<std::string> macs;
  for (const auto& h : topo.hosts()) {
    ips.insert(h.endpoint.ip.value());
    macs.insert(h.endpoint.mac.to_string());
  }
  EXPECT_EQ(ips.size(), topo.hosts().size());
  EXPECT_EQ(macs.size(), topo.hosts().size());
}

TEST(Topology, ExternalAddressesAreOutsideCampus) {
  CampusConfig cfg;
  Topology topo(cfg);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i)
    EXPECT_FALSE(topo.is_campus(Topology::random_external_address(rng)));
  for (std::uint32_t kind = 0; kind < 6; ++kind)
    for (std::uint32_t idx = 0; idx < 10; ++idx)
      EXPECT_FALSE(
          topo.is_campus(Topology::external_host(kind, idx, 80).ip));
}

TEST(Topology, ServerRolesResolved) {
  CampusConfig cfg;
  Topology topo(cfg);
  EXPECT_EQ(topo.web_server().role, HostRole::kWebServer);
  EXPECT_EQ(topo.dns_server().role, HostRole::kDnsServer);
  EXPECT_EQ(topo.mail_server().role, HostRole::kMailServer);
  EXPECT_EQ(topo.ssh_gateway().role, HostRole::kSshGateway);
  EXPECT_EQ(topo.storage_server().role, HostRole::kStorageServer);
}

// --------------------------------------------------------- CampusNetwork

packet::Packet make_inbound_udp(CampusNetwork& net,
                                packet::Ipv4Address dst_ip,
                                TrafficLabel label,
                                std::size_t payload = 100) {
  packet::Endpoint src{packet::MacAddress::from_id(1),
                       packet::Ipv4Address(8, 8, 8, 8), 53};
  packet::Endpoint dst{packet::MacAddress::from_id(2), dst_ip, 9999};
  return packet::PacketBuilder(net.events().now())
      .udp(src, dst)
      .payload_size(payload)
      .label(label)
      .build();
}

TEST(CampusNetwork, TapSeesBothDirections) {
  EventQueue q;
  CampusConfig cfg;
  CampusNetwork net(q, cfg);
  int in = 0, out = 0;
  net.set_tap([&](const packet::Packet&, Direction d) {
    (d == Direction::kInbound ? in : out)++;
  });
  const auto client_ip = net.topology().clients().front().endpoint.ip;
  net.inject(Direction::kInbound,
             make_inbound_udp(net, client_ip, TrafficLabel::kBenign));
  packet::Endpoint a{packet::MacAddress::from_id(3), client_ip, 1234};
  packet::Endpoint b{packet::MacAddress::from_id(4),
                     packet::Ipv4Address(1, 1, 1, 1), 80};
  net.inject(Direction::kOutbound,
             packet::PacketBuilder(q.now()).udp(a, b).build());
  q.run_all();
  EXPECT_EQ(in, 1);
  EXPECT_EQ(out, 1);
}

TEST(CampusNetwork, IngressFilterDropsAndCounts) {
  EventQueue q;
  CampusConfig cfg;
  CampusNetwork net(q, cfg);
  net.set_ingress_filter([](const packet::Packet& p) {
    return p.label == TrafficLabel::kDnsAmplification;
  });
  const auto client_ip = net.topology().clients().front().endpoint.ip;
  net.inject(Direction::kInbound,
             make_inbound_udp(net, client_ip,
                              TrafficLabel::kDnsAmplification));
  net.inject(Direction::kInbound,
             make_inbound_udp(net, client_ip, TrafficLabel::kBenign));
  q.run_all();
  const auto& acc = net.accounting();
  EXPECT_EQ(acc.filtered.attack_frames(), 1u);
  EXPECT_EQ(acc.filtered.benign_frames(), 0u);
  EXPECT_EQ(acc.delivered.benign_frames(), 1u);
  EXPECT_EQ(acc.delivered.attack_frames(), 0u);
  // The tap still saw both (capture is pre-filter).
  EXPECT_EQ(acc.tapped_in.total_frames(), 2u);
}

TEST(CampusNetwork, AccountingConservation) {
  EventQueue q;
  CampusConfig cfg;
  cfg.upstream_gbps = 0.001;  // 1 Mbps: force upstream drops
  cfg.upstream_queue_bytes = 5000;
  CampusNetwork net(q, cfg);
  const auto client_ip = net.topology().clients().front().endpoint.ip;
  for (int i = 0; i < 200; ++i) {
    net.inject(Direction::kInbound,
               make_inbound_udp(net, client_ip, TrafficLabel::kBenign,
                                1000));
  }
  q.run_all();
  const auto& acc = net.accounting();
  EXPECT_GT(acc.lost_upstream.total_frames(), 0u);
  EXPECT_EQ(acc.offered_in.total_frames(),
            acc.lost_upstream.total_frames() +
                acc.filtered.total_frames() +
                acc.lost_access.total_frames() +
                acc.delivered.total_frames());
}

TEST(CampusNetwork, ServerTrafficSkipsAccessLink) {
  EventQueue q;
  CampusConfig cfg;
  CampusNetwork net(q, cfg);
  const auto server_ip = net.topology().web_server().endpoint.ip;
  net.inject(Direction::kInbound,
             make_inbound_udp(net, server_ip, TrafficLabel::kBenign));
  q.run_all();
  EXPECT_EQ(net.client_access().stats().frames_forwarded, 0u);
  EXPECT_EQ(net.accounting().delivered.total_frames(), 1u);
}

TEST(CampusNetwork, DiurnalFactorBoundedAndPeaksAfternoon) {
  EventQueue q;
  CampusConfig cfg;
  cfg.day_phase_hours = 0.0;  // sim t=0 is midnight
  CampusNetwork net(q, cfg);
  double peak = 0, trough = 2;
  double peak_hour = -1;
  for (int h = 0; h < 24; ++h) {
    const double f = net.diurnal_factor(
        Timestamp::from_seconds(h * 3600.0));
    EXPECT_GT(f, 0.15);
    EXPECT_LE(f, 1.0);
    if (f > peak) {
      peak = f;
      peak_hour = h;
    }
    trough = std::min(trough, f);
  }
  EXPECT_EQ(peak_hour, 14);
  EXPECT_LT(trough, 0.3);
  EXPECT_GT(peak, 0.9);
}

TEST(CampusNetwork, DiurnalDisabledIsFlat) {
  EventQueue q;
  CampusConfig cfg;
  cfg.diurnal = false;
  CampusNetwork net(q, cfg);
  EXPECT_EQ(net.diurnal_factor(Timestamp::from_seconds(3 * 3600.0)), 1.0);
}

// --------------------------------------------------------------- Traffic

class TrafficFixture : public ::testing::Test {
 protected:
  void run_scenario(ScenarioConfig scenario, Duration for_time) {
    simulator_ = std::make_unique<CampusSimulator>(scenario);
    simulator_->network().set_tap(
        [this](const packet::Packet& p, Direction d) {
          tapped_.push_back(p);
          directions_.push_back(d);
        });
    simulator_->run_for(for_time);
  }

  std::unique_ptr<CampusSimulator> simulator_;
  std::vector<packet::Packet> tapped_;
  std::vector<Direction> directions_;
};

TEST_F(TrafficFixture, BenignMixProducesParseableLabeledTraffic) {
  ScenarioConfig scenario;
  scenario.campus.seed = 11;
  scenario.campus.diurnal = false;
  run_scenario(scenario, Duration::seconds(20));

  ASSERT_GT(tapped_.size(), 500u);
  std::size_t dns_seen = 0, tcp_seen = 0;
  for (std::size_t i = 0; i < tapped_.size(); ++i) {
    const auto& p = tapped_[i];
    EXPECT_EQ(p.label, TrafficLabel::kBenign);
    PacketView v(p);
    ASSERT_TRUE(v.valid());
    ASSERT_TRUE(v.is_ipv4());
    const auto t = v.five_tuple();
    ASSERT_TRUE(t.has_value());
    // Direction consistency: inbound packets target campus space,
    // outbound packets originate there.
    const auto& topo = simulator_->network().topology();
    if (directions_[i] == Direction::kInbound) {
      EXPECT_TRUE(topo.is_campus(t->dst));
      EXPECT_FALSE(topo.is_campus(t->src));
    } else {
      EXPECT_TRUE(topo.is_campus(t->src));
      EXPECT_FALSE(topo.is_campus(t->dst));
    }
    if (v.is_dns()) ++dns_seen;
    if (v.is_tcp()) ++tcp_seen;
  }
  EXPECT_GT(dns_seen, 20u);
  EXPECT_GT(tcp_seen, 200u);
}

TEST_F(TrafficFixture, PerAppStatsTrackEmission) {
  ScenarioConfig scenario;
  scenario.campus.seed = 14;
  scenario.campus.diurnal = false;
  run_scenario(scenario, Duration::seconds(30));
  auto& traffic = simulator_->traffic();
  // Every default-rate app produced sessions and packets.
  for (const char* app : {"web", "web_in", "dns", "dns_in", "mail"}) {
    const auto& stats = traffic.stats(app);
    EXPECT_GT(stats.sessions, 0u) << app;
    EXPECT_GT(stats.packets, 0u) << app;
    EXPECT_GT(stats.bytes, stats.packets * 50) << app;
  }
  // DNS sessions are light (couple of packets); web is heavier.
  const auto& dns = traffic.stats("dns");
  const auto& web = traffic.stats("web");
  EXPECT_LT(dns.packets / std::max<std::uint64_t>(dns.sessions, 1),
            web.packets / std::max<std::uint64_t>(web.sessions, 1));
  // Totals add up across apps.
  std::uint64_t total = 0;
  for (const char* app : {"web", "web_in", "video", "dns", "dns_in",
                          "ssh", "mail", "bulk"})
    total += traffic.stats(app).packets;
  EXPECT_EQ(total, traffic.total_packets());
}

TEST_F(TrafficFixture, StopHaltsNewSessions) {
  ScenarioConfig scenario;
  scenario.campus.seed = 15;
  scenario.campus.diurnal = false;
  simulator_ = std::make_unique<CampusSimulator>(scenario);
  simulator_->run_for(Duration::seconds(5));
  simulator_->traffic().stop();
  const auto sessions_at_stop = [&] {
    std::uint64_t s = 0;
    for (const char* app : {"web", "web_in", "video", "dns", "dns_in",
                            "ssh", "mail", "bulk"})
      s += simulator_->traffic().stats(app).sessions;
    return s;
  }();
  simulator_->run_for(Duration::seconds(10));
  std::uint64_t sessions_later = 0;
  for (const char* app : {"web", "web_in", "video", "dns", "dns_in",
                          "ssh", "mail", "bulk"})
    sessions_later += simulator_->traffic().stats(app).sessions;
  EXPECT_EQ(sessions_later, sessions_at_stop);
}

TEST_F(TrafficFixture, DeterministicAcrossRuns) {
  ScenarioConfig scenario;
  scenario.campus.seed = 99;
  run_scenario(scenario, Duration::seconds(5));
  const auto first_count = tapped_.size();
  const auto first_bytes = [&] {
    std::size_t b = 0;
    for (const auto& p : tapped_) b += p.size();
    return b;
  }();

  tapped_.clear();
  directions_.clear();
  run_scenario(scenario, Duration::seconds(5));
  std::size_t second_bytes = 0;
  for (const auto& p : tapped_) second_bytes += p.size();
  EXPECT_EQ(tapped_.size(), first_count);
  EXPECT_EQ(second_bytes, first_bytes);
}

TEST_F(TrafficFixture, LoadScaleIncreasesTraffic) {
  ScenarioConfig light, heavy;
  light.campus.seed = heavy.campus.seed = 3;
  light.campus.diurnal = heavy.campus.diurnal = false;
  light.campus.load_scale = 0.3;
  heavy.campus.load_scale = 2.0;
  run_scenario(light, Duration::seconds(10));
  const auto light_count = tapped_.size();
  tapped_.clear();
  directions_.clear();
  run_scenario(heavy, Duration::seconds(10));
  EXPECT_GT(tapped_.size(), light_count * 2);
}

// ---------------------------------------------------------------- Attacks

TEST_F(TrafficFixture, DnsAmplificationShape) {
  ScenarioConfig scenario;
  scenario.campus.seed = 5;
  scenario.campus.diurnal = false;
  scenario.scenarios.push_back(
      Scenario::attack(BehaviorKind::kDnsAmplification)
          .with(DnsAmplificationShape{.response_bytes = 2500,
                                      .reflectors = 50})
          .rate(2000)
          .starting_at(Timestamp::from_seconds(2))
          .lasting(Duration::seconds(6)));
  run_scenario(scenario, Duration::seconds(10));

  std::set<std::uint32_t> reflector_ips;
  std::size_t attack_packets = 0;
  double payload_sum = 0;
  for (const auto& p : tapped_) {
    if (p.label != TrafficLabel::kDnsAmplification) continue;
    ++attack_packets;
    PacketView v(p);
    ASSERT_TRUE(v.valid());
    ASSERT_TRUE(v.is_udp());
    EXPECT_EQ(v.udp().src_port, 53);  // reflected from resolvers
    EXPECT_GT(v.payload().size(), 1000u);  // sizes jitter ~0.55-1.45x
    payload_sum += static_cast<double>(v.payload().size());
    const auto t = *v.five_tuple();
    reflector_ips.insert(t.src.value());
    // All aimed at the single victim.
    EXPECT_EQ(t.dst,
              simulator_->network().topology().clients().front().endpoint.ip);
    // Payload is genuine DNS: parseable, response bit set, fat answers.
    const auto dns = v.dns();
    ASSERT_TRUE(dns.ok());
    EXPECT_TRUE(dns.value().is_response);
    EXPECT_GT(dns.value().answer_bytes(), 800u);
  }
  // Mean near the configured response size despite jitter.
  EXPECT_NEAR(payload_sum / static_cast<double>(attack_packets), 2500.0,
              500.0);
  // ~2000 pps for 6s, minus upstream losses.
  EXPECT_GT(attack_packets, 8000u);
  EXPECT_GT(reflector_ips.size(), 30u);
}

TEST_F(TrafficFixture, SynFloodShape) {
  ScenarioConfig scenario;
  scenario.campus.seed = 6;
  scenario.scenarios.push_back(Scenario::attack(BehaviorKind::kSynFlood)
                                   .rate(1500)
                                   .starting_at(Timestamp::from_seconds(1))
                                   .lasting(Duration::seconds(4)));
  run_scenario(scenario, Duration::seconds(6));

  std::set<std::uint32_t> sources;
  std::size_t syn_count = 0;
  for (const auto& p : tapped_) {
    if (p.label != TrafficLabel::kSynFlood) continue;
    PacketView v(p);
    ASSERT_TRUE(v.valid());
    ASSERT_TRUE(v.is_tcp());
    EXPECT_TRUE(v.tcp().syn());
    EXPECT_FALSE(v.tcp().ack_flag());
    EXPECT_EQ(v.five_tuple()->dst_port, 443);
    sources.insert(v.five_tuple()->src.value());
    ++syn_count;
  }
  EXPECT_GT(syn_count, 4000u);
  // Spoofed sources: nearly every packet from a distinct address.
  EXPECT_GT(sources.size(), syn_count * 9 / 10);
}

TEST_F(TrafficFixture, PortScanTouchesManyHostsAndPorts) {
  ScenarioConfig scenario;
  scenario.campus.seed = 8;
  scenario.scenarios.push_back(Scenario::attack(BehaviorKind::kPortScan)
                                   .rate(400)
                                   .starting_at(Timestamp::from_seconds(0))
                                   .lasting(Duration::seconds(10)));
  run_scenario(scenario, Duration::seconds(10));

  std::set<std::uint32_t> scanned_hosts;
  std::set<std::uint16_t> scanned_ports;
  std::set<std::uint32_t> scanner_ips;
  for (const auto& p : tapped_) {
    if (p.label != TrafficLabel::kPortScan) continue;
    PacketView v(p);
    const auto t = *v.five_tuple();
    scanned_hosts.insert(t.dst.value());
    scanned_ports.insert(t.dst_port);
    scanner_ips.insert(t.src.value());
  }
  EXPECT_EQ(scanner_ips.size(), 1u);  // one scanner
  EXPECT_GT(scanned_hosts.size(), 100u);
  EXPECT_GE(scanned_ports.size(), 10u);
}

TEST_F(TrafficFixture, SshBruteForceHammersGateway) {
  ScenarioConfig scenario;
  scenario.campus.seed = 9;
  scenario.scenarios.push_back(
      Scenario::attack(BehaviorKind::kSshBruteForce)
          .rate(10)
          .starting_at(Timestamp::from_seconds(0))
          .lasting(Duration::seconds(10)));
  run_scenario(scenario, Duration::seconds(10));

  std::size_t attempts = 0;
  for (const auto& p : tapped_) {
    if (p.label != TrafficLabel::kSshBruteForce) continue;
    PacketView v(p);
    const auto t = *v.five_tuple();
    EXPECT_EQ(t.dst_port, 22);
    EXPECT_EQ(t.dst,
              simulator_->network().topology().ssh_gateway().endpoint.ip);
    if (v.is_tcp() && v.tcp().syn() && !v.tcp().ack_flag()) ++attempts;
  }
  EXPECT_GT(attempts, 50u);
}

TEST_F(TrafficFixture, AttackCongestionCausesBenignAccessLoss) {
  // A heavy amplification flood exceeds the 2 Gbps client access link;
  // benign packets to client subnets get caught in the overflow — the
  // collateral damage the mitigation loop exists to remove.
  ScenarioConfig scenario;
  scenario.campus.seed = 12;
  scenario.campus.diurnal = false;
  scenario.scenarios.push_back(
      Scenario::attack(BehaviorKind::kDnsAmplification)
          .with(DnsAmplificationShape{.response_bytes = 2800})
          .rate(120'000)
          .starting_at(Timestamp::from_seconds(1))
          .lasting(Duration::seconds(3)));
  // ~400k attack packets: count at the tap instead of storing them.
  CampusSimulator simulator(scenario);
  std::uint64_t tapped = 0;
  simulator.network().set_tap(
      [&](const packet::Packet&, Direction) { ++tapped; });
  simulator.run_for(Duration::seconds(5));

  EXPECT_GT(tapped, 100'000u);
  const auto& acc = simulator.network().accounting();
  EXPECT_GT(acc.lost_access.attack_frames(), 0u);
  EXPECT_GT(acc.lost_access.benign_frames(), 0u);
}

}  // namespace
}  // namespace campuslab::sim
