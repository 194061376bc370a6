// Scenario DSL suite: the ref-qualified builder, the composition
// algebra (then / alongside / triggered), intensity envelopes, strict
// victim-set resolution, per-frame label + scenario-id stamping,
// per-scenario delivery accounting, seed determinism, and the legacy
// pins — the six frame-stream hashes recorded from the retired
// per-attack classes, which the equivalent Scenario::attack(...) chains
// must reproduce byte-identically.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "campuslab/sim/simulator.h"

namespace campuslab::sim {
namespace {

using packet::TrafficLabel;

// ------------------------------------------------------------ builder

TEST(ScenarioBuilderTest, TemporaryChainMovesWithoutCopies) {
  const Scenario s =
      Scenario::attack(BehaviorKind::kSynFlood)
          .with(SynFloodShape{.target_port = 8443, .spoof_pool = 64})
          .intensity(IntensityEnvelope::ramp(100, 5000))
          .during(Timestamp::from_seconds(10), Timestamp::from_seconds(70))
          .against(victims().role(HostRole::kWebServer))
          .with_seed(7)
          .named("ramped flood");

  ASSERT_EQ(s.phases().size(), 1u);
  const auto& p = s.phases()[0];
  EXPECT_EQ(p.kind, BehaviorKind::kSynFlood);
  EXPECT_EQ(std::get<SynFloodShape>(p.shape).target_port, 8443);
  EXPECT_EQ(p.intensity.kind(), IntensityEnvelope::Kind::kRamp);
  EXPECT_DOUBLE_EQ(p.intensity.peak(), 5000.0);
  EXPECT_EQ(p.start, Timestamp::from_seconds(10));
  EXPECT_EQ(p.duration, Duration::seconds(60));
  ASSERT_TRUE(p.seed.has_value());
  EXPECT_EQ(*p.seed, 7u);
  EXPECT_EQ(p.name, "ramped flood");
}

TEST(ScenarioBuilderTest, LvalueChainingWorksToo) {
  ScenarioBuilder b(BehaviorKind::kPortScan);
  b.rate(250).starting_at(Timestamp::from_seconds(3));
  b.lasting(Duration::seconds(9));
  const Scenario s = b.build();
  ASSERT_EQ(s.phases().size(), 1u);
  EXPECT_EQ(s.phases()[0].start, Timestamp::from_seconds(3));
  EXPECT_EQ(s.phases()[0].duration, Duration::seconds(9));
  EXPECT_DOUBLE_EQ(s.phases()[0].intensity.peak(), 250.0);
}

TEST(ScenarioBuilderTest, UnsetFieldsFallBackToTheSpecDefaults) {
  for (const auto& spec : scenario_specs()) {
    const Scenario s = Scenario::attack(spec.kind);
    ASSERT_EQ(s.phases().size(), 1u) << spec.name;
    const auto& p = s.phases()[0];
    EXPECT_DOUBLE_EQ(p.intensity.peak(), spec.default_rate_pps)
        << spec.name;
    EXPECT_EQ(p.duration, spec.default_duration) << spec.name;
    EXPECT_EQ(p.name, std::string(spec.name));
    EXPECT_FALSE(p.seed.has_value()) << spec.name;
  }
}

// -------------------------------------------------------- composition

Scenario window(double start_s, double len_s) {
  return Scenario::attack(BehaviorKind::kSynFlood)
      .rate(100)
      .starting_at(Timestamp::from_seconds(start_s))
      .lasting(Duration::seconds(len_s));
}

TEST(ScenarioComposition, ThenStartsTheContinuationAtTheEnd) {
  const auto s = window(5, 10).then(window(2, 3));
  ASSERT_EQ(s.phases().size(), 2u);
  EXPECT_EQ(s.phases()[0].start, Timestamp::from_seconds(5));
  EXPECT_EQ(s.phases()[1].start, Timestamp::from_seconds(15));
  EXPECT_EQ(s.phases()[1].duration, Duration::seconds(3));
  EXPECT_EQ(s.end(), Timestamp::from_seconds(18));
}

TEST(ScenarioComposition, AlongsideKeepsBothTimelines) {
  const auto s = window(5, 10).alongside(window(2, 3));
  ASSERT_EQ(s.phases().size(), 2u);
  EXPECT_EQ(s.begin(), Timestamp::from_seconds(2));
  EXPECT_EQ(s.end(), Timestamp::from_seconds(15));
}

TEST(ScenarioComposition, TriggeredOffsetsFromTheBeginning) {
  const auto s =
      window(5, 40).triggered(window(0, 10), Duration::seconds(30));
  ASSERT_EQ(s.phases().size(), 2u);
  // Trigger fires 30 s after the scenario begins at t=5.
  EXPECT_EQ(s.phases()[1].start, Timestamp::from_seconds(35));
}

// ---------------------------------------------------------- intensity

TEST(IntensityEnvelopeTest, ValidationRejectsMalformedCurves) {
  EXPECT_TRUE(IntensityEnvelope::constant(100).validate().ok());
  const auto bad = IntensityEnvelope::constant(-5).validate();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, "scenario_bad_intensity");
  EXPECT_FALSE(IntensityEnvelope::square_wave(100, Duration::seconds(0))
                   .validate()
                   .ok());
}

TEST(IntensityEnvelopeTest, CurveShapesEvaluateAsDocumented) {
  const CampusConfig campus;
  const auto t0 = Timestamp::from_seconds(100);
  const auto win = Duration::seconds(10);

  const auto ramp = IntensityEnvelope::ramp(100, 300);
  EXPECT_NEAR(ramp.rate_at(t0, t0, win, campus), 100, 1e-6);
  EXPECT_NEAR(ramp.rate_at(t0 + Duration::seconds(5), t0, win, campus),
              200, 1e-6);
  EXPECT_DOUBLE_EQ(ramp.peak(), 300);

  const auto wave =
      IntensityEnvelope::square_wave(1000, Duration::seconds(2), 0.5);
  EXPECT_NEAR(wave.rate_at(t0 + Duration::millis(500), t0, win, campus),
              1000, 1e-6);
  EXPECT_NEAR(wave.rate_at(t0 + Duration::millis(1500), t0, win, campus),
              0, 1e-6);
  // The off half reports when the envelope turns back on.
  const auto next = wave.next_active(Duration::millis(1500));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, Duration::seconds(2));

  // Diurnal modulation never exceeds the declared peak, and applies
  // even though campus.diurnal defaults on/off independently.
  const auto day = IntensityEnvelope::diurnal(2000);
  for (int h = 0; h < 24; ++h) {
    const auto t = t0 + Duration::seconds(3600 * h);
    EXPECT_LE(day.rate_at(t, t0, Duration::seconds(86'400 * 2), campus),
              day.peak() + 1e-9);
  }
}

// ------------------------------------------------------- victim sets

TEST(VictimSelectorTest, ResolutionIsStrictAndDeterministic) {
  const Topology topo{CampusConfig{}};

  Rng r1(42), r2(42);
  const auto a = victims().role(HostRole::kWiredClient).pick(5);
  const auto h1 = a.resolve(topo, r1);
  const auto h2 = a.resolve(topo, r2);
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  ASSERT_EQ(h1.value().size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(h1.value()[i].id, h2.value()[i].id);

  // pick() beyond the set is an error, not a clamp.
  Rng r3(42);
  const auto too_many =
      victims().role(HostRole::kSshGateway).pick(1000).resolve(topo, r3);
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.error().code, "scenario_bad_victim");
}

TEST(VictimSelectorTest, ClientIndexOutOfRangeIsAnErrorNotAClamp) {
  ScenarioConfig cfg;
  cfg.campus.seed = 21;
  CampusSimulator sim(cfg);
  const auto armed = sim.add_scenario(
      Scenario::attack(BehaviorKind::kFlashCrowd)
          .against(victims().client_index(1'000'000))
          .rate(500)
          .starting_at(Timestamp::from_seconds(1))
          .lasting(Duration::seconds(4)));
  ASSERT_FALSE(armed.ok());
  EXPECT_EQ(armed.error().code, "scenario_bad_victim");
}

// Regression for the legacy flash-crowd client_index footgun: the old
// injector silently clamped an out-of-range index onto the last client;
// a scenario armed through ScenarioConfig::scenarios now surfaces a
// scenario_bad_victim error from the constructor path.
TEST(VictimSelectorTest, LegacyFlashCrowdFootgunSurfacesAsError) {
  ScenarioConfig cfg;
  cfg.campus.seed = 22;
  cfg.scenarios.push_back(
      Scenario::attack(BehaviorKind::kFlashCrowd)
          .with(FlashCrowdShape{.payload_bytes = 1200, .sources = 40})
          .rate(3000)
          .starting_at(Timestamp::from_seconds(1))
          .lasting(Duration::seconds(4))
          .against(victims().client_index(999'999)));
  CampusSimulator sim(cfg);
  ASSERT_EQ(sim.scenario_errors().size(), 1u);
  EXPECT_EQ(sim.scenario_errors()[0].code, "scenario_bad_victim");
  EXPECT_TRUE(sim.scenario_instances().empty());
}

// -------------------------------------------------------- error codes

TEST(ScenarioErrors, StableCodesForEveryRejection) {
  ScenarioConfig cfg;
  cfg.campus.seed = 23;
  CampusSimulator sim(cfg);

  const auto empty = sim.add_scenario(Scenario{});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().code, "scenario_empty");

  const auto no_window = sim.add_scenario(
      Scenario::attack(BehaviorKind::kSynFlood).lasting(
          Duration::seconds(0)));
  ASSERT_FALSE(no_window.ok());
  EXPECT_EQ(no_window.error().code, "scenario_empty_window");

  const auto bad_rate =
      sim.add_scenario(Scenario::attack(BehaviorKind::kSynFlood).rate(-10));
  ASSERT_FALSE(bad_rate.ok());
  EXPECT_EQ(bad_rate.error().code, "scenario_bad_intensity");

  const auto mismatch = sim.add_scenario(
      Scenario::attack(BehaviorKind::kSynFlood).with(
          DnsAmplificationShape{}));
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.error().code, "scenario_shape_mismatch");

  EXPECT_TRUE(sim.scenario_instances().empty());
}

// ------------------------------------------- labels and scenario ids

TEST(ScenarioLabels, EveryFrameCarriesItsProvenance) {
  ScenarioConfig cfg;
  cfg.campus.seed = 24;
  cfg.campus.diurnal = false;
  cfg.scenarios.push_back(
      Scenario::attack(BehaviorKind::kDnsAmplification)
          .with(DnsAmplificationShape{.response_bytes = 1500})
          .rate(600)
          .starting_at(Timestamp::from_seconds(1))
          .lasting(Duration::seconds(5)));
  cfg.scenarios.push_back(Scenario::attack(BehaviorKind::kFlashCrowd)
                              .rate(400)
                              .starting_at(Timestamp::from_seconds(2))
                              .lasting(Duration::seconds(4)));
  CampusSimulator sim(cfg);
  ASSERT_TRUE(sim.scenario_errors().empty());
  ASSERT_EQ(sim.scenario_instances().size(), 2u);

  std::map<std::uint32_t, TrafficLabel> id_label;
  for (const auto& inst : sim.scenario_instances())
    id_label[inst.id] = inst.label;

  std::map<std::uint32_t, std::uint64_t> frames_by_id;
  std::uint64_t mislabeled = 0;
  sim.network().set_tap([&](const packet::Packet& p, Direction) {
    if (p.label != TrafficLabel::kBenign && p.scenario_id == 0)
      ++mislabeled;  // attack frame with no provenance
    if (p.scenario_id != 0) {
      ++frames_by_id[p.scenario_id];
      const auto it = id_label.find(p.scenario_id);
      ASSERT_NE(it, id_label.end()) << "unknown scenario id";
      // Frames from an instance carry its label; its un-labeled
      // response frames stay benign but keep the id.
      if (p.label != it->second && p.label != TrafficLabel::kBenign)
        ++mislabeled;
    }
  });
  sim.run_for(Duration::seconds(8));

  EXPECT_EQ(mislabeled, 0u);
  for (const auto& inst : sim.scenario_instances())
    EXPECT_GT(frames_by_id[inst.id], 100u) << inst.phase;
  // The flash crowd is benign-but-attributed: dominated by kBenign
  // frames yet still accounted to its instance.
  const auto crowd_id = sim.scenario_instances()[1].id;
  EXPECT_EQ(id_label[crowd_id], TrafficLabel::kBenign);
}

TEST(ScenarioAccounting, PerScenarioCountersTrackFrameFates) {
  ScenarioConfig cfg;
  cfg.campus.seed = 25;
  cfg.campus.diurnal = false;
  cfg.scenarios.push_back(Scenario::attack(BehaviorKind::kSynFlood)
                              .rate(900)
                              .starting_at(Timestamp::from_seconds(1))
                              .lasting(Duration::seconds(4)));
  cfg.scenarios.push_back(Scenario::attack(BehaviorKind::kSshBruteForce)
                              .rate(12)
                              .starting_at(Timestamp::from_seconds(1))
                              .lasting(Duration::seconds(4)));
  CampusSimulator sim(cfg);
  ASSERT_TRUE(sim.scenario_errors().empty());
  sim.run_for(Duration::seconds(7));

  const auto& per = sim.network().scenario_accounting();
  ASSERT_EQ(per.size(), 2u);
  for (const auto& inst : sim.scenario_instances()) {
    const auto it = per.find(inst.id);
    ASSERT_NE(it, per.end()) << inst.phase;
    const auto& c = it->second;
    EXPECT_GT(c.offered, 0u) << inst.phase;
    EXPECT_GT(c.bytes_offered, 0u) << inst.phase;
    EXPECT_GT(c.tapped, 0u) << inst.phase;
    EXPECT_LE(c.delivered + c.filtered + c.lost, c.offered) << inst.phase;
    EXPECT_GT(c.delivered, 0u) << inst.phase;
  }
  // The flood dwarfs the brute force in both frames and bytes.
  const auto flood = per.at(sim.scenario_instances()[0].id);
  const auto brute = per.at(sim.scenario_instances()[1].id);
  EXPECT_GT(flood.offered, brute.offered);
}

// ------------------------------------------------------ determinism

struct StreamHash {
  std::uint64_t h = 1469598103934665603ULL;
  std::uint64_t frames = 0;

  void byte(std::uint8_t b) noexcept {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i)
      byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void frame(const packet::Packet& p, Direction d) {
    ++frames;
    u64(static_cast<std::uint64_t>(p.ts.nanos()));
    byte(static_cast<std::uint8_t>(d));
    byte(static_cast<std::uint8_t>(p.label));
    u64(p.size());
    for (const auto b : p.bytes()) byte(b);
  }
};

StreamHash run_hashed(const ScenarioConfig& cfg, double seconds) {
  CampusSimulator sim(cfg);
  EXPECT_TRUE(sim.scenario_errors().empty());
  StreamHash hash;
  sim.network().set_tap(
      [&hash](const packet::Packet& p, Direction d) { hash.frame(p, d); });
  sim.run_for(Duration::from_seconds(seconds));
  return hash;
}

ScenarioConfig composed_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.campus.seed = seed;
  cfg.campus.diurnal = false;
  cfg.campus.wired_clients = 30;
  cfg.campus.wifi_clients = 40;
  const Scenario outbreak =
      Scenario::attack(BehaviorKind::kWorm)
          .with(WormShape{.infect_probability = 0.5,
                          .incubation = Duration::seconds(1),
                          .initial_bots = 6})
          .rate(300)
          .starting_at(Timestamp::from_seconds(1))
          .lasting(Duration::seconds(12))
          .named("outbreak");
  const Scenario exfil =
      Scenario::attack(BehaviorKind::kExfiltration)
          .rate(4)
          .starting_at(Timestamp::from_seconds(0))
          .lasting(Duration::seconds(8))
          .named("exfil");
  const Scenario flood =
      Scenario::attack(BehaviorKind::kSynFlood)
          .intensity(IntensityEnvelope::square_wave(
              800, Duration::seconds(2), 0.5))
          .starting_at(Timestamp::from_seconds(2))
          .lasting(Duration::seconds(8));
  cfg.scenarios.push_back(
      outbreak.triggered(exfil, Duration::seconds(5)).alongside(flood));
  return cfg;
}

TEST(ScenarioDeterminism, SameSeedReproducesTheExactByteStream) {
  const auto a = run_hashed(composed_config(31), 14);
  const auto b = run_hashed(composed_config(31), 14);
  EXPECT_GT(a.frames, 1000u);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.h, b.h);

  const auto c = run_hashed(composed_config(32), 14);
  EXPECT_NE(a.h, c.h);
}

TEST(ScenarioDeterminism, ExplicitPhaseSeedOverridesTheDerivedOne) {
  auto base = composed_config(33);
  auto reseeded = composed_config(33);
  reseeded.scenarios.clear();
  reseeded.scenarios.push_back(Scenario::attack(BehaviorKind::kSynFlood)
                                   .rate(800)
                                   .starting_at(Timestamp::from_seconds(2))
                                   .lasting(Duration::seconds(8))
                                   .with_seed(777));
  base.scenarios.clear();
  base.scenarios.push_back(Scenario::attack(BehaviorKind::kSynFlood)
                               .rate(800)
                               .starting_at(Timestamp::from_seconds(2))
                               .lasting(Duration::seconds(8))
                               .with_seed(778));
  EXPECT_NE(run_hashed(base, 12).h, run_hashed(reseeded, 12).h);
}

// --------------------------------------------------------------- worm

TEST(WormBehavior, InfectionChainStaysOnTheReachableSurface) {
  ScenarioConfig cfg;
  cfg.campus.seed = 34;
  cfg.campus.diurnal = false;
  cfg.campus.wired_clients = 40;
  cfg.campus.wifi_clients = 40;
  // One patient-zero bot and a modest exploit rate: the outbreak has to
  // grow through campus-to-campus spread, not external saturation.
  cfg.scenarios.push_back(
      Scenario::attack(BehaviorKind::kWorm)
          .with(WormShape{.infect_probability = 0.3,
                          .incubation = Duration::millis(500),
                          .initial_bots = 1})
          .rate(300)
          .starting_at(Timestamp::from_seconds(1))
          .lasting(Duration::seconds(15)));
  CampusSimulator sim(cfg);
  ASSERT_TRUE(sim.scenario_errors().empty());
  sim.run_for(Duration::seconds(18));

  // The susceptible surface the selector promises: clients + storage.
  std::set<std::uint32_t> surface;
  for (const auto& h : sim.network().topology().clients())
    surface.insert(h.id);
  surface.insert(sim.network().topology().storage_server().id);

  const auto& inst = sim.scenario_instances()[0];
  const auto chain = inst.emitter->infections();
  ASSERT_GT(chain.size(), 3u) << "worm never took hold";
  std::set<std::uint32_t> infected;
  bool campus_to_campus = false;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_TRUE(surface.count(chain[i].host_id))
        << "infected host off the susceptible surface";
    EXPECT_TRUE(infected.insert(chain[i].host_id).second)
        << "host infected twice";
    if (i > 0) EXPECT_GE(chain[i].at, chain[i - 1].at);
    if (chain[i].source_host_id != 0) {
      campus_to_campus = true;
      EXPECT_TRUE(infected.count(chain[i].source_host_id))
          << "infector was not itself infected first";
    }
  }
  // Propagation, not just the initial external seeding.
  EXPECT_TRUE(campus_to_campus);
  EXPECT_GT(inst.emitter->packets_emitted(), 500u);
}

TEST(WormBehavior, TriggeredExfilStartsAfterTheDelay) {
  ScenarioConfig cfg;
  cfg.campus.seed = 35;
  cfg.campus.diurnal = false;
  cfg.campus.wired_clients = 20;
  cfg.campus.wifi_clients = 20;
  const Scenario outbreak =
      Scenario::attack(BehaviorKind::kWorm)
          .rate(300)
          .starting_at(Timestamp::from_seconds(2))
          .lasting(Duration::seconds(10));
  const Scenario exfil = Scenario::attack(BehaviorKind::kExfiltration)
                             .rate(6)
                             .starting_at(Timestamp::from_seconds(0))
                             .lasting(Duration::seconds(6));
  cfg.scenarios.push_back(
      outbreak.triggered(exfil, Duration::seconds(6)));
  CampusSimulator sim(cfg);
  ASSERT_TRUE(sim.scenario_errors().empty());

  Timestamp first_exfil = Timestamp::from_seconds(1e9);
  std::uint64_t exfil_frames = 0;
  sim.network().set_tap([&](const packet::Packet& p, Direction) {
    if (p.label == TrafficLabel::kExfiltration) {
      ++exfil_frames;
      if (p.ts < first_exfil) first_exfil = p.ts;
    }
  });
  sim.run_for(Duration::seconds(16));

  ASSERT_GT(exfil_frames, 0u);
  // Worm begins at t=2, trigger delay 6 s: nothing exfiltrates before 8.
  EXPECT_GE(first_exfil, Timestamp::from_seconds(8));
  // Low and slow: orders of magnitude below the worm's probe volume.
  EXPECT_LT(exfil_frames, 400u);
}

// ---------------------------------------------------------- legacy pins

// Frame-stream hashes recorded from the pre-refactor per-attack
// classes. Each chain below states the retired class's configuration
// in full (shape, rate, window, victim), so a mismatch means the
// scenario layer changed emitted traffic.
void expect_pin(const char* what, const ScenarioConfig& cfg,
                double seconds, std::uint64_t want_frames,
                std::uint64_t want_hash) {
  const auto got = run_hashed(cfg, seconds);
  EXPECT_EQ(got.frames, want_frames) << what;
  EXPECT_EQ(got.h, want_hash) << what;
}

Scenario dns_amplification(double pps, double start_s, int seconds,
                           std::size_t response_bytes = 3000) {
  return Scenario::attack(BehaviorKind::kDnsAmplification)
      .with(DnsAmplificationShape{.response_bytes = response_bytes,
                                  .reflectors = 400})
      .rate(pps)
      .starting_at(Timestamp::from_seconds(start_s))
      .lasting(Duration::seconds(seconds));
}

Scenario syn_flood(double pps, double start_s, int seconds) {
  return Scenario::attack(BehaviorKind::kSynFlood)
      .with(SynFloodShape{.target_port = 443})
      .rate(pps)
      .starting_at(Timestamp::from_seconds(start_s))
      .lasting(Duration::seconds(seconds));
}

Scenario port_scan(double pps, double start_s, int seconds,
                   int ports_per_host = 12) {
  return Scenario::attack(BehaviorKind::kPortScan)
      .with(PortScanShape{.ports_per_host = ports_per_host})
      .rate(pps)
      .starting_at(Timestamp::from_seconds(start_s))
      .lasting(Duration::seconds(seconds));
}

Scenario ssh_brute_force(double per_second, double start_s, int seconds) {
  return Scenario::attack(BehaviorKind::kSshBruteForce)
      .rate(per_second)
      .starting_at(Timestamp::from_seconds(start_s))
      .lasting(Duration::seconds(seconds));
}

Scenario flash_crowd(double pps, double start_s, int seconds,
                     std::size_t client_index, std::size_t payload_bytes,
                     int sources) {
  return Scenario::attack(BehaviorKind::kFlashCrowd)
      .with(FlashCrowdShape{.payload_bytes = payload_bytes,
                            .sources = sources})
      .rate(pps)
      .starting_at(Timestamp::from_seconds(start_s))
      .lasting(Duration::seconds(seconds))
      .against(victims().client_index(client_index));
}

ScenarioConfig pin_config(std::uint64_t seed) {
  ScenarioConfig s;
  s.campus.seed = seed;
  s.campus.diurnal = false;
  return s;
}

TEST(LegacyPins, DnsAmplificationIsByteIdentical) {
  auto s = pin_config(11);
  s.scenarios.push_back(dns_amplification(500, 2, 6, 1200));
  expect_pin("dns_amplification", s, 10, 16291, 0xe71d29319b57249eULL);
}

TEST(LegacyPins, SynFloodIsByteIdentical) {
  auto s = pin_config(12);
  s.scenarios.push_back(syn_flood(800, 2, 6));
  expect_pin("syn_flood", s, 10, 15787, 0xae60df386bfa12bcULL);
}

TEST(LegacyPins, PortScanIsByteIdentical) {
  auto s = pin_config(13);
  s.scenarios.push_back(port_scan(200, 1, 8, 5));
  expect_pin("port_scan", s, 10, 13115, 0x29b05ee54e3ed1aaULL);
}

TEST(LegacyPins, SshBruteForceIsByteIdentical) {
  auto s = pin_config(14);
  s.scenarios.push_back(ssh_brute_force(10, 1, 8));
  expect_pin("ssh_brute_force", s, 10, 8908, 0xe8c410bae1b439beULL);
}

TEST(LegacyPins, FlashCrowdIsByteIdentical) {
  auto s = pin_config(15);
  s.scenarios.push_back(flash_crowd(600, 1, 5, /*client_index=*/3,
                                    /*payload_bytes=*/700, /*sources=*/12));
  expect_pin("flash_crowd", s, 8, 17850, 0x6c81650ddd09054dULL);
}

TEST(LegacyPins, CombinedArmingOrderIsByteIdentical) {
  auto s = pin_config(16);
  s.scenarios.push_back(dns_amplification(300, 2, 4));
  s.scenarios.push_back(syn_flood(400, 3, 4));
  s.scenarios.push_back(port_scan(150, 1, 6));
  s.scenarios.push_back(ssh_brute_force(6, 1, 6));
  s.scenarios.push_back(flash_crowd(350, 4, 3, /*client_index=*/2,
                                    /*payload_bytes=*/1200, /*sources=*/40));
  expect_pin("combined", s, 9, 12261, 0xd3d632ca0a947d69ULL);
}

}  // namespace
}  // namespace campuslab::sim
