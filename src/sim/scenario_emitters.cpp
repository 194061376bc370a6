// Behavior emitters — one per BehaviorKind — plus the ScenarioSpec
// registry that binds kinds to labels, legacy-faithful defaults and
// factories.
//
// Byte-identity contract: for the five legacy attack shapes (constant
// envelope, default selectors/shapes), each emitter reproduces the
// retired AttackInjector classes' frame streams exactly — same rng draw
// order, same seed salts (0xD45, 0x5F1, 0x9C4/0x9C5, 0xB4F/0xB50,
// 0xF1A5), same packet construction. scenario_test.cpp pins this
// against hashes recorded from the pre-refactor binaries.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campuslab/packet/dns.h"
#include "campuslab/sim/scenario.h"

namespace campuslab::sim {

using packet::DnsType;
using packet::Endpoint;
using packet::Ipv4Address;
using packet::MacAddress;
using packet::PacketBuilder;
using packet::TcpFlags;
using packet::TrafficLabel;

namespace {

Error bad_shape(std::string why) {
  return Error::make("scenario_bad_shape", std::move(why));
}

/// Exponential gaps: a Poisson process at the envelope's current rate.
Duration poisson_gap(Rng& rng, double rate) {
  return Duration::from_seconds(rng.exponential(1.0 / rate));
}

/// Drive an emission loop under the phase's intensity envelope.
/// `emit_one` is called once per packet slot, then `gap(rng, rate)`
/// draws the wait until the next. For a constant envelope and Poisson
/// gaps this draws exactly like the legacy loop (emit, then one
/// exponential gap), which the byte-identity pins depend on.
template <typename Emit, typename Gap = Duration (*)(Rng&, double)>
void drive(CampusNetwork& net, const AttackPhase& phase, std::uint64_t seed,
           Emit emit_one, Gap gap = &poisson_gap) {
  const Timestamp start = phase.start;
  net.events().loop(
      start, [&net, rng = Rng(seed), start, end = phase.start + phase.duration,
              window = phase.duration, env = phase.intensity,
              emit_one = std::move(emit_one),
              gap]() mutable -> std::optional<Timestamp> {
        const Timestamp now = net.events().now();
        if (now > end) return std::nullopt;
        const double r = env.rate_at(now, start, window, net.config());
        if (r > 0.0) {
          emit_one(rng);
          return now + gap(rng, r);
        }
        // Off-phase of a burst envelope: jump to the next active edge.
        const auto next = env.next_active(now - start);
        if (!next) return std::nullopt;
        Timestamp at = start + *next;
        if (at <= now) at = now + Duration::millis(1);  // never same-time spin
        if (at > end) return std::nullopt;
        return at;
      });
}

/// Shared skeleton: phase storage, counters, spec-derived label, and
/// start()'s checks in one order — the shape's kind, the window, the
/// envelope, the shape's own limits (validate()), then the victims. Once
/// all pass, run() arms the emission.
template <typename Shape>
class ShapedEmitter : public Emitter {
 public:
  explicit ShapedEmitter(AttackPhase phase) : phase_(std::move(phase)) {}

  std::uint64_t packets_emitted() const noexcept override { return emitted_; }
  BehaviorKind kind() const noexcept override { return phase_.kind; }
  TrafficLabel label() const noexcept override {
    return scenario_spec(phase_.kind).label;
  }

  Status start(CampusNetwork& net, const EmitContext& ctx) final {
    const auto* shape = std::get_if<Shape>(&phase_.shape);
    if (shape == nullptr) {
      return Error::make("scenario_shape_mismatch",
                         "phase '" + phase_.name +
                             "' carries a shape for a different kind than " +
                             std::string(to_string(phase_.kind)));
    }
    shape_ = *shape;
    if (phase_.duration <= Duration{}) {
      return Error::make("scenario_empty_window",
                         "phase '" + phase_.name + "' has an empty window");
    }
    if (auto s = phase_.intensity.validate(); !s.ok()) return s;
    if (auto s = validate(); !s.ok()) return s;
    // A seed-derived rng, so pick() replays. Selectors without pick()
    // consume no randomness.
    Rng rng(ctx.seed ^ 0x51C7);
    auto victims = phase_.victim_set.resolve(net.topology(), rng);
    if (!victims.ok()) return victims.error();
    victims_ = std::move(victims).value();
    run(net, ctx);
    return Status::success();
  }

 protected:
  /// The shape's own limits; the default has none.
  virtual Status validate() const { return Status::success(); }
  /// Arm the emission. Called once, after every check passed.
  virtual void run(CampusNetwork& net, const EmitContext& ctx) = 0;

  /// A uniformly drawn victim; a single victim draws nothing.
  const Host& pick_victim(Rng& rng) const {
    return victims_.size() == 1 ? victims_[0]
                                : victims_[rng.below(victims_.size())];
  }

  AttackPhase phase_;
  Shape shape_{};
  std::vector<Host> victims_;
  std::uint64_t emitted_ = 0;
};

// ---------------------------------------------------------------------------

class DnsAmplificationEmitter final
    : public ShapedEmitter<DnsAmplificationShape> {
 public:
  using ShapedEmitter::ShapedEmitter;

 private:
  Status validate() const override {
    if (shape_.reflectors < 1) return bad_shape("reflector pool must be >= 1");
    if (shape_.payload_spread < 0.0 || shape_.payload_spread >= 1.0) {
      return bad_shape("payload_spread must be in [0, 1)");
    }
    return Status::success();
  }

  void run(CampusNetwork& net, const EmitContext& ctx) override {
    // Pre-serialize a small family of response bodies around the target
    // size (real reflectors answer with whatever records they hold, so
    // sizes jitter); per packet we vary the body, the DNS id, and the
    // reflector address.
    const auto query =
        packet::make_dns_query(0, "amp.reflector.example", DnsType::kAny);
    std::vector<double> scales;
    if (shape_.payload_spread > 0.0) {
      for (int i = 0; i < 5; ++i) {
        scales.push_back(1.0 - shape_.payload_spread +
                         (2.0 * shape_.payload_spread * i) / 4.0);
      }
    } else {
      scales = {0.55, 0.75, 1.0, 1.2, 1.45};  // the legacy family
    }
    std::vector<std::vector<std::uint8_t>> bodies;
    for (const double scale : scales) {
      const auto bytes = std::max<std::size_t>(
          static_cast<std::size_t>(static_cast<double>(shape_.response_bytes) *
                                   scale),
          80);
      bodies.push_back(packet::make_dns_response(query, 6, bytes).serialize());
    }

    drive(net, phase_, ctx.seed ^ 0xD45,
          [this, &net, bodies = std::move(bodies),
           sid = ctx.scenario_id](Rng& rng) mutable {
            // Churn slides the reflector pool window forward over time;
            // a static pool (churn 0, the legacy shape) keeps offset 0.
            const double elapsed =
                (net.events().now() - phase_.start).to_seconds();
            const auto pool_offset = static_cast<std::uint32_t>(
                std::max(0.0, shape_.reflector_churn_per_s * elapsed));
            const auto reflector_index =
                pool_offset +
                static_cast<std::uint32_t>(
                    rng.below(static_cast<std::uint64_t>(shape_.reflectors)));
            const Host& victim_host = pick_victim(rng);
            Endpoint reflector{
                MacAddress::from_id(0x00A00000u | reflector_index),
                Topology::external_host(2, reflector_index, 53).ip, 53};
            Endpoint victim{MacAddress::from_id(0x00A10000u),
                            victim_host.endpoint.ip,
                            static_cast<std::uint16_t>(1024 +
                                                       rng.below(60000))};
            auto& body = bodies[rng.below(bodies.size())];
            body[0] = static_cast<std::uint8_t>(rng.below(256));
            body[1] = static_cast<std::uint8_t>(rng.below(256));
            auto pkt = PacketBuilder(net.events().now())
                           .udp(reflector, victim)
                           .payload(body)
                           .label(TrafficLabel::kDnsAmplification)
                           .scenario(sid)
                           .build();
            ++emitted_;
            net.inject(Direction::kInbound, std::move(pkt));
          });
  }
};

// ---------------------------------------------------------------------------

class SynFloodEmitter final : public ShapedEmitter<SynFloodShape> {
 public:
  using ShapedEmitter::ShapedEmitter;

 private:
  Status validate() const override {
    if (shape_.spoof_pool < 0) return bad_shape("spoof_pool must be >= 0");
    return Status::success();
  }

  void run(CampusNetwork& net, const EmitContext& ctx) override {
    drive(net, phase_, ctx.seed ^ 0x5F1,
          [this, &net, sid = ctx.scenario_id](Rng& rng) {
            Endpoint victim = pick_victim(rng).endpoint;
            victim.port = shape_.target_port;
            Endpoint spoofed;
            if (shape_.spoof_pool > 0) {
              // Botnet shape: a fixed pool of real (non-spoofed) sources.
              const auto bot = static_cast<std::uint32_t>(
                  rng.below(static_cast<std::uint64_t>(shape_.spoof_pool)));
              spoofed = Endpoint{
                  MacAddress::from_id(0x00B00000u | bot),
                  Topology::external_host(4, bot, 0).ip,
                  static_cast<std::uint16_t>(1024 + rng.below(60000))};
            } else {
              // Legacy shape: fully random spoofing.
              spoofed = Endpoint{
                  MacAddress::from_id(0x00B00000u |
                                      static_cast<std::uint32_t>(
                                          rng.below(1 << 20))),
                  Topology::random_external_address(rng),
                  static_cast<std::uint16_t>(1024 + rng.below(60000))};
            }
            auto pkt = PacketBuilder(net.events().now())
                           .tcp(spoofed, victim, TcpFlags::kSyn,
                                static_cast<std::uint32_t>(rng.next()))
                           .label(TrafficLabel::kSynFlood)
                           .scenario(sid)
                           .build();
            ++emitted_;
            net.inject(Direction::kInbound, std::move(pkt));
          });
  }
};

// ---------------------------------------------------------------------------

class PortScanEmitter final : public ShapedEmitter<PortScanShape> {
 public:
  using ShapedEmitter::ShapedEmitter;

 private:
  Status validate() const override {
    if (shape_.ports_per_host < 1) {
      return bad_shape("ports_per_host must be >= 1");
    }
    if (shape_.responder_fraction < 0.0 || shape_.responder_fraction > 1.0) {
      return bad_shape("responder_fraction must be in [0, 1]");
    }
    return Status::success();
  }

  void run(CampusNetwork& net, const EmitContext& ctx) override {
    // One persistent scanner walking the selected address space.
    Rng addr_rng(ctx.seed ^ 0x9C4);
    const Endpoint scanner{MacAddress::from_id(0x00C00001u),
                           Topology::random_external_address(addr_rng), 0};
    static constexpr std::uint16_t kPorts[] = {21,  22,   23,   25,   80,
                                               110, 139,  143,  443,  445,
                                               3306, 3389, 5432, 8080};
    constexpr auto kPortCount =
        static_cast<std::uint64_t>(sizeof kPorts / sizeof kPorts[0]);
    const auto ports_per_host = std::min(
        static_cast<std::uint64_t>(shape_.ports_per_host), kPortCount);

    drive(net, phase_, ctx.seed ^ 0x9C5,
          [this, &net, scanner, ports_per_host, cursor = std::uint64_t{0},
           sid = ctx.scenario_id](Rng& rng) mutable {
            const std::size_t n = victims_.size();
            const Host* target = nullptr;
            std::uint16_t port = 0;
            auto probe_flags = static_cast<std::uint8_t>(TcpFlags::kSyn);
            bool may_answer = true;
            switch (shape_.style) {
              case ScanStyle::kSweep:
                // Host-major walk: the legacy shape.
                target = &victims_[(cursor / ports_per_host) % n];
                port = kPorts[cursor % ports_per_host];
                ++cursor;
                break;
              case ScanStyle::kHorizontal:
                target = &victims_[cursor % n];
                port = shape_.horizontal_port;
                ++cursor;
                break;
              case ScanStyle::kVertical:
                // Exhaust the whole port table per host before moving on.
                target = &victims_[(cursor / kPortCount) % n];
                port = kPorts[cursor % kPortCount];
                ++cursor;
                break;
              case ScanStyle::kStealth:
                // Randomized order, FIN probes, nothing answers.
                target = &victims_[rng.below(n)];
                port = kPorts[rng.below(kPortCount)];
                probe_flags = static_cast<std::uint8_t>(TcpFlags::kFin);
                may_answer = false;
                break;
            }
            Endpoint src = scanner;
            src.port = static_cast<std::uint16_t>(40000 + rng.below(20000));
            Endpoint dst = target->endpoint;
            dst.port = port;
            auto pkt = PacketBuilder(net.events().now())
                           .tcp(src, dst, probe_flags,
                                static_cast<std::uint32_t>(rng.next()))
                           .label(TrafficLabel::kPortScan)
                           .scenario(sid)
                           .build();
            ++emitted_;
            net.inject(Direction::kInbound, std::move(pkt));
            // A fraction of probes hit something that answers; the campus
            // response (RST or SYN-ACK) heads outbound, labelled benign —
            // it is the victim's traffic, not the attacker's.
            if (may_answer && rng.chance(shape_.responder_fraction)) {
              auto resp = PacketBuilder(net.events().now())
                              .tcp(dst, src,
                                   rng.chance(0.3)
                                       ? static_cast<std::uint8_t>(
                                             TcpFlags::kSyn | TcpFlags::kAck)
                                       : static_cast<std::uint8_t>(
                                             TcpFlags::kRst | TcpFlags::kAck),
                                   0, 1)
                              .scenario(sid)
                              .build();
              net.inject(Direction::kOutbound, std::move(resp));
            }
          });
  }
};

// ---------------------------------------------------------------------------

class SshBruteForceEmitter final : public ShapedEmitter<SshBruteForceShape> {
 public:
  using ShapedEmitter::ShapedEmitter;

 private:
  void run(CampusNetwork& net, const EmitContext& ctx) override {
    Rng addr_rng(ctx.seed ^ 0xB4F);
    const Ipv4Address attacker_ip =
        Topology::random_external_address(addr_rng);

    drive(net, phase_, ctx.seed ^ 0xB50,
          [this, &net, attacker_ip, sid = ctx.scenario_id](Rng& rng) {
            // One login attempt: SYN, SYN-ACK, ACK, a couple of small auth
            // exchanges, then RST from the server (failed password).
            Endpoint gateway = pick_victim(rng).endpoint;
            gateway.port = 22;
            Endpoint attacker{MacAddress::from_id(0x00D00001u), attacker_ip,
                              static_cast<std::uint16_t>(1024 +
                                                         rng.below(60000))};
            const Timestamp now = net.events().now();
            auto emit_in = [&](packet::Packet p) {
              ++emitted_;
              net.inject(Direction::kInbound, std::move(p));
            };
            emit_in(PacketBuilder(now)
                        .tcp(attacker, gateway, TcpFlags::kSyn, 7)
                        .label(TrafficLabel::kSshBruteForce)
                        .scenario(sid)
                        .build());
            net.inject(Direction::kOutbound,
                       PacketBuilder(now)
                           .tcp(gateway, attacker,
                                TcpFlags::kSyn | TcpFlags::kAck, 17, 8)
                           .scenario(sid)
                           .build());
            emit_in(PacketBuilder(now)
                        .tcp(attacker, gateway, TcpFlags::kAck, 8, 18)
                        .label(TrafficLabel::kSshBruteForce)
                        .scenario(sid)
                        .build());
            for (int i = 0; i < 3; ++i) {
              emit_in(PacketBuilder(now)
                          .tcp(attacker, gateway,
                               TcpFlags::kAck | TcpFlags::kPsh, 8, 18)
                          .payload_size(48 + rng.below(80))
                          .label(TrafficLabel::kSshBruteForce)
                          .scenario(sid)
                          .build());
              net.inject(Direction::kOutbound,
                         PacketBuilder(now)
                             .tcp(gateway, attacker,
                                  TcpFlags::kAck | TcpFlags::kPsh, 18, 8)
                             .payload_size(32 + rng.below(48))
                             .scenario(sid)
                             .build());
            }
            net.inject(Direction::kOutbound,
                       PacketBuilder(now)
                           .tcp(gateway, attacker, TcpFlags::kRst, 18, 8)
                           .scenario(sid)
                           .build());
          });
  }
};

// ---------------------------------------------------------------------------

class FlashCrowdEmitter final : public ShapedEmitter<FlashCrowdShape> {
 public:
  using ShapedEmitter::ShapedEmitter;

 private:
  Status validate() const override {
    if (shape_.sources < 1) return bad_shape("flash crowd needs >= 1 source");
    return Status::success();
  }

  void run(CampusNetwork& net, const EmitContext& ctx) override {
    drive(net, phase_, ctx.seed ^ 0xF1A5,
          [this, &net, sid = ctx.scenario_id](Rng& rng) {
            const Host& receiver_host = pick_victim(rng);
            const auto edge = static_cast<std::uint32_t>(
                rng.below(static_cast<std::uint64_t>(shape_.sources)));
            Endpoint src = Topology::external_host(1, edge, 443);
            Endpoint dst = receiver_host.endpoint;
            dst.port = static_cast<std::uint16_t>(40000 + edge);
            auto pkt = PacketBuilder(net.events().now())
                           .udp(src, dst)
                           .payload_size(shape_.payload_bytes)
                           .scenario(sid)
                           .build();  // label stays kBenign
            ++emitted_;
            net.inject(Direction::kInbound, std::move(pkt));
          });
  }
};

// ---------------------------------------------------------------------------

/// Per-host infection status for the worm state machine.
enum class WormStatus : std::uint8_t { kSusceptible, kIncubating, kSpreading };

/// The susceptible surface is the victim set; the outbreak's state lives
/// in members parallel to it.
class WormEmitter final : public ShapedEmitter<WormShape> {
 public:
  using ShapedEmitter::ShapedEmitter;

  std::span<const WormInfection> infections() const noexcept override {
    return infections_;
  }

 private:
  Status validate() const override {
    if (shape_.initial_bots < 1) {
      return bad_shape("worm needs >= 1 initial bot");
    }
    if (shape_.infect_probability < 0.0 || shape_.infect_probability > 1.0) {
      return bad_shape("infect_probability must be in [0, 1]");
    }
    if (shape_.external_hit_fraction < 0.0 ||
        shape_.external_hit_fraction > 1.0) {
      return bad_shape("external_hit_fraction must be in [0, 1]");
    }
    if (shape_.incubation < Duration{}) {
      return bad_shape("incubation must be >= 0");
    }
    if (shape_.max_external_bots < shape_.initial_bots) {
      return bad_shape("max_external_bots must cover initial_bots");
    }
    return Status::success();
  }

  void run(CampusNetwork& net, const EmitContext& ctx) override {
    status_.assign(victims_.size(), WormStatus::kSusceptible);
    external_bots_ = shape_.initial_bots;

    drive(net, phase_, ctx.seed ^ 0x3B9A,
          [this, &net, sid = ctx.scenario_id](Rng& rng) {
            // Pick a scanning source across the whole infected
            // population: external bots first, then spreading hosts.
            const std::size_t n_sources =
                static_cast<std::size_t>(external_bots_) + spreading_.size();
            const std::size_t src_idx =
                n_sources == 1 ? 0 : rng.below(n_sources);
            const Timestamp now = net.events().now();
            if (src_idx < static_cast<std::size_t>(external_bots_)) {
              // Inbound scan from an external bot, possibly exploiting a
              // susceptible campus host.
              const std::size_t tgt = rng.below(victims_.size());
              const Host& target = victims_[tgt];
              Endpoint bot{MacAddress::from_id(
                               0x00E10000u |
                               static_cast<std::uint32_t>(src_idx)),
                           Topology::external_host(
                               5, static_cast<std::uint32_t>(src_idx), 0)
                               .ip,
                           static_cast<std::uint16_t>(1024 +
                                                      rng.below(60000))};
              Endpoint dst = target.endpoint;
              dst.port = shape_.service_port;
              auto probe = PacketBuilder(now)
                               .tcp(bot, dst, TcpFlags::kSyn,
                                    static_cast<std::uint32_t>(rng.next()))
                               .label(TrafficLabel::kWorm)
                               .scenario(sid)
                               .build();
              ++emitted_;
              net.inject(Direction::kInbound, std::move(probe));
              maybe_infect(net, rng, sid, tgt, bot, /*source_id=*/0);
            } else {
              const Host& src_host =
                  victims_[spreading_[src_idx - static_cast<std::size_t>(
                                                    external_bots_)]];
              if (rng.chance(0.5)) {
                // Lateral spread inside the campus: never crosses the
                // border (no frame for the tap), but the state machine
                // advances and the infection chain records the hop.
                const std::size_t tgt = rng.below(victims_.size());
                maybe_infect(net, rng, sid, tgt, std::nullopt, src_host.id);
              } else {
                // Outbound scan beyond the border — what the tap sees —
                // which recruits fresh external bots.
                Endpoint src = src_host.endpoint;
                src.port =
                    static_cast<std::uint16_t>(1024 + rng.below(60000));
                const auto ext_idx = static_cast<std::uint32_t>(
                    rng.below(1u << 16));
                Endpoint dst =
                    Topology::external_host(5, ext_idx, shape_.service_port);
                auto probe = PacketBuilder(now)
                                 .tcp(src, dst, TcpFlags::kSyn,
                                      static_cast<std::uint32_t>(rng.next()))
                                 .label(TrafficLabel::kWorm)
                                 .scenario(sid)
                                 .build();
                ++emitted_;
                net.inject(Direction::kOutbound, std::move(probe));
                if (external_bots_ < shape_.max_external_bots &&
                    rng.chance(shape_.external_hit_fraction)) {
                  ++external_bots_;
                }
              }
            }
          });
  }

  /// Advance the target's state machine on a successful exploit:
  /// Susceptible → Incubating now, → Spreading after the incubation
  /// delay. `exploit_src` present = the exploit rode an inbound frame.
  void maybe_infect(CampusNetwork& net, Rng& rng, std::uint32_t sid,
                    std::size_t tgt, std::optional<Endpoint> exploit_src,
                    std::uint32_t source_id) {
    if (status_[tgt] != WormStatus::kSusceptible) return;
    if (!rng.chance(shape_.infect_probability)) return;
    const Timestamp now = net.events().now();
    status_[tgt] = WormStatus::kIncubating;
    infections_.push_back(WormInfection{victims_[tgt].id, now, source_id});
    if (exploit_src) {
      // The exploit payload itself, border-visible on the inbound wire.
      Endpoint dst = victims_[tgt].endpoint;
      dst.port = shape_.service_port;
      auto exploit = PacketBuilder(now)
                         .tcp(*exploit_src, dst,
                              TcpFlags::kAck | TcpFlags::kPsh, 1, 1)
                         .payload_size(shape_.exploit_bytes)
                         .label(TrafficLabel::kWorm)
                         .scenario(sid)
                         .build();
      ++emitted_;
      net.inject(Direction::kInbound, std::move(exploit));
    }
    net.events().schedule_at(now + shape_.incubation, [this, tgt] {
      if (status_[tgt] == WormStatus::kIncubating) {
        status_[tgt] = WormStatus::kSpreading;
        spreading_.push_back(tgt);
      }
    });
  }

  std::vector<WormStatus> status_;      // parallel to victims_
  std::vector<std::size_t> spreading_;  // victims_ indexes, infection order
  std::vector<WormInfection> infections_;
  int external_bots_ = 0;
};

// ---------------------------------------------------------------------------

class ExfiltrationEmitter final : public ShapedEmitter<ExfiltrationShape> {
 public:
  using ShapedEmitter::ShapedEmitter;

 private:
  Status validate() const override {
    if (shape_.beacon_jitter < 0.0 || shape_.beacon_jitter >= 1.0) {
      return bad_shape("beacon_jitter must be in [0, 1)");
    }
    if (shape_.chunk_every < 1) return bad_shape("chunk_every must be >= 1");
    return Status::success();
  }

  void run(CampusNetwork& net, const EmitContext& ctx) override {
    const Endpoint c2 = Topology::external_host(
        4, static_cast<std::uint32_t>(ctx.seed % 1024), shape_.c2_port);
    // Beaconing is periodic-with-jitter, not Poisson: the defining
    // signature of low-and-slow C2 traffic is the regular heartbeat.
    const auto jittered_period = [jitter = shape_.beacon_jitter](
                                     Rng& rng, double rate) {
      // The beacon clock drifts ± jitter around 1/rate.
      const double period = 1.0 / rate;
      const double gap = period * (1.0 + jitter * (2.0 * rng.uniform() - 1.0));
      return Duration::from_seconds(std::max(gap, 1e-6));
    };
    drive(
        net, phase_, ctx.seed ^ 0xEF11,
        [this, &net, c2, beacons = std::uint64_t{0},
         sid = ctx.scenario_id](Rng& rng) mutable {
          const Timestamp now = net.events().now();
          ++beacons;
          Endpoint src = victims_.front().endpoint;
          src.port = static_cast<std::uint16_t>(49152 + rng.below(16000));
          const auto seq = static_cast<std::uint32_t>(beacons);
          auto beacon = PacketBuilder(now)
                            .tcp(src, c2, TcpFlags::kAck | TcpFlags::kPsh,
                                 seq, seq)
                            .payload_size(shape_.beacon_bytes + rng.below(24))
                            .label(TrafficLabel::kExfiltration)
                            .scenario(sid)
                            .build();
          ++emitted_;
          net.inject(Direction::kOutbound, std::move(beacon));
          auto ack = PacketBuilder(now)
                         .tcp(c2, src, TcpFlags::kAck, seq, seq + 1)
                         .label(TrafficLabel::kExfiltration)
                         .scenario(sid)
                         .build();
          ++emitted_;
          net.inject(Direction::kInbound, std::move(ack));
          if (beacons % static_cast<std::uint64_t>(shape_.chunk_every) == 0) {
            auto chunk =
                PacketBuilder(now)
                    .tcp(src, c2, TcpFlags::kAck | TcpFlags::kPsh, seq + 1,
                         seq)
                    .payload_size(shape_.chunk_bytes + rng.below(128))
                    .label(TrafficLabel::kExfiltration)
                    .scenario(sid)
                    .build();
            ++emitted_;
            net.inject(Direction::kOutbound, std::move(chunk));
          }
        },
        jittered_period);
  }
};

// ---------------------------------------------------------------------------
// Registry

template <typename E>
std::unique_ptr<Emitter> make_impl(const AttackPhase& phase) {
  return std::make_unique<E>(phase);
}

BehaviorShape shape_dns() { return DnsAmplificationShape{}; }
BehaviorShape shape_syn() { return SynFloodShape{}; }
BehaviorShape shape_scan() { return PortScanShape{}; }
BehaviorShape shape_ssh() { return SshBruteForceShape{}; }
BehaviorShape shape_crowd() { return FlashCrowdShape{}; }
BehaviorShape shape_worm() { return WormShape{}; }
BehaviorShape shape_exfil() { return ExfiltrationShape{}; }

VictimSelector victims_first_client() { return victims().first_client(); }
VictimSelector victims_web() {
  return victims().role(HostRole::kWebServer);
}
VictimSelector victims_all() { return victims(); }
VictimSelector victims_ssh() {
  return victims().role(HostRole::kSshGateway);
}
VictimSelector victims_client5() { return victims().client_index(5); }
VictimSelector victims_worm_surface() {
  return victims().worm_reachable();
}

// Defaults mirror the legacy config structs exactly; worm and
// exfiltration pick rates in character for their class (a worm's
// aggregate scan budget, a beacon every ~2s).
const std::array<ScenarioSpec, kBehaviorKindCount> kSpecs{{
    {BehaviorKind::kDnsAmplification, "dns_amplification",
     TrafficLabel::kDnsAmplification, 20'000, Duration::seconds(60),
     &shape_dns, &victims_first_client,
     &make_impl<DnsAmplificationEmitter>},
    {BehaviorKind::kSynFlood, "syn_flood", TrafficLabel::kSynFlood, 10'000,
     Duration::seconds(60), &shape_syn, &victims_web,
     &make_impl<SynFloodEmitter>},
    {BehaviorKind::kPortScan, "port_scan", TrafficLabel::kPortScan, 300,
     Duration::seconds(120), &shape_scan, &victims_all,
     &make_impl<PortScanEmitter>},
    {BehaviorKind::kSshBruteForce, "ssh_brute_force",
     TrafficLabel::kSshBruteForce, 8, Duration::seconds(180), &shape_ssh,
     &victims_ssh, &make_impl<SshBruteForceEmitter>},
    {BehaviorKind::kFlashCrowd, "flash_crowd", TrafficLabel::kBenign, 3000,
     Duration::seconds(30), &shape_crowd, &victims_client5,
     &make_impl<FlashCrowdEmitter>},
    {BehaviorKind::kWorm, "worm", TrafficLabel::kWorm, 80,
     Duration::seconds(60), &shape_worm, &victims_worm_surface,
     &make_impl<WormEmitter>},
    {BehaviorKind::kExfiltration, "exfiltration",
     TrafficLabel::kExfiltration, 0.5, Duration::seconds(300), &shape_exfil,
     &victims_first_client, &make_impl<ExfiltrationEmitter>},
}};

}  // namespace

const ScenarioSpec& scenario_spec(BehaviorKind kind) noexcept {
  const auto i = static_cast<std::size_t>(kind);
  return kSpecs[i < kSpecs.size() ? i : 0];
}

std::span<const ScenarioSpec> scenario_specs() noexcept { return kSpecs; }

std::unique_ptr<Emitter> make_emitter(const AttackPhase& phase) {
  return scenario_spec(phase.kind).make(phase);
}

}  // namespace campuslab::sim
