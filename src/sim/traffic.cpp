#include "campuslab/sim/traffic.h"

#include <algorithm>
#include <cassert>

#include "campuslab/packet/dns.h"
#include "campuslab/resilience/fault.h"

namespace campuslab::sim {

using packet::DnsType;
using packet::Endpoint;
using packet::PacketBuilder;
using packet::TcpFlags;
using packet::TrafficLabel;

namespace {

constexpr std::size_t kMtuPayload = 1460;  // TCP MSS on Ethernet

Direction reverse(Direction d) noexcept {
  return d == Direction::kInbound ? Direction::kOutbound
                                  : Direction::kInbound;
}

std::uint16_t ephemeral_port(Rng& rng) {
  return static_cast<std::uint16_t>(1024 + rng.below(64512));
}

}  // namespace

TrafficGenerator::TrafficGenerator(CampusNetwork& net, AppRates rates,
                                   std::uint64_t seed)
    : net_(&net), rates_(rates), rng_(seed),
      apps_{App{"web", rates.web, {}, rng_.fork(1), {}},
            App{"web_in", rates.web_in, {}, rng_.fork(2), {}},
            App{"video", rates.video, {}, rng_.fork(3), {}},
            App{"dns", rates.dns, {}, rng_.fork(4), {}},
            App{"dns_in", rates.dns_in, {}, rng_.fork(5), {}},
            App{"ssh", rates.ssh, {}, rng_.fork(6), {}},
            App{"mail", rates.mail, {}, rng_.fork(7), {}},
            App{"bulk", rates.bulk, {}, rng_.fork(8), {}}} {
  apps_[0].spawn = [this] { web_session(apps_[0]); };
  apps_[1].spawn = [this] { web_inbound_session(apps_[1]); };
  apps_[2].spawn = [this] { video_session(apps_[2]); };
  apps_[3].spawn = [this] { dns_session(apps_[3]); };
  apps_[4].spawn = [this] { dns_inbound_session(apps_[4]); };
  apps_[5].spawn = [this] { ssh_session(apps_[5]); };
  apps_[6].spawn = [this] { mail_session(apps_[6]); };
  apps_[7].spawn = [this] { bulk_session(apps_[7]); };
}

void TrafficGenerator::start() {
  for (auto& app : apps_) {
    if (app.rate > 0.0) arm(app);
  }
}

const TrafficStats& TrafficGenerator::stats(const std::string& app) const {
  for (const auto& a : apps_)
    if (a.name == app) return a.stats;
  assert(false && "unknown app name");
  static const TrafficStats kEmpty{};
  return kEmpty;
}

std::uint64_t TrafficGenerator::total_packets() const noexcept {
  std::uint64_t t = 0;
  for (const auto& a : apps_) t += a.stats.packets;
  return t;
}

void TrafficGenerator::arm(App& app) {
  // Thinned Poisson process: draw inter-arrivals at the peak rate, then
  // accept with probability diurnal*load_scale (capped at 1) — this
  // modulates intensity without re-deriving the arrival stream.
  const double peak_rate = app.rate * std::max(net_->config().load_scale, 1.0);
  const Duration gap =
      Duration::from_seconds(app.rng.exponential(1.0 / peak_rate));
  net_->events().schedule_in(gap, [this, &app] {
    if (stopped_) return;
    const double accept =
        net_->diurnal_factor(net_->events().now()) *
        net_->config().load_scale /
        std::max(net_->config().load_scale, 1.0);
    if (app.rng.chance(std::min(accept, 1.0))) {
      ++app.stats.sessions;
      app.spawn();
    }
    arm(app);
  });
}

void TrafficGenerator::emit(Direction dir, packet::Packet pkt, App& app) {
  if (auto s = resilience::fault_point_status("sim.emit"); !s.ok()) {
    ++app.stats.faulted_packets;
    return;
  }
  ++app.stats.packets;
  app.stats.bytes += pkt.size();
  net_->inject(dir, std::move(pkt));
}

// ---------------------------------------------------------------- transfer

void TrafficGenerator::transfer(App& app, Endpoint sender,
                                Direction sender_dir, Endpoint receiver,
                                std::uint64_t payload_bytes, double pace_bps,
                                Duration start_after) {
  // Lazy burst-by-burst emission so multi-megabyte transfers never hold
  // all their packets in memory at once.
  struct State {
    Endpoint sender, receiver;
    Direction dir;
    std::uint64_t remaining;
    double pace_bps;
    std::uint32_t seq = 1000;
    std::uint32_t acked = 0;
    int pkts_since_ack = 0;
  };
  auto st = std::make_shared<State>(State{sender, receiver, sender_dir,
                                          payload_bytes, pace_bps});
  constexpr int kBurst = 8;

  // Self-passing continuation (see scenario_emitters.cpp drive()): each
  // queued event owns its own copy of the closure, so the state dies
  // with the last queued event instead of leaking in a shared_ptr cycle.
  auto step = [this, st, &app](auto self) -> void {
    const Timestamp now = net_->events().now();
    for (int i = 0; i < kBurst && st->remaining > 0; ++i) {
      const std::size_t chunk =
          static_cast<std::size_t>(std::min<std::uint64_t>(st->remaining,
                                                           kMtuPayload));
      auto pkt = PacketBuilder(now)
                     .tcp(st->sender, st->receiver,
                          TcpFlags::kAck | TcpFlags::kPsh, st->seq,
                          st->acked)
                     .payload_size(chunk)
                     .build();
      emit(st->dir, std::move(pkt), app);
      st->seq += static_cast<std::uint32_t>(chunk);
      st->remaining -= chunk;
      if (++st->pkts_since_ack >= 8) {
        st->pkts_since_ack = 0;
        auto ack = PacketBuilder(now)
                       .tcp(st->receiver, st->sender, TcpFlags::kAck, 2000,
                            st->seq)
                       .build();
        emit(reverse(st->dir), std::move(ack), app);
      }
    }
    if (st->remaining > 0) {
      const double burst_bits =
          static_cast<double>(kBurst) * (kMtuPayload + 54) * 8.0;
      net_->events().schedule_in(
          Duration::from_seconds(burst_bits / st->pace_bps),
          [self] { self(self); });
    } else {
      // FIN/ACK teardown.
      auto fin = PacketBuilder(net_->events().now())
                     .tcp(st->sender, st->receiver,
                          TcpFlags::kFin | TcpFlags::kAck, st->seq, st->acked)
                     .build();
      emit(st->dir, std::move(fin), app);
      auto finack = PacketBuilder(net_->events().now())
                        .tcp(st->receiver, st->sender,
                             TcpFlags::kFin | TcpFlags::kAck, 2000,
                             st->seq + 1)
                        .build();
      emit(reverse(st->dir), std::move(finack), app);
    }
  };
  net_->events().schedule_in(start_after, [step] { step(step); });
}

// ----------------------------------------------------------------- web

void TrafficGenerator::web_session(App& app) {
  auto& rng = app.rng;
  Endpoint client = net_->topology().random_client(rng).endpoint;
  client.port = ephemeral_port(rng);
  const Endpoint server = Topology::external_host(
      0, static_cast<std::uint32_t>(rng.below(64)), 443);
  const Duration rtt = Duration::millis(
      static_cast<std::int64_t>(10 + rng.below(60)));
  const Timestamp now = net_->events().now();

  // Handshake.
  emit(Direction::kOutbound,
       PacketBuilder(now).tcp(client, server, TcpFlags::kSyn, 999).build(),
       app);
  net_->events().schedule_in(rtt, [this, client, server, &app] {
    emit(Direction::kInbound,
         PacketBuilder(net_->events().now())
             .tcp(server, client, TcpFlags::kSyn | TcpFlags::kAck, 1999,
                  1000)
             .build(),
         app);
    emit(Direction::kOutbound,
         PacketBuilder(net_->events().now())
             .tcp(client, server, TcpFlags::kAck, 1000, 2000)
             .build(),
         app);
  });

  // Request after the handshake, response transfer after server think.
  const std::size_t req_bytes = 300 + rng.below(500);
  net_->events().schedule_in(rtt + Duration::millis(2),
                             [this, client, server, req_bytes, &app] {
    emit(Direction::kOutbound,
         PacketBuilder(net_->events().now())
             .tcp(client, server, TcpFlags::kAck | TcpFlags::kPsh, 1000,
                  2000)
             .payload_size(req_bytes)
             .build(),
         app);
  });

  const auto response_bytes = static_cast<std::uint64_t>(
      std::min(rng.pareto(6e3, 1.25), 3e6));
  const double pace = rng.uniform(20e6, 200e6);
  const Duration think = Duration::millis(
      static_cast<std::int64_t>(20 + rng.below(100)));
  transfer(app, server, Direction::kInbound, client, response_bytes, pace,
           rtt + think);
}

void TrafficGenerator::web_inbound_session(App& app) {
  auto& rng = app.rng;
  Endpoint client = Topology::external_host(
      4, static_cast<std::uint32_t>(rng.below(512)), 0);
  client.port = ephemeral_port(rng);
  Endpoint server = net_->topology().web_server().endpoint;
  server.port = 443;
  const Timestamp now = net_->events().now();

  emit(Direction::kInbound,
       PacketBuilder(now).tcp(client, server, TcpFlags::kSyn, 499).build(),
       app);
  emit(Direction::kOutbound,
       PacketBuilder(now)
           .tcp(server, client, TcpFlags::kSyn | TcpFlags::kAck, 799, 500)
           .build(),
       app);
  emit(Direction::kInbound,
       PacketBuilder(now)
           .tcp(client, server, TcpFlags::kAck | TcpFlags::kPsh, 500, 800)
           .payload_size(250 + rng.below(400))
           .build(),
       app);
  const auto response_bytes = static_cast<std::uint64_t>(
      std::min(rng.pareto(4e3, 1.3), 1e6));
  transfer(app, server, Direction::kOutbound, client, response_bytes,
           rng.uniform(50e6, 400e6), Duration::millis(5));
}

// ---------------------------------------------------------------- video

void TrafficGenerator::video_session(App& app) {
  auto& rng = app.rng;
  Endpoint client = net_->topology().random_client(rng).endpoint;
  client.port = ephemeral_port(rng);
  const Endpoint server = Topology::external_host(
      1, static_cast<std::uint32_t>(rng.below(32)), 443);

  const double bitrate = rng.uniform(2e6, 5e6);
  const double duration_s = rng.uniform(20.0, 90.0);
  const auto total_bytes =
      static_cast<std::uint64_t>(bitrate * duration_s / 8.0);
  // Stream pacing at ~1.2x the nominal bitrate (client buffers ahead).
  transfer(app, server, Direction::kInbound, client, total_bytes,
           bitrate * 1.2, Duration::millis(30));
}

// ------------------------------------------------------------------ dns

void TrafficGenerator::dns_session(App& app) {
  auto& rng = app.rng;
  Endpoint client = net_->topology().random_client(rng).endpoint;
  client.port = ephemeral_port(rng);
  const Endpoint resolver = Topology::external_host(
      2, static_cast<std::uint32_t>(rng.below(4)), 53);

  static const char* kNames[] = {
      "www.example.edu",      "cdn.courseware.net", "api.github.com",
      "lib.campus.edu",       "mail.google.com",    "update.vendor.io",
      "video.stream.example", "registry.npmjs.org"};
  const auto name = kNames[rng.below(8)];
  const auto id = static_cast<std::uint16_t>(rng.below(65536));
  const auto qtype = rng.chance(0.9) ? DnsType::kA : DnsType::kAaaa;

  const auto query = packet::make_dns_query(id, name, qtype);
  emit(Direction::kOutbound,
       packet::build_dns_packet(net_->events().now(), client, resolver,
                                query),
       app);

  const Duration rtt = Duration::millis(
      static_cast<std::int64_t>(5 + rng.below(40)));
  // Most answers are small; ~12% are DNSSEC/TXT-fattened responses of
  // up to ~1.4 KB, so benign DNS overlaps the low end of reflection
  // attack sizes (keeps detection honest).
  const std::size_t resp_size = rng.chance(0.12)
                                    ? 600 + rng.below(800)
                                    : 120 + rng.below(360);
  net_->events().schedule_in(
      rtt, [this, query, client, resolver, resp_size, &app] {
        const auto resp = packet::make_dns_response(query, 2, resp_size);
        emit(Direction::kInbound,
             packet::build_dns_packet(net_->events().now(), resolver,
                                      client, resp),
             app);
      });
}

void TrafficGenerator::dns_inbound_session(App& app) {
  auto& rng = app.rng;
  Endpoint querier{packet::MacAddress::from_id(0x00F00000u +
                                               static_cast<std::uint32_t>(
                                                   rng.below(4096))),
                   Topology::random_external_address(rng),
                   ephemeral_port(rng)};
  Endpoint server = net_->topology().dns_server().endpoint;
  server.port = 53;

  const auto id = static_cast<std::uint16_t>(rng.below(65536));
  const auto query = packet::make_dns_query(id, "www.campus.edu",
                                            DnsType::kA);
  emit(Direction::kInbound,
       packet::build_dns_packet(net_->events().now(), querier, server,
                                query),
       app);
  net_->events().schedule_in(
      Duration::micros(300), [this, query, querier, server, &app] {
        const auto resp = packet::make_dns_response(query, 1, 140);
        emit(Direction::kOutbound,
             packet::build_dns_packet(net_->events().now(), server, querier,
                                      resp),
             app);
      });
}

// ------------------------------------------------------------------ ssh

void TrafficGenerator::ssh_session(App& app) {
  auto& rng = app.rng;
  // Interactive session from an external address into the bastion.
  Endpoint client = Topology::external_host(
      4, static_cast<std::uint32_t>(rng.below(128)), 0);
  client.port = ephemeral_port(rng);
  Endpoint server = net_->topology().ssh_gateway().endpoint;
  server.port = 22;
  const Timestamp now = net_->events().now();

  emit(Direction::kInbound,
       PacketBuilder(now).tcp(client, server, TcpFlags::kSyn, 10).build(),
       app);
  emit(Direction::kOutbound,
       PacketBuilder(now)
           .tcp(server, client, TcpFlags::kSyn | TcpFlags::kAck, 20, 11)
           .build(),
       app);
  emit(Direction::kInbound,
       PacketBuilder(now).tcp(client, server, TcpFlags::kAck, 11, 21).build(),
       app);

  // Key exchange burst, then keystroke/echo pairs.
  const int keystrokes =
      static_cast<int>(std::min(rng.pareto(20.0, 1.3), 300.0));
  struct KeyState {
    Endpoint client, server;
    int remaining;
  };
  auto st = std::make_shared<KeyState>(KeyState{client, server, keystrokes});
  // Self-passing continuation (see scenario_emitters.cpp drive()) — no
  // cycle.
  auto step = [this, st, &app, &rng](auto self) -> void {
    if (st->remaining-- <= 0) {
      const Timestamp t = net_->events().now();
      emit(Direction::kInbound,
           PacketBuilder(t)
               .tcp(st->client, st->server, TcpFlags::kFin | TcpFlags::kAck,
                    500, 600)
               .build(),
           app);
      emit(Direction::kOutbound,
           PacketBuilder(t)
               .tcp(st->server, st->client, TcpFlags::kFin | TcpFlags::kAck,
                    600, 501)
               .build(),
           app);
      return;
    }
    const Timestamp t = net_->events().now();
    emit(Direction::kInbound,
         PacketBuilder(t)
             .tcp(st->client, st->server, TcpFlags::kAck | TcpFlags::kPsh,
                  500, 600)
             .payload_size(36 + rng.below(64))
             .build(),
         app);
    emit(Direction::kOutbound,
         PacketBuilder(t)
             .tcp(st->server, st->client, TcpFlags::kAck | TcpFlags::kPsh,
                  600, 500)
             .payload_size(36 + rng.below(128))
             .build(),
         app);
    net_->events().schedule_in(
        Duration::from_seconds(rng.exponential(0.6)),
        [self] { self(self); });
  };
  net_->events().schedule_in(Duration::millis(50), [step] { step(step); });
}

// ----------------------------------------------------------------- mail

void TrafficGenerator::mail_session(App& app) {
  auto& rng = app.rng;
  const bool inbound = rng.chance(0.6);
  Endpoint peer = Topology::external_host(
      3, static_cast<std::uint32_t>(rng.below(64)), inbound ? 0 : 25);
  if (inbound) peer.port = ephemeral_port(rng);
  Endpoint server = net_->topology().mail_server().endpoint;
  server.port = inbound ? 25 : ephemeral_port(rng);

  const auto message_bytes = static_cast<std::uint64_t>(
      std::min(rng.pareto(8e3, 1.3), 2e6));
  if (inbound) {
    transfer(app, peer, Direction::kInbound, server, message_bytes,
             rng.uniform(10e6, 80e6), Duration::millis(5));
  } else {
    transfer(app, server, Direction::kOutbound, peer, message_bytes,
             rng.uniform(10e6, 80e6), Duration::millis(5));
  }
}

// ----------------------------------------------------------------- bulk

void TrafficGenerator::bulk_session(App& app) {
  auto& rng = app.rng;
  Endpoint server = net_->topology().storage_server().endpoint;
  server.port = ephemeral_port(rng);
  const Endpoint mirror = Topology::external_host(
      5, static_cast<std::uint32_t>(rng.below(8)), 873);

  const auto total_bytes = static_cast<std::uint64_t>(
      std::min(rng.pareto(1e6, 1.1), 10e6));
  transfer(app, server, Direction::kOutbound, mirror, total_bytes,
           rng.uniform(100e6, 500e6), Duration::millis(10));
}

}  // namespace campuslab::sim
