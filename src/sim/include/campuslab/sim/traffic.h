// Application traffic generators — the campus's benign workload.
//
// Sessions arrive per application as Poisson processes (modulated by the
// diurnal curve) and unroll into real wire-format packet exchanges:
// handshakes, requests, paced data transfers with ACK clocking, and
// teardown. Six application families cover the mix the paper attributes
// to a campus ("a range of actual applications and services"):
//
//   web        campus clients fetching from CDNs (outbound-originated)
//   web_in     the Internet fetching from the campus web server
//   video      streaming into campus (the volumetric heavyweight)
//   dns        client lookups to public resolvers + inbound queries to
//              the campus authoritative server
//   ssh        interactive remote sessions through the bastion
//   mail       SMTP in and out of the campus mail server
//   bulk       research-data / backup transfers from the storage server
//
// All generated packets are labelled kBenign; attack scenarios
// (scenario.h) are the only source of other labels.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "campuslab/sim/campus.h"

namespace campuslab::sim {

/// Campus-wide session arrival rates (sessions/second at peak load,
/// before load_scale and diurnal modulation).
struct AppRates {
  double web = 20.0;
  double web_in = 10.0;
  double video = 0.10;
  double dns = 25.0;
  double dns_in = 8.0;
  double ssh = 0.5;
  double mail = 2.0;
  double bulk = 0.05;
};

/// Per-application counters.
struct TrafficStats {
  std::uint64_t sessions = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  /// Packets an injected sim.emit fault suppressed at the source —
  /// chaos runs model flaky senders without touching capture
  /// accounting (a never-sent packet is never offered).
  std::uint64_t faulted_packets = 0;
};

class TrafficGenerator {
 public:
  /// The generator must outlive the event queue run; its arrival and
  /// session loops capture `this`.
  TrafficGenerator(CampusNetwork& net, AppRates rates, std::uint64_t seed);

  /// Arm the arrival processes. Call once, before running the queue.
  void start();

  /// Stop scheduling new sessions (already-scheduled packets still fire).
  void stop() noexcept { stopped_ = true; }

  const TrafficStats& stats(const std::string& app) const;
  std::uint64_t total_packets() const noexcept;

 private:
  struct App {
    std::string name;
    double rate;  // sessions/s at peak
    std::function<void()> spawn;
    Rng rng;
    TrafficStats stats;
  };

  void arm(App& app);
  void emit(Direction dir, packet::Packet pkt, App& app);

  // Session bodies.
  void web_session(App& app);
  void web_inbound_session(App& app);
  void video_session(App& app);
  void dns_session(App& app);
  void dns_inbound_session(App& app);
  void ssh_session(App& app);
  void mail_session(App& app);
  void bulk_session(App& app);

  /// Schedule a paced TCP payload transfer from `sender` to `receiver`,
  /// with ACK clocking in the reverse direction and FIN teardown.
  /// `sender_dir` is the border direction of the sender's packets.
  void transfer(App& app, packet::Endpoint sender, Direction sender_dir,
                packet::Endpoint receiver, std::uint64_t payload_bytes,
                double pace_bps, Duration start_after);

  CampusNetwork* net_;
  AppRates rates_;
  Rng rng_;
  std::array<App, 8> apps_;
  bool stopped_ = false;
};

}  // namespace campuslab::sim
