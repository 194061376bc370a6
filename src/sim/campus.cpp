#include "campuslab/sim/campus.h"

#include <cmath>

namespace campuslab::sim {

namespace {
// Client subnets hang off a shared distribution/access link; the server
// DMZ is provisioned at border speed. 2 Gbps keeps the access link an
// order below the upstream so a volumetric attack visibly crowds out
// benign client traffic until the ingress filter removes it.
constexpr double kClientAccessGbps = 2.0;
constexpr std::size_t kClientAccessQueueBytes = 1'500'000;
}  // namespace

CampusNetwork::CampusNetwork(EventQueue& events, const CampusConfig& config)
    : events_(&events), config_(config), topology_(config),
      upstream_in_(config.upstream_gbps * 1e9, config.upstream_delay,
                   config.upstream_queue_bytes),
      upstream_out_(config.upstream_gbps * 1e9, config.upstream_delay,
                    config.upstream_queue_bytes),
      client_access_(kClientAccessGbps * 1e9, Duration::micros(200),
                     kClientAccessQueueBytes) {}

void CampusNetwork::inject(Direction dir, packet::Packet pkt) {
  const Timestamp now = events_->now();
  pkt.ts = now;
  if (auto* sc = scenario_slot(pkt)) {
    ++sc->offered;
    sc->bytes_offered += pkt.size();
  }
  if (dir == Direction::kOutbound) {
    accounting_.offered_out.count(pkt);
    const auto delivery = upstream_out_.transmit(pkt.size(), now);
    if (!delivery) {
      if (auto* sc = scenario_slot(pkt)) ++sc->lost;
      return;  // dropped in the border egress queue
    }
    events_->schedule_at(*delivery, [this, slot = park(std::move(pkt))] {
      auto pkt = unpark(slot);
      pkt.ts = events_->now();
      accounting_.delivered_out.count(pkt);
      if (auto* sc = scenario_slot(pkt)) {
        ++sc->tapped;
        ++sc->delivered;
      }
      if (tap_) tap_(pkt, Direction::kOutbound);
    });
    return;
  }

  accounting_.offered_in.count(pkt);
  const auto delivery = upstream_in_.transmit(pkt.size(), now);
  if (!delivery) {
    accounting_.lost_upstream.count(pkt);
    if (auto* sc = scenario_slot(pkt)) ++sc->lost;
    return;
  }
  events_->schedule_at(*delivery, [this, slot = park(std::move(pkt))] {
    auto pkt = unpark(slot);
    pkt.ts = events_->now();
    deliver_inbound(std::move(pkt));
  });
}

void CampusNetwork::deliver_inbound(packet::Packet pkt) {
  accounting_.tapped_in.count(pkt);
  if (auto* sc = scenario_slot(pkt)) ++sc->tapped;
  if (tap_) tap_(pkt, Direction::kInbound);

  if (filter_ && filter_(pkt)) {
    accounting_.filtered.count(pkt);
    if (auto* sc = scenario_slot(pkt)) ++sc->filtered;
    return;
  }

  // Client-subnet destinations share the access link; the DMZ does not.
  packet::PacketView view(pkt);
  bool to_client_subnet = false;
  if (view.valid() && view.is_ipv4()) {
    const auto dst = view.ipv4().dst;
    // Wired 10.x.16.0/20 and WiFi 10.x.32.0/19 per the address plan.
    const auto base = topology_.campus_prefix();
    to_client_subnet =
        dst.in_prefix(packet::Ipv4Address(base.value() | (16u << 8)), 20) ||
        dst.in_prefix(packet::Ipv4Address(base.value() | (32u << 8)), 19);
  }
  if (to_client_subnet) {
    const auto delivery = client_access_.transmit(pkt.size(),
                                                  events_->now());
    if (!delivery) {
      accounting_.lost_access.count(pkt);
      if (auto* sc = scenario_slot(pkt)) ++sc->lost;
      return;
    }
    events_->schedule_at(*delivery, [this, slot = park(std::move(pkt))] {
      const auto pkt = unpark(slot);
      accounting_.delivered.count(pkt);
      if (auto* sc = scenario_slot(pkt)) ++sc->delivered;
    });
    return;
  }
  accounting_.delivered.count(pkt);
  if (auto* sc = scenario_slot(pkt)) ++sc->delivered;
}

std::uint32_t CampusNetwork::park(packet::Packet pkt) {
  if (free_slots_.empty()) {
    in_flight_.push_back(std::move(pkt));
    return static_cast<std::uint32_t>(in_flight_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  in_flight_[slot] = std::move(pkt);
  return slot;
}

packet::Packet CampusNetwork::unpark(std::uint32_t slot) {
  packet::Packet pkt = std::move(in_flight_[slot]);
  free_slots_.push_back(slot);
  return pkt;
}

double CampusNetwork::diurnal_factor(Timestamp t) const noexcept {
  if (!config_.diurnal) return 1.0;
  const double hours =
      std::fmod(config_.day_phase_hours + t.to_seconds() / 3600.0, 24.0);
  // Gaussian bump peaking at 14:00 over a 20% overnight floor.
  const double d = hours - 14.0;
  // Wrap distance so 23:00 and 1:00 are both "3 hours from 2am trough".
  const double wrapped = d - 24.0 * std::round(d / 24.0);
  return 0.2 + 0.8 * std::exp(-(wrapped * wrapped) / (2.0 * 4.5 * 4.5));
}

}  // namespace campuslab::sim
