// CampusNetwork — the border of the simulated campus.
//
// Every simulated packet crosses the campus border exactly once, in one
// of two directions. The border is where the paper's whole proposal
// lives: the capture tap that feeds the data store sits on the upstream
// wire, and the deployable model's mitigation filter runs at ingress
// ("drop attack traffic on ingress if confidence ... at least 90%").
//
// Inbound path:  internet --[upstream link]--> TAP --> INGRESS FILTER
//                 --> (client subnets via access link | server DMZ)
// Outbound path: campus --[upstream link]--> TAP --> internet
//
// The tap observes everything that survives the upstream wire (a flood
// that overflows the provider-side queue is lost before any local
// equipment can see it — faithfully modelling why upstream saturation
// cannot be fixed at the campus border). Per-label delivery accounting
// at each stage is the ground truth that road-test reports are scored
// against.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "campuslab/packet/view.h"
#include "campuslab/sim/event_queue.h"
#include "campuslab/sim/link.h"
#include "campuslab/sim/topology.h"
#include "campuslab/util/rng.h"

namespace campuslab::sim {

enum class Direction : std::uint8_t { kInbound, kOutbound };

/// Per-label frame/byte counters for one pipeline stage.
struct StageCounters {
  std::array<std::uint64_t, packet::kTrafficLabelCount> frames{};
  std::array<std::uint64_t, packet::kTrafficLabelCount> bytes{};

  void count(const packet::Packet& p) noexcept {
    const auto i = static_cast<std::size_t>(p.label);
    ++frames[i];
    bytes[i] += p.size();
  }
  std::uint64_t total_frames() const noexcept {
    std::uint64_t t = 0;
    for (auto f : frames) t += f;
    return t;
  }
  std::uint64_t attack_frames() const noexcept {
    return total_frames() - frames[0];
  }
  std::uint64_t benign_frames() const noexcept { return frames[0]; }
};

/// End-to-end accounting across the inbound pipeline stages.
struct DeliveryAccounting {
  StageCounters offered_in;       // injected toward the campus
  StageCounters lost_upstream;    // dropped in the provider-side queue
  StageCounters tapped_in;        // seen by the capture tap (inbound)
  StageCounters filtered;         // dropped by the deployed ingress filter
  StageCounters lost_access;      // dropped on the internal access link
  StageCounters delivered;        // reached the campus destination
  StageCounters offered_out;      // injected toward the internet
  StageCounters delivered_out;    // made it onto the upstream wire
};

/// Frame/byte fates for one scenario instance (frames stamped with a
/// nonzero scenario_id). Direction-agnostic: "delivered" means the
/// frame reached its destination side of the border.
struct ScenarioCounters {
  std::uint64_t offered = 0;
  std::uint64_t tapped = 0;
  std::uint64_t filtered = 0;
  std::uint64_t lost = 0;       // upstream / egress / access-link drops
  std::uint64_t delivered = 0;
  std::uint64_t bytes_offered = 0;
};

class CampusNetwork {
 public:
  /// Tap callback: every packet on the border wire, with its direction.
  using Tap = std::function<void(const packet::Packet&, Direction)>;
  /// Ingress filter: return true to DROP the packet at the border.
  using IngressFilter = std::function<bool(const packet::Packet&)>;

  CampusNetwork(EventQueue& events, const CampusConfig& config);

  EventQueue& events() noexcept { return *events_; }
  const Topology& topology() const noexcept { return topology_; }
  const CampusConfig& config() const noexcept { return config_; }

  /// Offer a packet to the border at the current simulation time.
  /// Ownership moves into the network; delivery (tap, filter, final
  /// destination) happens via scheduled events.
  void inject(Direction dir, packet::Packet pkt);

  void set_tap(Tap tap) { tap_ = std::move(tap); }
  void set_ingress_filter(IngressFilter f) { filter_ = std::move(f); }
  void clear_ingress_filter() { filter_ = nullptr; }

  const DeliveryAccounting& accounting() const noexcept {
    return accounting_;
  }
  /// Per-scenario-instance fates, keyed by scenario_id (ordered, so
  /// reports iterate deterministically). Frames with scenario_id 0
  /// (background traffic) are not tracked here.
  const std::map<std::uint32_t, ScenarioCounters>& scenario_accounting()
      const noexcept {
    return scenario_accounting_;
  }
  const Link& upstream_in() const noexcept { return upstream_in_; }
  const Link& upstream_out() const noexcept { return upstream_out_; }
  const Link& client_access() const noexcept { return client_access_; }

  /// Emulate an upstream-provider problem (performance diagnosis
  /// scenario): extra one-way delay on the inbound wire.
  void set_upstream_extra_delay(Duration d) {
    upstream_in_.set_extra_delay(d);
  }

  /// Load multiplier in [~0.2, 1] for the time of day at `t`
  /// (peaks mid-afternoon); 1.0 when the config disables diurnal shape.
  double diurnal_factor(Timestamp t) const noexcept;

 private:
  void deliver_inbound(packet::Packet pkt);
  /// Holds a frame in the slot table until its delivery event fires.
  /// The event captures only `this` and the slot index: 16 trivially
  /// copyable bytes, which std::function stores without allocating.
  std::uint32_t park(packet::Packet pkt);
  /// Takes the frame out of its slot and frees the slot.
  packet::Packet unpark(std::uint32_t slot);
  ScenarioCounters* scenario_slot(const packet::Packet& pkt) {
    if (pkt.scenario_id == 0) return nullptr;
    return &scenario_accounting_[pkt.scenario_id];
  }

  EventQueue* events_;
  CampusConfig config_;
  Topology topology_;
  Link upstream_in_;
  Link upstream_out_;
  Link client_access_;
  Tap tap_;
  IngressFilter filter_;
  DeliveryAccounting accounting_;
  std::map<std::uint32_t, ScenarioCounters> scenario_accounting_;
  std::vector<packet::Packet> in_flight_;  // frames on a link, by slot
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace campuslab::sim
