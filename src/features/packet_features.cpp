#include "campuslab/features/packet_features.h"

namespace campuslab::features {

const std::vector<std::string>& packet_feature_names() {
  static const std::vector<std::string> kNames = {
      "is_udp",          "is_tcp",         "frame_bytes",
      "payload_bytes",   "src_port",       "dst_port",
      "src_port_is_dns", "tcp_syn_no_ack", "dst_inbound_pps",
      "dst_inbound_bps", "dst_distinct_srcs", "src_fanout",
  };
  static_assert(kPacketFeatureCount == 12);
  return kNames;
}

bool is_register_feature(PacketFeature f) noexcept {
  switch (f) {
    case PacketFeature::kDstInboundPps:
    case PacketFeature::kDstInboundBps:
    case PacketFeature::kDstDistinctSrcs:
    case PacketFeature::kSrcFanout:
      return true;
    default:
      return false;
  }
}

std::vector<bool> register_mask_for(
    const std::vector<std::string>& feature_names) {
  std::vector<bool> mask(feature_names.size(), false);
  if (feature_names == packet_feature_names()) {
    for (std::size_t f = 0; f < mask.size(); ++f)
      mask[f] = is_register_feature(static_cast<PacketFeature>(f));
  }
  return mask;
}

StatefulFeatureExtractor::StatefulFeatureExtractor(
    PacketFeatureConfig config)
    : config_(config) {}

void StatefulFeatureExtractor::reset() {
  dst_state_.clear();
  src_state_.clear();
  window_start_ = Timestamp{};
}

void StatefulFeatureExtractor::maybe_roll_window(Timestamp now) {
  if (now - window_start_ < config_.sketch_window) return;
  for (auto& [ip, state] : dst_state_) state.srcs.reset();
  for (auto& [ip, state] : src_state_) state.dsts.reset();
  window_start_ = now;
}

template <typename Map>
void StatefulFeatureExtractor::evict_if_needed(Map& map) {
  if (map.size() < config_.max_tracked_hosts) return;
  auto victim = map.begin();
  for (auto it = map.begin(); it != map.end(); ++it)
    if (it->second.last_touch < victim->second.last_touch) victim = it;
  map.erase(victim);
}

std::vector<double> StatefulFeatureExtractor::extract(
    const packet::Packet& pkt, const packet::PacketView& view,
    sim::Direction dir) {
  if (!view.valid() || !view.is_ipv4()) return {};
  const auto tuple = *view.five_tuple();
  const Timestamp now = pkt.ts;
  maybe_roll_window(now);

  std::vector<double> x(kPacketFeatureCount, 0.0);
  auto set = [&x](PacketFeature id, double v) {
    x[static_cast<std::size_t>(id)] = v;
  };
  set(PacketFeature::kIsUdp, view.is_udp() ? 1.0 : 0.0);
  set(PacketFeature::kIsTcp, view.is_tcp() ? 1.0 : 0.0);
  set(PacketFeature::kFrameBytes, static_cast<double>(pkt.size()));
  set(PacketFeature::kPayloadBytes,
      static_cast<double>(view.payload().size()));
  set(PacketFeature::kSrcPort, tuple.src_port);
  set(PacketFeature::kDstPort, tuple.dst_port);
  set(PacketFeature::kSrcPortIsDns, tuple.src_port == 53 ? 1.0 : 0.0);
  set(PacketFeature::kTcpSynNoAck,
      view.is_tcp() && view.tcp().syn() && !view.tcp().ack_flag() ? 1.0
                                                                  : 0.0);

  // Register state is maintained for the inbound direction — that is
  // the side the ingress pipeline owns registers for.
  if (dir == sim::Direction::kInbound) {
    auto dst_it = dst_state_.find(tuple.dst.value());
    if (dst_it == dst_state_.end()) {
      evict_if_needed(dst_state_);
      dst_it = dst_state_
                   .emplace(tuple.dst.value(),
                            DstState{EwmaRate(config_.rate_tau),
                                     EwmaRate(config_.rate_tau),
                                     BitmapDistinct{}, now})
                   .first;
    }
    auto& dst = dst_it->second;
    dst.pps.update(now, 1.0);
    dst.bps.update(now, static_cast<double>(pkt.size()));
    dst.srcs.add(tuple.src.value());
    dst.last_touch = now;
    set(PacketFeature::kDstInboundPps, dst.pps.rate_at(now));
    set(PacketFeature::kDstInboundBps, dst.bps.rate_at(now));
    set(PacketFeature::kDstDistinctSrcs, dst.srcs.estimate());

    auto src_it = src_state_.find(tuple.src.value());
    if (src_it == src_state_.end()) {
      evict_if_needed(src_state_);
      src_it = src_state_
                   .emplace(tuple.src.value(),
                            SrcState{BitmapDistinct{}, now})
                   .first;
    }
    auto& src = src_it->second;
    src.dsts.add(tuple.dst.value());
    src.last_touch = now;
    set(PacketFeature::kSrcFanout, src.dsts.estimate());
  }
  return x;
}

}  // namespace campuslab::features
