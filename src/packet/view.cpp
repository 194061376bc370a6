#include "campuslab/packet/view.h"

#include <algorithm>
#include <cstring>

namespace campuslab::packet {

void Packet::assign(std::span<const std::uint8_t> frame) {
  if (buf_ && buf_.unique() && frame.size() <= buf_->capacity()) {
    // memmove: `frame` may alias this packet's own bytes.
    if (!frame.empty())
      std::memmove(buf_->data(), frame.data(), frame.size());
    buf_->set_size(static_cast<std::uint32_t>(frame.size()));
    return;
  }
  auto fresh = default_buffer_pool().acquire(frame.size());
  if (!frame.empty())
    std::memcpy(fresh->data(), frame.data(), frame.size());
  buf_ = std::move(fresh);
}

void Packet::assign(std::size_t n, std::uint8_t fill) {
  const auto out = assign_uninitialized(n);
  if (n > 0) std::memset(out.data(), fill, n);
}

std::span<std::uint8_t> Packet::assign_uninitialized(std::size_t n) {
  if (buf_ && buf_.unique() && n <= buf_->capacity()) {
    buf_->set_size(static_cast<std::uint32_t>(n));
  } else {
    buf_ = default_buffer_pool().acquire(n);
  }
  return {buf_->data(), n};
}

void Packet::resize(std::size_t n) {
  if (buf_ && buf_.unique() && n <= buf_->capacity()) {
    const std::size_t old = buf_->size();
    if (n > old) std::memset(buf_->data() + old, 0, n - old);
    buf_->set_size(static_cast<std::uint32_t>(n));
    return;
  }
  const std::size_t keep = std::min(size(), n);
  auto fresh = default_buffer_pool().acquire(n);
  if (keep > 0) std::memcpy(fresh->data(), buf_->data(), keep);
  if (n > keep) std::memset(fresh->data() + keep, 0, n - keep);
  buf_ = std::move(fresh);
}

std::span<std::uint8_t> Packet::mutable_bytes() {
  if (!buf_) return {};
  if (!buf_.unique()) {
    auto fresh = default_buffer_pool().acquire(buf_->size());
    std::memcpy(fresh->data(), buf_->data(), buf_->size());
    buf_ = std::move(fresh);
  }
  return {buf_->data(), buf_->size()};
}

PacketView::PacketView(std::span<const std::uint8_t> frame) : frame_(frame) {
  ByteReader r(frame);
  eth_ = EthernetHeader::decode(r);
  if (!r.ok()) return;

  if (eth_.ether_type == static_cast<std::uint16_t>(EtherType::kIpv4)) {
    ipv4_ = Ipv4Header::decode(r);
    if (!r.ok() || ipv4_.version != 4 || ipv4_.ihl < 5) return;
    has_ipv4_ = true;
  } else if (eth_.ether_type ==
             static_cast<std::uint16_t>(EtherType::kIpv6)) {
    ipv6_ = Ipv6Header::decode(r);
    if (!r.ok()) return;
    has_ipv6_ = true;
  } else {
    return;  // ARP etc.: L2-only view
  }

  const std::uint8_t proto =
      has_ipv4_ ? ipv4_.protocol : ipv6_.next_header;
  switch (static_cast<IpProto>(proto)) {
    case IpProto::kTcp:
      tcp_ = TcpHeader::decode(r);
      if (!r.ok() || tcp_.data_offset < 5) return;
      has_tcp_ = true;
      break;
    case IpProto::kUdp:
      udp_ = UdpHeader::decode(r);
      if (!r.ok()) return;
      has_udp_ = true;
      break;
    case IpProto::kIcmp:
      icmp_ = IcmpHeader::decode(r);
      if (!r.ok()) return;
      has_icmp_ = true;
      break;
    default:
      break;  // unknown transport: view stops at L3
  }
  payload_ = r.rest();

  // Clamp payload to the IP total length so Ethernet padding is not
  // mistaken for application data.
  if (has_ipv4_) {
    const std::size_t ip_payload =
        ipv4_.total_length >= ipv4_.header_bytes()
            ? ipv4_.total_length - ipv4_.header_bytes()
            : 0;
    std::size_t l4 = 0;
    if (has_tcp_) l4 = tcp_.header_bytes();
    else if (has_udp_) l4 = UdpHeader::kSize;
    else if (has_icmp_) l4 = IcmpHeader::kSize;
    const std::size_t app = ip_payload >= l4 ? ip_payload - l4 : 0;
    if (payload_.size() > app) payload_ = payload_.first(app);
  }
  valid_ = true;
}

std::optional<FiveTuple> PacketView::five_tuple() const noexcept {
  if (!has_ipv4_) return std::nullopt;
  FiveTuple t;
  t.src = ipv4_.src;
  t.dst = ipv4_.dst;
  t.proto = ipv4_.protocol;
  if (has_tcp_) {
    t.src_port = tcp_.src_port;
    t.dst_port = tcp_.dst_port;
  } else if (has_udp_) {
    t.src_port = udp_.src_port;
    t.dst_port = udp_.dst_port;
  }
  return t;
}

bool PacketView::is_dns() const noexcept {
  return has_udp_ &&
         (udp_.src_port == DnsMessage::kPort ||
          udp_.dst_port == DnsMessage::kPort);
}

}  // namespace campuslab::packet
