#include "campuslab/packet/builder.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "campuslab/packet/checksum.h"

namespace campuslab::packet {

namespace {

// payload_size() filler: byte i is 0xA5 ^ (i & 0xFF), so it repeats
// every 256 bytes and build() copies it from this one pattern.
constexpr std::array<std::uint8_t, 256> kFiller = [] {
  std::array<std::uint8_t, 256> p{};
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = static_cast<std::uint8_t>(0xA5 ^ i);
  return p;
}();

// kFillerSum[k]: RFC 1071 word sum of the pattern's first k bytes (an
// odd last byte counts as a high byte). 256 is even, so a filler that
// starts on a word boundary sums to whole patterns plus one prefix.
constexpr std::array<std::uint32_t, 257> kFillerSum = [] {
  std::array<std::uint32_t, 257> s{};
  for (std::size_t k = 1; k < s.size(); ++k) {
    const std::uint32_t byte = kFiller[k - 1];
    s[k] = s[k - 1] + (k % 2 == 1 ? byte << 8 : byte);
  }
  return s;
}();

// Any filler shorter than 65,536 bytes sums below 256 whole patterns.
static_assert(256 * std::uint64_t{kFillerSum[256]} <= 0xFFFFFFFFu);

std::uint32_t filler_sum(std::size_t n) {
  return static_cast<std::uint32_t>(n / kFiller.size()) * kFillerSum[256] +
         kFillerSum[n % kFiller.size()];
}

}  // namespace

PacketBuilder& PacketBuilder::tcp(const Endpoint& src, const Endpoint& dst,
                                  std::uint8_t flags, std::uint32_t seq,
                                  std::uint32_t ack) {
  src_ = src;
  dst_ = dst;
  l4_ = L4::kTcp;
  tcp_flags_ = flags;
  seq_ = seq;
  ack_ = ack;
  return *this;
}

PacketBuilder& PacketBuilder::udp(const Endpoint& src, const Endpoint& dst) {
  src_ = src;
  dst_ = dst;
  l4_ = L4::kUdp;
  return *this;
}

PacketBuilder& PacketBuilder::icmp(const Endpoint& src, const Endpoint& dst,
                                   std::uint8_t type, std::uint8_t code,
                                   std::uint32_t rest) {
  src_ = src;
  dst_ = dst;
  l4_ = L4::kIcmp;
  icmp_type_ = type;
  icmp_code_ = code;
  icmp_rest_ = rest;
  return *this;
}

PacketBuilder& PacketBuilder::payload(std::span<const std::uint8_t> data) {
  payload_ = data;
  filler_ = 0;
  return *this;
}

PacketBuilder& PacketBuilder::payload_size(std::size_t n) {
  payload_ = {};
  filler_ = n;
  return *this;
}

Packet PacketBuilder::build() const {
  assert(l4_ != L4::kNone && "call tcp()/udp()/icmp() before build()");

  // Every header goes through its encode() into one per-thread scratch
  // writer that keeps its capacity, so a build allocates nothing but
  // its pool buffer. The L4 header comes first: its size caps the
  // payload, and the payload length is in the IPv4 and UDP headers.
  thread_local ByteWriter headers(EthernetHeader::kSize +
                                  Ipv4Header::kMinSize +
                                  TcpHeader::kMinSize);
  headers.clear();
  IpProto proto = IpProto::kTcp;
  std::size_t checksum_at = 0;  // the checksum field, within the L4 header
  std::size_t payload_len = 0;
  const auto cap_payload = [&](std::size_t l4_header) {
    payload_len = std::min(payload_.size() + filler_, max_payload(l4_header));
  };
  switch (l4_) {
    case L4::kTcp: {
      proto = IpProto::kTcp;
      cap_payload(TcpHeader::kMinSize);
      TcpHeader t;
      t.src_port = src_.port;
      t.dst_port = dst_.port;
      t.seq = seq_;
      t.ack = ack_;
      t.flags = tcp_flags_;
      t.checksum = 0;
      t.encode(headers);
      checksum_at = 16;
      break;
    }
    case L4::kUdp: {
      proto = IpProto::kUdp;
      cap_payload(UdpHeader::kSize);
      UdpHeader u;
      u.src_port = src_.port;
      u.dst_port = dst_.port;
      u.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload_len);
      u.checksum = 0;
      u.encode(headers);
      checksum_at = 6;
      break;
    }
    case L4::kIcmp: {
      proto = IpProto::kIcmp;
      cap_payload(IcmpHeader::kSize);
      IcmpHeader ic;
      ic.type = icmp_type_;
      ic.code = icmp_code_;
      ic.rest = icmp_rest_;
      ic.checksum = 0;
      ic.encode(headers);
      checksum_at = 2;
      break;
    }
    case L4::kNone:
      break;
  }
  const std::size_t l4_header = headers.size();
  const std::size_t l4_length = l4_header + payload_len;

  Ipv4Header ip;
  ip.total_length =
      static_cast<std::uint16_t>(Ipv4Header::kMinSize + l4_length);
  // Deterministic but distinct identification per (flow, payload head).
  ip.identification = static_cast<std::uint16_t>(
      (src_.ip.value() ^ dst_.ip.value() ^ seq_) & 0xFFFF);
  ip.flags = 0x2;  // DF
  ip.ttl = ttl_;
  ip.protocol = static_cast<std::uint8_t>(proto);
  ip.src = src_.ip;
  ip.dst = dst_.ip;

  EthernetHeader eth;
  eth.dst = dst_.mac;
  eth.src = src_.mac;
  eth.ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  eth.encode(headers);
  ip.encode(headers);

  // One write of every byte, straight into the pool buffer.
  constexpr std::size_t l4_at = EthernetHeader::kSize + Ipv4Header::kMinSize;
  Packet pkt;
  pkt.ts = ts_;
  pkt.label = label_;
  pkt.scenario_id = scenario_id_;
  const auto out = pkt.assign_uninitialized(l4_at + l4_length);
  const auto encoded = headers.view();
  std::memcpy(out.data(), encoded.data() + l4_header, l4_at);
  std::memcpy(out.data() + l4_at, encoded.data(), l4_header);
  std::uint8_t* body = out.data() + l4_at + l4_header;
  const std::size_t explicit_len = std::min(payload_.size(), payload_len);
  if (explicit_len > 0) std::memcpy(body, payload_.data(), explicit_len);
  const std::size_t filler = payload_len - explicit_len;
  for (std::size_t i = 0; i < filler; i += kFiller.size())
    std::memcpy(body + i, kFiller.data(),
                std::min(kFiller.size(), filler - i));

  if (l4_header > 0) {
    // The checksum reads the headers and any explicit payload; the
    // filler's share comes from its table. Every L4 header has an even
    // length, so the filler starts on a word boundary. add_u32 adds the
    // share's two halves, which folds to the same one's-complement sum.
    auto acc = proto == IpProto::kIcmp
                   ? ChecksumAccumulator{}
                   : pseudo_header_sum(src_.ip, dst_.ip, proto, l4_length);
    acc.add(out.subspan(l4_at, l4_header + explicit_len));
    acc.add_u32(filler_sum(filler));
    const std::uint16_t sum = acc.finish();
    out[l4_at + checksum_at] = static_cast<std::uint8_t>(sum >> 8);
    out[l4_at + checksum_at + 1] = static_cast<std::uint8_t>(sum);
  }
  return pkt;
}

Packet build_dns_packet(Timestamp ts, const Endpoint& src,
                        const Endpoint& dst, const DnsMessage& msg,
                        TrafficLabel label) {
  return PacketBuilder(ts)
      .udp(src, dst)
      .payload(msg.serialize())
      .label(label)
      .build();
}

}  // namespace campuslab::packet
