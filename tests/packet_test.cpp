// Unit + property tests for campuslab::packet — addresses, checksums,
// header encode/decode round-trips, DNS (including compression pointers
// and malformed-input rejection), PacketBuilder frames, and PacketView
// layered decoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "campuslab/packet/addr.h"
#include "campuslab/packet/builder.h"
#include "campuslab/packet/checksum.h"
#include "campuslab/packet/dns.h"
#include "campuslab/packet/headers.h"
#include "campuslab/packet/view.h"
#include "campuslab/util/rng.h"

namespace campuslab::packet {
namespace {

Endpoint make_ep(std::uint32_t id, Ipv4Address ip, std::uint16_t port) {
  return Endpoint{MacAddress::from_id(id), ip, port};
}

// Reference RFC 1071 sum, two bytes per step, an odd last byte as a
// high byte: ChecksumAccumulator sums 32-bit words and must agree.
std::uint16_t reference_checksum(std::span<const std::uint8_t> data) {
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2)
    sum += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i]) << 8;
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

// ------------------------------------------------------------- Addresses

TEST(Ipv4Address, ParseAndFormatRoundTrip) {
  const auto a = Ipv4Address::parse("10.1.2.3");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "10.1.2.3");
  EXPECT_EQ(a->value(), 0x0A010203u);
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse("10.1.2").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.256").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.3.4").has_value());
  EXPECT_FALSE(Ipv4Address::parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4Address::parse("").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10..2.3").has_value());
}

TEST(Ipv4Address, PrefixMembership) {
  const Ipv4Address net(10, 2, 0, 0);
  EXPECT_TRUE(Ipv4Address(10, 2, 3, 4).in_prefix(net, 16));
  EXPECT_FALSE(Ipv4Address(10, 3, 0, 1).in_prefix(net, 16));
  EXPECT_TRUE(Ipv4Address(192, 168, 1, 1).in_prefix(net, 0));
  const Ipv4Address host(10, 2, 3, 4);
  EXPECT_TRUE(host.in_prefix(host, 32));
  EXPECT_FALSE(Ipv4Address(10, 2, 3, 5).in_prefix(host, 32));
}

TEST(MacAddress, FromIdStableAndLocal) {
  const auto m = MacAddress::from_id(0x01020304);
  EXPECT_EQ(m, MacAddress::from_id(0x01020304));
  EXPECT_EQ(m.octets()[0] & 0x02, 0x02);  // locally administered
  EXPECT_EQ(m.octets()[0] & 0x01, 0x00);  // unicast
  EXPECT_EQ(m.to_string(), "02:c1:01:02:03:04");
}

TEST(FiveTuple, ReversedSwapsEndpoints) {
  const FiveTuple t{Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1000,
                    53, 17};
  const auto r = t.reversed();
  EXPECT_EQ(r.src, t.dst);
  EXPECT_EQ(r.src_port, t.dst_port);
  EXPECT_EQ(r.reversed(), t);
}

TEST(FiveTuple, BidirectionalCanonical) {
  const FiveTuple t{Ipv4Address(9, 9, 9, 9), Ipv4Address(2, 2, 2, 2), 1000,
                    53, 17};
  EXPECT_EQ(t.bidirectional(), t.reversed().bidirectional());
}

TEST(FiveTuple, HashSpreads) {
  // Property: nearby tuples hash to distinct values.
  std::set<std::uint64_t> hashes;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    FiveTuple t{Ipv4Address(0x0A000000 + i), Ipv4Address(2, 2, 2, 2),
                static_cast<std::uint16_t>(1024 + i), 80, 6};
    hashes.insert(t.hash());
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

// -------------------------------------------------------------- Checksum

TEST(Checksum, Rfc1071Example) {
  // Classic example from RFC 1071 §3.
  const std::array<std::uint8_t, 8> data{0x00, 0x01, 0xf2, 0x03,
                                         0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xddf2));
}

TEST(Checksum, OddLength) {
  const std::array<std::uint8_t, 3> data{0x01, 0x02, 0x03};
  // 0x0102 + 0x0300 = 0x0402 -> ~ = 0xFBFD
  EXPECT_EQ(internet_checksum(data), 0xFBFD);
}

TEST(Checksum, ChunkedEqualsWhole) {
  Rng rng(5);
  std::vector<std::uint8_t> data(257);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  ChecksumAccumulator chunked;
  chunked.add(std::span(data).first(101));
  chunked.add(std::span(data).subspan(101, 55));
  chunked.add(std::span(data).subspan(156));
  EXPECT_EQ(chunked.finish(), internet_checksum(data));
}

// Property: feeding a buffer in random chunks (odd lengths, empty ones)
// gives the two-bytes-per-step sum of the whole buffer, including the
// edge sums of all-zero and all-0xFF data.
TEST(Checksum, WordSumMatchesByteSumOnRandomChunks) {
  Rng rng(1071);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> data(rng.below(1500));
    const auto kind = rng.below(4);
    for (auto& b : data)
      b = kind == 0   ? 0x00
          : kind == 1 ? 0xFF
                      : static_cast<std::uint8_t>(rng.next());
    ChecksumAccumulator chunked;
    std::size_t at = 0;
    while (at < data.size()) {
      const std::size_t n = std::min<std::size_t>(rng.below(38),
                                                  data.size() - at);
      chunked.add(std::span(data).subspan(at, n));
      at += n;
    }
    ASSERT_EQ(chunked.finish(), reference_checksum(data))
        << "trial " << trial << ", " << data.size() << " bytes";
    ASSERT_EQ(internet_checksum(data), reference_checksum(data))
        << "trial " << trial << ", " << data.size() << " bytes";
  }
}

TEST(Checksum, VerifyingCorrectPacketYieldsZero) {
  // A buffer with its own checksum embedded sums to 0xFFFF -> finish 0.
  Ipv4Header ip;
  ip.total_length = 40;
  ip.protocol = 6;
  ip.src = Ipv4Address(10, 0, 0, 1);
  ip.dst = Ipv4Address(10, 0, 0, 2);
  ByteWriter w;
  ip.encode(w);
  EXPECT_EQ(internet_checksum(w.view()), 0);
}

// ---------------------------------------------------------------- Headers

TEST(Headers, EthernetRoundTrip) {
  EthernetHeader h;
  h.dst = MacAddress::from_id(7);
  h.src = MacAddress::from_id(9);
  h.ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  ByteWriter w;
  h.encode(w);
  EXPECT_EQ(w.size(), EthernetHeader::kSize);
  ByteReader r(w.view());
  const auto d = EthernetHeader::decode(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(d.dst, h.dst);
  EXPECT_EQ(d.src, h.src);
  EXPECT_EQ(d.ether_type, h.ether_type);
}

TEST(Headers, Ipv4RoundTrip) {
  Ipv4Header h;
  h.dscp_ecn = 0x2E;
  h.total_length = 1500;
  h.identification = 0xBEEF;
  h.flags = 0x2;
  h.ttl = 17;
  h.protocol = 17;
  h.src = Ipv4Address(172, 16, 5, 9);
  h.dst = Ipv4Address(8, 8, 8, 8);
  ByteWriter w;
  h.encode(w);
  ByteReader r(w.view());
  const auto d = Ipv4Header::decode(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(d.version, 4);
  EXPECT_EQ(d.ihl, 5);
  EXPECT_EQ(d.dscp_ecn, h.dscp_ecn);
  EXPECT_EQ(d.total_length, h.total_length);
  EXPECT_EQ(d.identification, h.identification);
  EXPECT_EQ(d.flags, h.flags);
  EXPECT_EQ(d.ttl, h.ttl);
  EXPECT_EQ(d.protocol, h.protocol);
  EXPECT_EQ(d.src, h.src);
  EXPECT_EQ(d.dst, h.dst);
  EXPECT_EQ(d.header_checksum, d.compute_checksum());
}

TEST(Headers, Ipv6RoundTrip) {
  Ipv6Header h;
  h.traffic_class = 0xAB;
  h.flow_label = 0x12345;
  h.payload_length = 333;
  h.next_header = 6;
  h.hop_limit = 55;
  std::array<std::uint8_t, 16> src{};
  src[0] = 0x20;
  src[15] = 0x01;
  h.src = Ipv6Address(src);
  ByteWriter w;
  h.encode(w);
  EXPECT_EQ(w.size(), Ipv6Header::kSize);
  ByteReader r(w.view());
  const auto d = Ipv6Header::decode(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(d.traffic_class, h.traffic_class);
  EXPECT_EQ(d.flow_label, h.flow_label);
  EXPECT_EQ(d.payload_length, h.payload_length);
  EXPECT_EQ(d.next_header, h.next_header);
  EXPECT_EQ(d.hop_limit, h.hop_limit);
  EXPECT_EQ(d.src, h.src);
}

TEST(Headers, TcpRoundTripAndFlags) {
  TcpHeader h;
  h.src_port = 443;
  h.dst_port = 51515;
  h.seq = 0xCAFEBABE;
  h.ack = 0x10203040;
  h.flags = TcpFlags::kSyn | TcpFlags::kAck;
  h.window = 29200;
  ByteWriter w;
  h.encode(w);
  ByteReader r(w.view());
  const auto d = TcpHeader::decode(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(d.src_port, h.src_port);
  EXPECT_EQ(d.seq, h.seq);
  EXPECT_EQ(d.ack, h.ack);
  EXPECT_TRUE(d.syn());
  EXPECT_TRUE(d.ack_flag());
  EXPECT_FALSE(d.fin());
  EXPECT_FALSE(d.rst());
  EXPECT_EQ(d.window, h.window);
}

TEST(Headers, UdpIcmpRoundTrip) {
  UdpHeader u;
  u.src_port = 5353;
  u.dst_port = 53;
  u.length = 128;
  ByteWriter wu;
  u.encode(wu);
  ByteReader ru(wu.view());
  const auto du = UdpHeader::decode(ru);
  EXPECT_EQ(du.src_port, 5353);
  EXPECT_EQ(du.length, 128);

  IcmpHeader ic;
  ic.type = IcmpHeader::kEchoRequest;
  ic.rest = 0x00010002;
  ByteWriter wi;
  ic.encode(wi);
  ByteReader ri(wi.view());
  const auto di = IcmpHeader::decode(ri);
  EXPECT_EQ(di.type, IcmpHeader::kEchoRequest);
  EXPECT_EQ(di.rest, 0x00010002u);
}

TEST(Headers, DecodeTruncatedFails) {
  const std::array<std::uint8_t, 10> tiny{};
  ByteReader r(tiny);
  (void)Ipv4Header::decode(r);
  EXPECT_FALSE(r.ok());
}

// -------------------------------------------------------------------- DNS

TEST(Dns, QueryRoundTrip) {
  const auto q = make_dns_query(0x1234, "www.example.edu", DnsType::kAny);
  const auto bytes = q.serialize();
  const auto parsed = DnsMessage::parse(bytes);
  ASSERT_TRUE(parsed.ok());
  const auto& m = parsed.value();
  EXPECT_EQ(m.id, 0x1234);
  EXPECT_FALSE(m.is_response);
  EXPECT_TRUE(m.recursion_desired);
  ASSERT_EQ(m.questions.size(), 1u);
  EXPECT_EQ(m.questions[0].name, "www.example.edu");
  EXPECT_EQ(m.questions[0].qtype, static_cast<std::uint16_t>(DnsType::kAny));
}

TEST(Dns, ResponseRoundTripPreservesAnswers) {
  const auto q = make_dns_query(7, "big.example.edu", DnsType::kTxt);
  const auto resp = make_dns_response(q, 4, 1200);
  const auto bytes = resp.serialize();
  const auto parsed = DnsMessage::parse(bytes);
  ASSERT_TRUE(parsed.ok());
  const auto& m = parsed.value();
  EXPECT_TRUE(m.is_response);
  EXPECT_EQ(m.id, 7);
  EXPECT_EQ(m.answers.size(), 4u);
  for (const auto& a : m.answers)
    EXPECT_EQ(a.name, "big.example.edu");
}

TEST(Dns, ResponseApproachesTargetSize) {
  const auto q = make_dns_query(7, "amp.example.edu", DnsType::kAny);
  for (std::size_t target : {300u, 1200u, 3000u}) {
    const auto resp = make_dns_response(q, 3, target);
    const auto size = resp.serialize().size();
    EXPECT_NEAR(static_cast<double>(size), static_cast<double>(target),
                static_cast<double>(target) * 0.05 + 16.0);
  }
}

TEST(Dns, AmplificationFactorIsLarge) {
  const auto q = make_dns_query(1, "amp.example.edu", DnsType::kAny);
  const auto query_size = q.serialize().size();
  const auto resp = make_dns_response(q, 8, 3000);
  const auto resp_size = resp.serialize().size();
  EXPECT_GT(resp_size, query_size * 20);  // the attack's raison d'etre
}

TEST(Dns, CompressionPointerDecoded) {
  // Hand-built message: one question "ab.cd", one answer whose name is a
  // pointer back to the question name at offset 12.
  ByteWriter w;
  w.u16(0x99);   // id
  w.u16(0x8180); // response flags
  w.u16(1);      // qdcount
  w.u16(1);      // ancount
  w.u16(0);
  w.u16(0);
  // question name "ab.cd" at offset 12
  w.u8(2); w.u8('a'); w.u8('b');
  w.u8(2); w.u8('c'); w.u8('d');
  w.u8(0);
  w.u16(1);  // qtype A
  w.u16(1);  // qclass IN
  // answer with compressed name -> pointer to offset 12
  w.u8(0xC0); w.u8(12);
  w.u16(1);   // type A
  w.u16(1);   // class
  w.u32(60);  // ttl
  w.u16(4);   // rdlength
  w.u32(0x01020304);
  const auto parsed = DnsMessage::parse(w.view());
  ASSERT_TRUE(parsed.ok());
  const auto& m = parsed.value();
  ASSERT_EQ(m.answers.size(), 1u);
  EXPECT_EQ(m.answers[0].name, "ab.cd");
  EXPECT_EQ(m.answers[0].ttl, 60u);
  ASSERT_EQ(m.answers[0].rdata.size(), 4u);
  EXPECT_EQ(m.answers[0].rdata[0], 1);
}

TEST(Dns, PointerLoopRejected) {
  ByteWriter w;
  w.u16(0x99);
  w.u16(0x0100);
  w.u16(1);
  w.u16(0);
  w.u16(0);
  w.u16(0);
  // name is a pointer to itself
  w.u8(0xC0); w.u8(12);
  w.u16(1);
  w.u16(1);
  const auto parsed = DnsMessage::parse(w.view());
  EXPECT_FALSE(parsed.ok());
}

TEST(Dns, TruncatedHeaderRejected) {
  const std::array<std::uint8_t, 5> tiny{};
  EXPECT_FALSE(DnsMessage::parse(tiny).ok());
}

TEST(Dns, TruncatedRecordRejected) {
  const auto q = make_dns_query(7, "x.example.edu", DnsType::kA);
  auto bytes = make_dns_response(q, 2, 400).serialize();
  bytes.resize(bytes.size() - 10);  // cut into the last record
  EXPECT_FALSE(DnsMessage::parse(bytes).ok());
}

TEST(Dns, NamesAreCaseFolded) {
  auto q = make_dns_query(7, "MiXeD.Example.EDU", DnsType::kA);
  const auto bytes = q.serialize();
  const auto parsed = DnsMessage::parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().questions[0].name, "mixed.example.edu");
}

// ----------------------------------------------------- Builder + View

TEST(Builder, TcpFrameDecodesCleanly) {
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 50123);
  const auto dst = make_ep(2, Ipv4Address(93, 184, 216, 34), 443);
  const auto pkt = PacketBuilder(Timestamp::from_seconds(1.5))
                       .tcp(src, dst, TcpFlags::kSyn, 1000, 0)
                       .build();
  PacketView v(pkt);
  ASSERT_TRUE(v.valid());
  ASSERT_TRUE(v.is_ipv4());
  ASSERT_TRUE(v.is_tcp());
  EXPECT_EQ(v.ipv4().src, src.ip);
  EXPECT_EQ(v.ipv4().dst, dst.ip);
  EXPECT_TRUE(v.tcp().syn());
  EXPECT_FALSE(v.tcp().ack_flag());
  EXPECT_EQ(v.tcp().seq, 1000u);
  const auto t = v.five_tuple();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->src_port, 50123);
  EXPECT_EQ(t->dst_port, 443);
  EXPECT_EQ(t->proto, 6);
  EXPECT_TRUE(v.payload().empty());
}

TEST(Builder, Ipv4ChecksumValidOnWire) {
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 1234);
  const auto dst = make_ep(2, Ipv4Address(10, 0, 2, 6), 80);
  const auto pkt = PacketBuilder(Timestamp{})
                       .tcp(src, dst, TcpFlags::kAck)
                       .payload_size(100)
                       .build();
  // IPv4 header starts after Ethernet; checksum over it must verify to 0.
  const auto ip_header =
      pkt.bytes().subspan(EthernetHeader::kSize, 20);
  EXPECT_EQ(internet_checksum(ip_header), 0);
}

TEST(Builder, TransportChecksumValidOnWire) {
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 1234);
  const auto dst = make_ep(2, Ipv4Address(10, 0, 2, 6), 80);
  const auto pkt = PacketBuilder(Timestamp{})
                       .udp(src, dst)
                       .payload_size(37)
                       .build();
  const auto segment =
      pkt.bytes().subspan(EthernetHeader::kSize + 20);
  EXPECT_EQ(transport_checksum(src.ip, dst.ip, IpProto::kUdp, segment), 0);
}

TEST(Builder, TotalLengthConsistent) {
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 999);
  const auto dst = make_ep(2, Ipv4Address(10, 0, 2, 6), 53);
  const auto pkt = PacketBuilder(Timestamp{})
                       .udp(src, dst)
                       .payload_size(64)
                       .build();
  PacketView v(pkt);
  ASSERT_TRUE(v.valid());
  EXPECT_EQ(pkt.size(), EthernetHeader::kSize + v.ipv4().total_length);
  EXPECT_EQ(v.udp().length, UdpHeader::kSize + 64);
  EXPECT_EQ(v.payload().size(), 64u);
}

TEST(Builder, IcmpEcho) {
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 0);
  const auto dst = make_ep(2, Ipv4Address(10, 0, 2, 6), 0);
  const auto pkt =
      PacketBuilder(Timestamp{})
          .icmp(src, dst, IcmpHeader::kEchoRequest, 0, 0x00070001)
          .payload_size(48)
          .build();
  PacketView v(pkt);
  ASSERT_TRUE(v.valid());
  ASSERT_TRUE(v.is_icmp());
  EXPECT_EQ(v.icmp().type, IcmpHeader::kEchoRequest);
  EXPECT_EQ(v.icmp().rest, 0x00070001u);
  EXPECT_EQ(v.payload().size(), 48u);
}

TEST(Builder, LabelTravelsWithPacket) {
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 1);
  const auto dst = make_ep(2, Ipv4Address(10, 0, 2, 6), 2);
  const auto pkt = PacketBuilder(Timestamp{})
                       .udp(src, dst)
                       .label(TrafficLabel::kDnsAmplification)
                       .build();
  EXPECT_EQ(pkt.label, TrafficLabel::kDnsAmplification);
  EXPECT_TRUE(is_attack(pkt.label));
  EXPECT_EQ(to_string(pkt.label), "dns_amplification");
}

TEST(Builder, DnsPacketEndToEnd) {
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 50555);
  const auto dst = make_ep(2, Ipv4Address(130, 14, 1, 9), 53);
  const auto query = make_dns_query(0xABCD, "lib.campus.edu", DnsType::kAny);
  const auto pkt = build_dns_packet(Timestamp::from_seconds(2.0), src, dst,
                                    query);
  PacketView v(pkt);
  ASSERT_TRUE(v.valid());
  ASSERT_TRUE(v.is_udp());
  EXPECT_TRUE(v.is_dns());
  const auto parsed = v.dns();
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().id, 0xABCD);
  EXPECT_EQ(parsed.value().questions[0].name, "lib.campus.edu");
}

TEST(View, GarbageFrameInvalidButSized) {
  std::vector<std::uint8_t> junk(40, 0xEE);
  PacketView v{std::span<const std::uint8_t>(junk)};
  EXPECT_FALSE(v.valid());
  EXPECT_EQ(v.frame_size(), 40u);
  EXPECT_FALSE(v.five_tuple().has_value());
}

TEST(View, ShortFrameInvalid) {
  std::vector<std::uint8_t> tiny(6, 0);
  PacketView v{std::span<const std::uint8_t>(tiny)};
  EXPECT_FALSE(v.valid());
}

// Property: random TCP/UDP frames built by PacketBuilder always decode
// back to the same five-tuple, sizes, and payload.
TEST(BuilderProperty, RandomFramesRoundTrip) {
  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    const auto src = make_ep(
        static_cast<std::uint32_t>(i), Ipv4Address(static_cast<std::uint32_t>(
                                           0x0A000000 + rng.below(1 << 16))),
        static_cast<std::uint16_t>(1024 + rng.below(60000)));
    const auto dst = make_ep(
        static_cast<std::uint32_t>(i + 1),
        Ipv4Address(static_cast<std::uint32_t>(0xC0A80000 + rng.below(1 << 8))),
        static_cast<std::uint16_t>(rng.below(1024)));
    const auto payload_len = rng.below(1200);
    const bool use_tcp = rng.chance(0.5);
    PacketBuilder b(Timestamp::from_nanos(
        static_cast<std::int64_t>(rng.below(1'000'000'000))));
    if (use_tcp) {
      b.tcp(src, dst,
            static_cast<std::uint8_t>(rng.below(64)),
            static_cast<std::uint32_t>(rng.next()),
            static_cast<std::uint32_t>(rng.next()));
    } else {
      b.udp(src, dst);
    }
    const auto pkt = b.payload_size(payload_len).build();
    PacketView v(pkt);
    ASSERT_TRUE(v.valid());
    const auto t = v.five_tuple();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->src, src.ip);
    EXPECT_EQ(t->dst, dst.ip);
    EXPECT_EQ(t->src_port, src.port);
    EXPECT_EQ(t->dst_port, dst.port);
    EXPECT_EQ(v.payload().size(), payload_len);
    // Wire checksums must verify.
    const auto ip_header =
        pkt.bytes().subspan(EthernetHeader::kSize, 20);
    EXPECT_EQ(internet_checksum(ip_header), 0);
  }
}

TEST(Builder, PayloadCappedAtIpv4Maximum) {
  // 70,000 bytes would wrap the 16-bit IPv4 total length and UDP length
  // (to 4,492 and 4,472); build() cuts the payload to what one IPv4
  // datagram carries behind the L4 header instead.
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 999);
  const auto dst = make_ep(2, Ipv4Address(10, 0, 2, 6), 53);
  const auto udp =
      PacketBuilder(Timestamp{}).udp(src, dst).payload_size(70'000).build();
  PacketView v(udp);
  ASSERT_TRUE(v.valid());
  EXPECT_EQ(udp.size(), 65'549u);
  EXPECT_EQ(v.ipv4().total_length, 65'535);
  EXPECT_EQ(v.udp().length, 65'515);
  EXPECT_EQ(v.payload().size(), 65'507u);
  EXPECT_EQ(transport_checksum(src.ip, dst.ip, IpProto::kUdp,
                               udp.bytes().subspan(34)),
            0);

  const std::vector<std::uint8_t> big(70'000, 0x5A);
  const auto tcp = PacketBuilder(Timestamp{})
                       .tcp(src, dst, TcpFlags::kAck)
                       .payload(big)
                       .build();
  PacketView t(tcp);
  ASSERT_TRUE(t.valid());
  EXPECT_EQ(t.ipv4().total_length, 65'535);
  EXPECT_EQ(t.payload().size(), PacketBuilder::max_payload(20));
  EXPECT_EQ(t.payload().size(), 65'495u);
}

// Reference builder: the payload is a vector (filler made a byte at a
// time), the L4 segment goes into its own writer and the frame into a
// third, and every checksum is summed two bytes per step. The payload
// is capped as build() caps it.
struct FrameSpec {
  enum class L4 { kTcp, kUdp, kIcmp } l4 = L4::kTcp;
  Endpoint src;
  Endpoint dst;
  std::uint8_t flags_or_type = 0;
  std::uint8_t icmp_code = 0;
  std::uint32_t seq_or_rest = 0;
  std::uint32_t ack = 0;
  std::uint8_t ttl = Ipv4Header::kDefaultTtl;
  std::vector<std::uint8_t> payload;  // the call that wins
};

std::vector<std::uint8_t> reference_frame(const FrameSpec& f) {
  ByteWriter l4w;
  IpProto proto = IpProto::kTcp;
  std::size_t checksum_at = 16;
  std::size_t l4_header = TcpHeader::kMinSize;
  if (f.l4 != FrameSpec::L4::kTcp) l4_header = UdpHeader::kSize;
  const std::size_t payload_len =
      std::min(f.payload.size(), PacketBuilder::max_payload(l4_header));
  switch (f.l4) {
    case FrameSpec::L4::kTcp: {
      TcpHeader t;
      t.src_port = f.src.port;
      t.dst_port = f.dst.port;
      t.seq = f.seq_or_rest;
      t.ack = f.ack;
      t.flags = f.flags_or_type;
      t.encode(l4w);
      break;
    }
    case FrameSpec::L4::kUdp: {
      proto = IpProto::kUdp;
      checksum_at = 6;
      UdpHeader u;
      u.src_port = f.src.port;
      u.dst_port = f.dst.port;
      u.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload_len);
      u.encode(l4w);
      break;
    }
    case FrameSpec::L4::kIcmp: {
      proto = IpProto::kIcmp;
      checksum_at = 2;
      IcmpHeader ic;
      ic.type = f.flags_or_type;
      ic.code = f.icmp_code;
      ic.rest = f.seq_or_rest;
      ic.encode(l4w);
      break;
    }
  }
  l4w.bytes(std::span(f.payload).first(payload_len));
  auto segment = std::move(l4w).take();
  ByteWriter summed;
  if (proto != IpProto::kIcmp) {
    summed.u32(f.src.ip.value());
    summed.u32(f.dst.ip.value());
    summed.u8(0);
    summed.u8(static_cast<std::uint8_t>(proto));
    summed.u16(static_cast<std::uint16_t>(segment.size()));
  }
  summed.bytes(segment);
  const std::uint16_t l4_sum = reference_checksum(summed.view());
  segment[checksum_at] = static_cast<std::uint8_t>(l4_sum >> 8);
  segment[checksum_at + 1] = static_cast<std::uint8_t>(l4_sum);

  Ipv4Header ip;
  ip.total_length =
      static_cast<std::uint16_t>(Ipv4Header::kMinSize + segment.size());
  const std::uint32_t seq =
      f.l4 == FrameSpec::L4::kTcp ? f.seq_or_rest : 0;
  ip.identification = static_cast<std::uint16_t>(
      (f.src.ip.value() ^ f.dst.ip.value() ^ seq) & 0xFFFF);
  ip.flags = 0x2;
  ip.ttl = f.ttl;
  ip.protocol = static_cast<std::uint8_t>(proto);
  ip.src = f.src.ip;
  ip.dst = f.dst.ip;
  EthernetHeader eth;
  eth.dst = f.dst.mac;
  eth.src = f.src.mac;
  eth.ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  ByteWriter frame;
  eth.encode(frame);
  ip.encode(frame);
  auto out = std::move(frame).take();
  out[24] = out[25] = 0;  // re-sum the IPv4 header the reference way
  const std::uint16_t ip_sum =
      reference_checksum(std::span(out).subspan(EthernetHeader::kSize));
  out[24] = static_cast<std::uint8_t>(ip_sum >> 8);
  out[25] = static_cast<std::uint8_t>(ip_sum);
  out.insert(out.end(), segment.begin(), segment.end());
  return out;
}

// Property: build() writes exactly the reference's bytes for every L4
// kind, for filler lengths across the pool's slab boundary and past the
// IPv4 maximum, for odd-length explicit payloads, and whichever of
// payload()/payload_size() is called last.
TEST(Builder, MatchesReferenceEncoderOnGeneratedFrames) {
  std::vector<std::size_t> filler_lengths;
  for (std::size_t n = 0; n <= 600; ++n) filler_lengths.push_back(n);
  // 1,460: a full-MSS segment. 4,041-4,043 (TCP) and 4,053-4,055 (UDP,
  // ICMP) frame at 4,095-4,097 bytes, across the 4 KiB slab; 4,095-4,097
  // and 70,000 take the oversize path.
  for (std::size_t n : {1459, 1460, 1461, 4041, 4042, 4043, 4053, 4054,
                        4055, 4095, 4096, 4097, 70'000})
    filler_lengths.push_back(n);

  Rng rng(4242);
  std::size_t cases = 0;
  const auto check = [&](std::size_t filler, bool filler_last,
                         std::size_t explicit_len, FrameSpec::L4 l4) {
    FrameSpec f;
    f.l4 = l4;
    f.src = make_ep(static_cast<std::uint32_t>(rng.next()),
                    Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                    static_cast<std::uint16_t>(rng.next()));
    f.dst = make_ep(static_cast<std::uint32_t>(rng.next()),
                    Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                    static_cast<std::uint16_t>(rng.next()));
    f.flags_or_type = static_cast<std::uint8_t>(rng.below(64));
    f.icmp_code = static_cast<std::uint8_t>(rng.below(16));
    f.seq_or_rest = static_cast<std::uint32_t>(rng.next());
    f.ack = static_cast<std::uint32_t>(rng.next());
    f.ttl = static_cast<std::uint8_t>(1 + rng.below(255));
    std::vector<std::uint8_t> explicit_bytes(explicit_len);
    for (auto& b : explicit_bytes) b = static_cast<std::uint8_t>(rng.next());

    PacketBuilder b(Timestamp::from_nanos(static_cast<std::int64_t>(cases)));
    switch (l4) {
      case FrameSpec::L4::kTcp:
        b.tcp(f.src, f.dst, f.flags_or_type, f.seq_or_rest, f.ack);
        break;
      case FrameSpec::L4::kUdp:
        b.udp(f.src, f.dst);
        break;
      case FrameSpec::L4::kIcmp:
        b.icmp(f.src, f.dst, f.flags_or_type, f.icmp_code, f.seq_or_rest);
        break;
    }
    b.ttl(f.ttl);
    if (filler_last) {
      if (explicit_len > 0) b.payload(explicit_bytes);
      b.payload_size(filler);
      f.payload.resize(filler);
      for (std::size_t i = 0; i < filler; ++i)
        f.payload[i] = static_cast<std::uint8_t>(0xA5 ^ (i & 0xFF));
    } else {
      b.payload_size(filler);
      f.payload = explicit_bytes;
      b.payload(explicit_bytes);
    }
    const auto pkt = b.build();
    const auto want = reference_frame(f);
    const auto got = pkt.copy_bytes();
    const std::string what =
        "case " + std::to_string(cases) + ": l4 " +
        std::to_string(static_cast<int>(l4)) + ", filler " +
        std::to_string(filler) + ", explicit " +
        std::to_string(explicit_len) + ", filler last " +
        std::to_string(filler_last);
    ++cases;
    ASSERT_EQ(got.size(), want.size()) << what;
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
    ASSERT_TRUE(diff.first == got.end())
        << what << ": first differing byte at "
        << (diff.first - got.begin());
    const auto segment = pkt.bytes().subspan(34);
    if (l4 == FrameSpec::L4::kIcmp) {
      ASSERT_EQ(internet_checksum(segment), 0) << what;
    } else {
      const auto proto =
          l4 == FrameSpec::L4::kTcp ? IpProto::kTcp : IpProto::kUdp;
      ASSERT_EQ(transport_checksum(f.src.ip, f.dst.ip, proto, segment), 0)
          << what;
    }
  };

  for (const auto l4 :
       {FrameSpec::L4::kTcp, FrameSpec::L4::kUdp, FrameSpec::L4::kIcmp}) {
    for (const std::size_t n : filler_lengths) {
      check(n, true, 0, l4);
      if (HasFatalFailure()) return;
    }
    for (int i = 0; i < 100 && !HasFatalFailure(); ++i) {
      // Odd-length explicit payloads, then both calls in either order.
      check(0, false, 2 * rng.below(800) + 1, l4);
      check(rng.below(1500), rng.chance(0.5), 1 + rng.below(1500), l4);
    }
    check(0, false, 70'001, l4);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(cases, 3 * (filler_lengths.size() + 201));
}

}  // namespace
}  // namespace campuslab::packet
