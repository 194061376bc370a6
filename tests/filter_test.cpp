// Tests for the BPF-style FilterExpr — predicate semantics,
// precedence, direction qualifiers, error reporting, and a property
// test checking equivalence with hand-built predicates over random
// frames. Plus PacketArchive::read_filtered integration.
#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "campuslab/capture/filter.h"
#include "campuslab/packet/builder.h"
#include "campuslab/store/packet_archive.h"
#include "campuslab/util/rng.h"

namespace campuslab::capture {
namespace {

using packet::Endpoint;
using packet::Ipv4Address;
using packet::MacAddress;
using packet::PacketBuilder;
using packet::TcpFlags;

Endpoint ep(Ipv4Address ip, std::uint16_t port) {
  return Endpoint{MacAddress::from_id(ip.value()), ip, port};
}

packet::Packet udp_frame(Ipv4Address src, std::uint16_t sport,
                         Ipv4Address dst, std::uint16_t dport,
                         std::size_t payload = 64) {
  return PacketBuilder(Timestamp::from_seconds(1))
      .udp(ep(src, sport), ep(dst, dport))
      .payload_size(payload)
      .build();
}

packet::Packet tcp_frame(Ipv4Address src, std::uint16_t sport,
                         Ipv4Address dst, std::uint16_t dport,
                         std::uint8_t flags) {
  return PacketBuilder(Timestamp::from_seconds(1))
      .tcp(ep(src, sport), ep(dst, dport), flags)
      .build();
}

const Ipv4Address kResolver(8, 8, 8, 8);
const Ipv4Address kClient(10, 43, 16, 2);
const Ipv4Address kOther(93, 184, 216, 34);

FilterExpr must_parse(const std::string& text) {
  auto f = FilterExpr::parse(text);
  EXPECT_TRUE(f.ok()) << (f.ok() ? "" : f.error().message);
  return std::move(f).value();
}

TEST(Filter, ProtocolPredicates) {
  // Decode each frame once; every filter below reads the same view.
  const auto dns_frame = udp_frame(kResolver, 53, kClient, 9999);
  const auto syn_frame = tcp_frame(kOther, 443, kClient, 5000,
                                   TcpFlags::kSyn);
  const packet::PacketView dns_pkt(dns_frame);
  const packet::PacketView syn_pkt(syn_frame);
  EXPECT_TRUE(must_parse("udp").matches(dns_pkt));
  EXPECT_FALSE(must_parse("udp").matches(syn_pkt));
  EXPECT_TRUE(must_parse("tcp").matches(syn_pkt));
  EXPECT_TRUE(must_parse("ip").matches(dns_pkt));
  EXPECT_TRUE(must_parse("dns").matches(dns_pkt));
  EXPECT_FALSE(must_parse("dns").matches(syn_pkt));
  EXPECT_TRUE(must_parse("syn").matches(syn_pkt));
  EXPECT_FALSE(must_parse("syn").matches(dns_pkt));
}

TEST(Filter, PortWithDirections) {
  const auto frame = udp_frame(kResolver, 53, kClient, 9999);
  const packet::PacketView pkt(frame);
  EXPECT_TRUE(must_parse("port 53").matches(pkt));
  EXPECT_TRUE(must_parse("src port 53").matches(pkt));
  EXPECT_FALSE(must_parse("dst port 53").matches(pkt));
  EXPECT_TRUE(must_parse("dst port 9999").matches(pkt));
  EXPECT_FALSE(must_parse("port 80").matches(pkt));
}

TEST(Filter, HostAndNet) {
  const auto frame = udp_frame(kResolver, 53, kClient, 9999);
  const packet::PacketView pkt(frame);
  EXPECT_TRUE(must_parse("host 8.8.8.8").matches(pkt));
  EXPECT_TRUE(must_parse("dst host 10.43.16.2").matches(pkt));
  EXPECT_FALSE(must_parse("src host 10.43.16.2").matches(pkt));
  EXPECT_TRUE(must_parse("net 10.43.0.0/16").matches(pkt));
  EXPECT_TRUE(must_parse("dst net 10.43.16.0/24").matches(pkt));
  EXPECT_FALSE(must_parse("src net 10.0.0.0/8").matches(pkt));
  EXPECT_FALSE(must_parse("net 192.168.0.0/16").matches(pkt));
}

TEST(Filter, SizePredicatesWorkOnAnyFrame) {
  const auto big_frame = udp_frame(kResolver, 53, kClient, 9999, 1200);
  const auto small_frame = udp_frame(kResolver, 53, kClient, 9999, 10);
  const packet::PacketView big(big_frame);
  const packet::PacketView small(small_frame);
  EXPECT_TRUE(must_parse("greater 1000").matches(big));
  EXPECT_FALSE(must_parse("greater 1000").matches(small));
  EXPECT_TRUE(must_parse("less 100").matches(small));
  // Non-IP garbage still answers size predicates.
  packet::Packet junk_frame;
  junk_frame.assign(200, 0xEE);
  const packet::PacketView junk(junk_frame);
  EXPECT_TRUE(must_parse("greater 100").matches(junk));
  EXPECT_FALSE(must_parse("udp").matches(junk));
}

TEST(Filter, BooleanPrecedenceAndParens) {
  const auto dns_frame = udp_frame(kResolver, 53, kClient, 9999);
  const packet::PacketView dns_pkt(dns_frame);
  // "tcp or udp and port 53": and binds tighter -> matches.
  EXPECT_TRUE(must_parse("tcp or udp and port 53").matches(dns_pkt));
  // "(tcp or udp) and port 80" -> false for this packet.
  EXPECT_FALSE(must_parse("(tcp or udp) and port 80").matches(dns_pkt));
  EXPECT_TRUE(must_parse("not tcp").matches(dns_pkt));
  EXPECT_FALSE(must_parse("not not tcp").matches(dns_pkt));
  EXPECT_TRUE(
      must_parse("udp and (src port 53 or src port 5353) and "
                 "dst net 10.43.0.0/16")
          .matches(dns_pkt));
}

TEST(Filter, AmplificationSignature) {
  const auto amp_frame = udp_frame(kResolver, 53, kClient, 7777, 2800);
  const auto benign_frame = udp_frame(kResolver, 53, kClient, 7777, 180);
  const packet::PacketView amp(amp_frame);
  const packet::PacketView benign_dns(benign_frame);
  const auto filter =
      must_parse("udp and src port 53 and greater 1000 and "
                 "dst net 10.43.0.0/16");
  EXPECT_TRUE(filter.matches(amp));
  EXPECT_FALSE(filter.matches(benign_dns));
}

TEST(Filter, SyntaxErrorsAreSpecific) {
  for (const auto* bad :
       {"", "and", "port", "port abc", "host 999.1.2.3", "net 10.0.0.0",
        "net 10.0.0.0/99", "udp and", "(udp", "udp)", "src udp",
        "port 70000", "frobnicate"}) {
    const auto f = FilterExpr::parse(bad);
    EXPECT_FALSE(f.ok()) << "accepted: " << bad;
    if (!f.ok()) {
      EXPECT_EQ(f.error().code, "filter_syntax");
    }
  }
}

// Property: compiled filter agrees with a hand-coded predicate across
// random frames.
TEST(FilterProperty, MatchesHandPredicate) {
  const auto filter = must_parse(
      "udp and src port 53 and greater 500 or tcp and syn");
  Rng rng(0xF117);
  for (int i = 0; i < 4000; ++i) {
    const Ipv4Address src(static_cast<std::uint32_t>(rng.next()));
    const Ipv4Address dst(static_cast<std::uint32_t>(rng.next()));
    const auto sport =
        static_cast<std::uint16_t>(rng.chance(0.3) ? 53 : rng.below(65536));
    const auto dport = static_cast<std::uint16_t>(rng.below(65536));
    const bool is_udp = rng.chance(0.5);
    const auto payload = static_cast<std::size_t>(rng.below(1400));
    packet::Packet pkt;
    std::uint8_t flags = 0;
    if (is_udp) {
      pkt = udp_frame(src, sport, dst, dport, payload);
    } else {
      flags = static_cast<std::uint8_t>(rng.below(64));
      pkt = PacketBuilder(Timestamp::from_seconds(1))
                .tcp(ep(src, sport), ep(dst, dport), flags)
                .payload_size(payload)
                .build();
    }
    packet::PacketView view(pkt);
    const bool expected =
        (is_udp && sport == 53 && pkt.size() >= 500) ||
        (!is_udp && (flags & TcpFlags::kSyn) &&
         !(flags & TcpFlags::kAck));
    EXPECT_EQ(filter.matches(view), expected)
        << "udp=" << is_udp << " sport=" << sport << " size="
        << pkt.size() << " flags=" << int(flags);
  }
}

TEST(FilterArchive, ReadFilteredSelects) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("campuslab_filter_archive_" +
                    std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  store::PacketArchiveConfig cfg;
  cfg.directory = dir.string();
  auto archive = store::PacketArchive::open(cfg);
  ASSERT_TRUE(archive.ok());
  for (int i = 0; i < 50; ++i) {
    auto pkt = udp_frame(kResolver, 53, kClient, 9999,
                         i % 2 ? 1500 : 100);
    pkt.ts = Timestamp::from_seconds(i);
    ASSERT_TRUE(archive.value().write(pkt).ok());
  }
  const auto filter = must_parse("udp and greater 1000");
  auto result = archive.value().read_filtered(
      Timestamp::from_seconds(0), Timestamp::from_seconds(50), filter);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 25u);
  for (const auto& pkt : result.value()) EXPECT_GT(pkt.size(), 1000u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace campuslab::capture
