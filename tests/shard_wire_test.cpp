// CLRP01 wire-protocol suite: every StoreShard message round-trips
// bit-exactly through its codec, the frame layer rejects each class of
// damage with its stable error code, the incremental FrameAssembler
// reproduces frames from arbitrary byte-stream choppings, and the
// committed golden fixture tests/data/golden_shard_rpc_v2.bin pins the
// v2 byte format (regenerate with CAMPUSLAB_UPDATE_GOLDEN=1 after an
// intentional format change, and bump wire::kVersion).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "campuslab/store/wire.h"
#include "campuslab/util/hash.h"
#include "campuslab/util/rng.h"

namespace campuslab::store::wire {
namespace {

using capture::FlowRecord;
using packet::Ipv4Address;
using packet::TrafficLabel;

constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();

FlowRecord sample_flow(Rng& rng) {
  FlowRecord f;
  f.tuple = packet::FiveTuple{
      Ipv4Address(static_cast<std::uint32_t>(0x0A000000 + rng.below(1024))),
      Ipv4Address(static_cast<std::uint32_t>(0xC0000200 + rng.below(64))),
      static_cast<std::uint16_t>(rng.below(65536)),
      static_cast<std::uint16_t>(rng.below(65536)),
      static_cast<std::uint8_t>(rng.chance(0.3) ? 17 : 6)};
  f.initial_direction =
      rng.chance(0.5) ? sim::Direction::kInbound : sim::Direction::kOutbound;
  f.first_ts = Timestamp::from_nanos(
      static_cast<std::int64_t>(rng.below(1'000'000'000'000ull)));
  f.last_ts = f.first_ts + Duration::nanos(
                  static_cast<std::int64_t>(rng.below(60'000'000'000ull)));
  f.packets = rng.below(100'000);
  f.bytes = rng.below(100'000'000);
  f.payload_bytes = rng.below(1'000'000);
  f.fwd_packets = rng.below(50'000);
  f.rev_packets = rng.below(50'000);
  f.syn_count = static_cast<std::uint32_t>(rng.below(8));
  f.synack_count = static_cast<std::uint32_t>(rng.below(8));
  f.fin_count = static_cast<std::uint32_t>(rng.below(4));
  f.rst_count = static_cast<std::uint32_t>(rng.below(4));
  f.psh_count = static_cast<std::uint32_t>(rng.below(64));
  f.saw_dns = rng.chance(0.2);
  f.label_packets[rng.below(packet::kTrafficLabelCount)] = 1 + rng.below(999);
  if (rng.chance(0.3))
    f.label_packets[rng.below(packet::kTrafficLabelCount)] += rng.below(100);
  return f;
}

void expect_flow_equal(const FlowRecord& a, const FlowRecord& b,
                       const char* what) {
  EXPECT_EQ(a.tuple.src, b.tuple.src) << what;
  EXPECT_EQ(a.tuple.dst, b.tuple.dst) << what;
  EXPECT_EQ(a.tuple.src_port, b.tuple.src_port) << what;
  EXPECT_EQ(a.tuple.dst_port, b.tuple.dst_port) << what;
  EXPECT_EQ(a.tuple.proto, b.tuple.proto) << what;
  EXPECT_EQ(a.initial_direction, b.initial_direction) << what;
  EXPECT_EQ(a.first_ts.nanos(), b.first_ts.nanos()) << what;
  EXPECT_EQ(a.last_ts.nanos(), b.last_ts.nanos()) << what;
  EXPECT_EQ(a.packets, b.packets) << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.payload_bytes, b.payload_bytes) << what;
  EXPECT_EQ(a.fwd_packets, b.fwd_packets) << what;
  EXPECT_EQ(a.rev_packets, b.rev_packets) << what;
  EXPECT_EQ(a.syn_count, b.syn_count) << what;
  EXPECT_EQ(a.synack_count, b.synack_count) << what;
  EXPECT_EQ(a.fin_count, b.fin_count) << what;
  EXPECT_EQ(a.rst_count, b.rst_count) << what;
  EXPECT_EQ(a.psh_count, b.psh_count) << what;
  EXPECT_EQ(a.saw_dns, b.saw_dns) << what;
  EXPECT_EQ(a.label_packets, b.label_packets) << what;
}

void expect_rows_equal(const std::vector<StoredFlow>& a,
                       const std::vector<StoredFlow>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << what << " row " << i;
    expect_flow_equal(a[i].flow, b[i].flow, what);
  }
}

void expect_stats_equal(const QueryStats& a, const QueryStats& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.segments_pinned, b.segments_pinned);
  EXPECT_EQ(a.segments_scanned, b.segments_scanned);
  EXPECT_EQ(a.index_hits, b.index_hits);
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.cold_loaded, b.cold_loaded);
  EXPECT_EQ(a.cold_pruned, b.cold_pruned);
  EXPECT_EQ(a.cold_load_failures, b.cold_load_failures);
}

void expect_query_equal(const FlowQuery& a, const FlowQuery& b) {
  EXPECT_EQ(a.from.has_value(), b.from.has_value());
  if (a.from && b.from) {
    EXPECT_EQ(a.from->nanos(), b.from->nanos());
  }
  EXPECT_EQ(a.to.has_value(), b.to.has_value());
  if (a.to && b.to) {
    EXPECT_EQ(a.to->nanos(), b.to->nanos());
  }
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.host, b.host);
  EXPECT_EQ(a.port, b.port);
  EXPECT_EQ(a.proto, b.proto);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.dns_only, b.dns_only);
  EXPECT_EQ(a.direction, b.direction);
  EXPECT_EQ(a.min_bytes, b.min_bytes);
  EXPECT_EQ(a.limit, b.limit);
}

// --------------------------------------------------- message round-trips

TEST(WireRoundTrip, EmptyIngestBatch) {
  const ShardIngestBatch batch;
  const auto decoded = decode_ingest(encode_ingest(batch));
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_TRUE(decoded.value().rows.empty());
}

TEST(WireRoundTrip, RandomIngestBatches) {
  Rng rng(0xC1E901);
  for (const std::size_t n : {1u, 2u, 17u, 256u}) {
    ShardIngestBatch batch;
    std::uint64_t id = 1 + rng.below(1000);
    for (std::size_t i = 0; i < n; ++i) {
      batch.rows.push_back(StoredFlow{id, sample_flow(rng)});
      id += 1 + rng.below(5);
    }
    const auto decoded = decode_ingest(encode_ingest(batch));
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    expect_rows_equal(batch.rows, decoded.value().rows, "ingest");
  }
}

TEST(WireRoundTrip, MaxSizeChunkSurvives) {
  // A cursor_chunk-scale pull (4096 rows, the cluster default) — the
  // realistic "max-size chunk" a socket peer streams.
  Rng rng(0xC1E902);
  ShardQueryRows rows;
  for (std::size_t i = 0; i < 4096; ++i)
    rows.rows.push_back(StoredFlow{i + 1, sample_flow(rng)});
  rows.exhausted = false;
  rows.stats.index = IndexKind::kHost;
  rows.stats.rows_scanned = 4096;
  const auto body = encode_query_rows(rows);
  ASSERT_LT(body.size(), kDefaultMaxBody);
  const auto decoded = decode_query_rows(body);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  expect_rows_equal(rows.rows, decoded.value().rows, "chunk");
  EXPECT_FALSE(decoded.value().exhausted);
  expect_stats_equal(rows.stats, decoded.value().stats);
}

TEST(WireRoundTrip, ExtremeTimestampsAndCounters) {
  // Timestamp deltas are computed through unsigned space, so the
  // extremes of the i64 range must round-trip without overflow UB.
  ShardIngestBatch batch;
  const std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng(0xC1E903);
  auto extreme = [&](std::int64_t first, std::int64_t last) {
    FlowRecord f = sample_flow(rng);
    f.first_ts = Timestamp::from_nanos(first);
    f.last_ts = Timestamp::from_nanos(last);
    f.packets = std::numeric_limits<std::uint64_t>::max();
    f.bytes = std::numeric_limits<std::uint64_t>::max();
    f.syn_count = std::numeric_limits<std::uint32_t>::max();
    return f;
  };
  batch.rows.push_back(StoredFlow{1, extreme(kMin, kMax)});
  batch.rows.push_back(StoredFlow{2, extreme(kMax, kMin)});
  batch.rows.push_back(StoredFlow{std::numeric_limits<std::uint64_t>::max(),
                                  extreme(0, 0)});
  const auto decoded = decode_ingest(encode_ingest(batch));
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  expect_rows_equal(batch.rows, decoded.value().rows, "extremes");
}

TEST(WireRoundTrip, IngestAck) {
  for (const std::uint64_t applied :
       {std::uint64_t{0}, std::uint64_t{1},
        std::numeric_limits<std::uint64_t>::max()}) {
    const auto decoded = decode_ingest_ack(encode_ingest_ack({applied}));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().applied, applied);
  }
}

TEST(WireRoundTrip, LogEvents) {
  LogEvent ev;
  ev.ts = Timestamp::from_nanos(-123456789);
  ev.source = "firewall";
  ev.severity = -3;
  ev.subject = Ipv4Address(10, 1, 0, 7);
  ev.message = "deny tcp 10.1.0.7:4444 -> 151.101.1.1:443";
  auto decoded = decode_log_event(encode_log_event(ev));
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value().ts.nanos(), ev.ts.nanos());
  EXPECT_EQ(decoded.value().source, ev.source);
  EXPECT_EQ(decoded.value().severity, ev.severity);
  EXPECT_EQ(decoded.value().subject, ev.subject);
  EXPECT_EQ(decoded.value().message, ev.message);

  // Empty strings and an empty reply vector are valid messages.
  const auto empty = decode_log_event(encode_log_event(LogEvent{}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().source.empty());
  const auto none = decode_log_reply(encode_log_reply({}));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());

  const auto many = decode_log_reply(encode_log_reply({ev, LogEvent{}, ev}));
  ASSERT_TRUE(many.ok());
  ASSERT_EQ(many.value().size(), 3u);
  EXPECT_EQ(many.value()[0].message, ev.message);
  EXPECT_EQ(many.value()[2].source, ev.source);
}

TEST(WireRoundTrip, EveryFlowQueryFilterCombination) {
  // 11 optional predicates = 2048 presence combinations; encode/decode
  // each one. This is the combo sweep the issue asks for — any bitmap
  // mixup between encoder and decoder desyncs some combination.
  for (std::uint32_t bits = 0; bits < (1u << 11); ++bits) {
    FlowQuery q;
    if (bits & (1u << 0)) q.from = Timestamp::from_seconds(100);
    if (bits & (1u << 1)) q.to = Timestamp::from_seconds(900);
    if (bits & (1u << 2)) q.src = Ipv4Address(10, 1, 2, 3);
    if (bits & (1u << 3)) q.dst = Ipv4Address(151, 101, 1, 1);
    if (bits & (1u << 4)) q.host = Ipv4Address(10, 0, 0, 1);
    if (bits & (1u << 5)) q.port = 443;
    if (bits & (1u << 6)) q.proto = 17;
    if (bits & (1u << 7)) q.label = TrafficLabel::kPortScan;
    if (bits & (1u << 8)) q.dns_only = (bits & 1) != 0;
    if (bits & (1u << 9)) q.direction = sim::Direction::kOutbound;
    if (bits & (1u << 10)) q.limit = 57;
    q.min_bytes = bits;  // always present, varies per combo

    ShardQueryPlan plan;
    plan.query = q;
    plan.after_id = bits * 3;
    plan.max_rows = (bits % 2) ? 4096 : kNoLimit;
    const auto decoded = decode_query_plan(encode_query_plan(plan));
    ASSERT_TRUE(decoded.ok())
        << "combo " << bits << ": " << decoded.error().message;
    expect_query_equal(q, decoded.value().query);
    EXPECT_EQ(decoded.value().after_id, plan.after_id);
    EXPECT_EQ(decoded.value().max_rows, plan.max_rows);
  }
}

TEST(WireRoundTrip, AggregatePlansAndResults) {
  for (const GroupBy by : {GroupBy::kHost, GroupBy::kPort, GroupBy::kLabel}) {
    AggregatePlan plan;
    plan.query.on_port(443).at_least_bytes(1000);
    plan.group_by = by;
    plan.top_k = 5;
    const auto dp = decode_aggregate_plan(encode_aggregate_plan(plan));
    ASSERT_TRUE(dp.ok()) << dp.error().message;
    EXPECT_EQ(dp.value().group_by, by);
    EXPECT_EQ(dp.value().top_k, 5u);
    expect_query_equal(plan.query, dp.value().query);

    AggregateResult r;
    r.group_by = by;
    r.matched_flows = 12345;
    r.rows = {{0x0A010203, 10, 1000, 64000}, {443, 7, 900, 1}};
    r.stats.index = IndexKind::kPort;
    r.stats.threads = 8;
    const auto dr = decode_aggregate_result(encode_aggregate_result(r));
    ASSERT_TRUE(dr.ok()) << dr.error().message;
    EXPECT_EQ(dr.value().group_by, by);
    EXPECT_EQ(dr.value().matched_flows, r.matched_flows);
    ASSERT_EQ(dr.value().rows.size(), 2u);
    EXPECT_EQ(dr.value().rows[0].key, r.rows[0].key);
    EXPECT_EQ(dr.value().rows[1].bytes, r.rows[1].bytes);
    expect_stats_equal(r.stats, dr.value().stats);
  }
}

TEST(WireRoundTrip, LogQueryCombinations) {
  for (std::uint32_t bits = 0; bits < (1u << 5); ++bits) {
    LogQuery q;
    if (bits & (1u << 0)) q.from = Timestamp::from_seconds(10);
    if (bits & (1u << 1)) q.to = Timestamp::from_seconds(20);
    if (bits & (1u << 2)) q.source = "ids";
    if (bits & (1u << 3)) q.subject = Ipv4Address(10, 9, 8, 7);
    if (bits & (1u << 4)) q.limit = 99;
    q.min_severity = static_cast<int>(bits) - 16;
    const auto decoded = decode_log_query(encode_log_query(q));
    ASSERT_TRUE(decoded.ok())
        << "combo " << bits << ": " << decoded.error().message;
    EXPECT_EQ(decoded.value().source, q.source);
    EXPECT_EQ(decoded.value().subject, q.subject);
    EXPECT_EQ(decoded.value().min_severity, q.min_severity);
    EXPECT_EQ(decoded.value().limit, q.limit);
    EXPECT_EQ(decoded.value().from.has_value(), q.from.has_value());
    EXPECT_EQ(decoded.value().to.has_value(), q.to.has_value());
  }
}

TEST(WireRoundTrip, CatalogAndFlowCount) {
  CatalogInfo info;
  info.total_flows = 123456789;
  info.total_packets = std::numeric_limits<std::uint64_t>::max();
  info.total_bytes = 1ull << 62;
  info.total_log_events = 42;
  info.segments = 17;
  info.cold_segments = 5;
  info.earliest = Timestamp::from_nanos(std::numeric_limits<std::int64_t>::max());
  info.latest = Timestamp::from_nanos(std::numeric_limits<std::int64_t>::min());
  for (std::size_t i = 0; i < info.flows_per_label.size(); ++i)
    info.flows_per_label[i] = i * 1000 + 1;
  info.evicted_by_retention = 7;
  const auto decoded = decode_catalog(encode_catalog(info));
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value().total_flows, info.total_flows);
  EXPECT_EQ(decoded.value().total_packets, info.total_packets);
  EXPECT_EQ(decoded.value().total_bytes, info.total_bytes);
  EXPECT_EQ(decoded.value().total_log_events, info.total_log_events);
  EXPECT_EQ(decoded.value().segments, info.segments);
  EXPECT_EQ(decoded.value().cold_segments, info.cold_segments);
  EXPECT_EQ(decoded.value().earliest.nanos(), info.earliest.nanos());
  EXPECT_EQ(decoded.value().latest.nanos(), info.latest.nanos());
  EXPECT_EQ(decoded.value().flows_per_label, info.flows_per_label);
  EXPECT_EQ(decoded.value().evicted_by_retention, info.evicted_by_retention);

  const auto count = decode_flow_count(encode_flow_count(987654321));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 987654321u);
}

TEST(WireRoundTrip, ErrorReply) {
  const auto body =
      encode_error(Error::make("node_dead", "node 3 marked dead"));
  Error out;
  ASSERT_TRUE(decode_error(body, out).ok());
  EXPECT_EQ(out.code, "node_dead");
  EXPECT_EQ(out.message, "node 3 marked dead");
}

TEST(WireRoundTrip, DecodersRejectTrailingBytes) {
  auto body = encode_ingest_ack({7});
  body.push_back(0);
  const auto decoded = decode_ingest_ack(body);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "wire_corrupt");
}

TEST(WireRoundTrip, DecodersRejectEmptyBodiesWhereInvalid) {
  const std::vector<std::uint8_t> empty;
  EXPECT_FALSE(decode_ingest_ack(empty).ok());
  EXPECT_FALSE(decode_log_event(empty).ok());
  EXPECT_FALSE(decode_query_plan(empty).ok());
  EXPECT_FALSE(decode_catalog(empty).ok());
  EXPECT_FALSE(decode_flow_count(empty).ok());
  Error out;
  EXPECT_FALSE(decode_error(empty, out).ok());
}

// ------------------------------------------------------- frame layer

// Patch helpers: mutate header bytes, then restore the header checksum
// so the mutation is seen by its own check, not the checksum's.
void store_u64_be(std::vector<std::uint8_t>& buf, std::size_t at,
                  std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

void fix_header_checksum(std::vector<std::uint8_t>& frame) {
  store_u64_be(frame, 32,
               util::fnv1a(std::span<const std::uint8_t>(frame).subspan(0, 32)));
}

std::vector<std::uint8_t> ping_frame() {
  return encode_frame(MsgType::kPing, 3, 42, {});
}

TEST(WireFrame, HeaderRoundTrips) {
  const auto body = encode_flow_count(9);
  const auto frame = encode_frame(MsgType::kFlowCountReply, 7, 1234, body);
  ASSERT_EQ(frame.size(), kHeaderSize + body.size());
  const auto header = parse_frame_header(frame);
  ASSERT_TRUE(header.ok()) << header.error().message;
  EXPECT_EQ(header.value().type, MsgType::kFlowCountReply);
  EXPECT_EQ(header.value().shard, 7u);
  EXPECT_EQ(header.value().request_id, 1234u);
  EXPECT_EQ(header.value().body_len, body.size());
  EXPECT_TRUE(verify_body(header.value(),
                          std::span<const std::uint8_t>(frame).subspan(
                              kHeaderSize))
                  .ok());
}

TEST(WireFrame, RejectsBadMagic) {
  auto frame = ping_frame();
  frame[0] ^= 0xFF;
  EXPECT_EQ(parse_frame_header(frame).error().code, "wire_magic");
}

TEST(WireFrame, RejectsUnknownVersion) {
  auto frame = ping_frame();
  frame[4] = 9;
  fix_header_checksum(frame);
  EXPECT_EQ(parse_frame_header(frame).error().code, "wire_version");
}

TEST(WireFrame, RejectsNonzeroFlags) {
  auto frame = ping_frame();
  frame[6] = 0x80;
  fix_header_checksum(frame);
  EXPECT_EQ(parse_frame_header(frame).error().code, "wire_flags");
}

TEST(WireFrame, RejectsUnknownType) {
  auto frame = ping_frame();
  frame[5] = 99;  // not a v1 MsgType
  fix_header_checksum(frame);
  EXPECT_EQ(parse_frame_header(frame).error().code, "wire_type");
}

TEST(WireFrame, RejectsOversizedBodyBeforeAllocation) {
  auto frame = ping_frame();
  frame[20] = 0x7F;  // body_len ~= 2 GiB
  fix_header_checksum(frame);
  EXPECT_EQ(parse_frame_header(frame).error().code, "wire_oversize");
  // And an honest length over a smaller per-connection bound.
  const auto small = encode_frame(MsgType::kIngest, 0, 1,
                                  std::vector<std::uint8_t>(100));
  EXPECT_EQ(parse_frame_header(small, 64).error().code, "wire_oversize");
}

TEST(WireFrame, ChecksumDamageWinsOverDerivedErrors) {
  // A corrupted header byte without a checksum fix-up reads as
  // checksum damage — not as a bogus flags/type/length violation.
  auto frame = ping_frame();
  frame[20] = 0x7F;
  EXPECT_EQ(parse_frame_header(frame).error().code, "wire_checksum");
}

TEST(WireFrame, RejectsShortHeaderAndBodyDamage) {
  const auto frame =
      encode_frame(MsgType::kIngestAck, 0, 5, encode_ingest_ack({3}));
  EXPECT_EQ(parse_frame_header(std::span<const std::uint8_t>(frame).subspan(
                                   0, kHeaderSize - 1))
                .error()
                .code,
            "wire_truncated");
  const auto header = parse_frame_header(frame);
  ASSERT_TRUE(header.ok());
  auto body = std::vector<std::uint8_t>(frame.begin() + kHeaderSize,
                                        frame.end());
  body[0] ^= 0x01;
  EXPECT_EQ(verify_body(header.value(), body).error().code, "wire_checksum");
  body.pop_back();
  EXPECT_EQ(verify_body(header.value(), body).error().code, "wire_truncated");
}

// --------------------------------------------------- frame assembler

TEST(WireAssembler, ReassemblesAcrossArbitraryChoppings) {
  Rng rng(0xA55E);
  std::vector<std::uint8_t> stream;
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 1; i <= 20; ++i) {
    const auto body = encode_flow_count(i * 1000);
    const auto frame =
        encode_frame(MsgType::kFlowCountReply, 0, i, body);
    stream.insert(stream.end(), frame.begin(), frame.end());
    ids.push_back(i);
  }
  for (int round = 0; round < 20; ++round) {
    FrameAssembler assembler;
    std::vector<std::uint64_t> seen;
    std::size_t at = 0;
    while (at < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.below(97), stream.size() - at);
      assembler.feed(std::span<const std::uint8_t>(stream).subspan(at, chunk));
      at += chunk;
      while (true) {
        auto next = assembler.next();
        ASSERT_TRUE(next.ok()) << next.error().message;
        if (!next.value().has_value()) break;
        seen.push_back(next.value()->header.request_id);
        const auto count = decode_flow_count(next.value()->body);
        ASSERT_TRUE(count.ok());
        EXPECT_EQ(count.value(), next.value()->header.request_id * 1000);
      }
    }
    EXPECT_EQ(seen, ids);
    EXPECT_EQ(assembler.buffered(), 0u);
  }
}

TEST(WireAssembler, PoisonsPermanentlyOnViolation) {
  auto bad = ping_frame();
  bad[0] ^= 0xFF;
  FrameAssembler assembler;
  assembler.feed(bad);
  auto first = assembler.next();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error().code, "wire_magic");
  // Feeding a perfectly valid frame afterwards cannot revive it: the
  // stream has no recoverable framing.
  assembler.feed(ping_frame());
  auto second = assembler.next();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, "wire_magic");
}

// ------------------------------------------------------ golden fixture

// One deterministic frame per message type, concatenated. Any byte
// change in the committed fixture is a wire-format break: bump
// wire::kVersion and regenerate with CAMPUSLAB_UPDATE_GOLDEN=1.
std::vector<std::uint8_t> golden_stream() {
  std::vector<std::uint8_t> out;
  std::uint64_t request = 1;
  auto add = [&out, &request](MsgType type, std::uint32_t shard,
                              const std::vector<std::uint8_t>& body) {
    const auto frame = encode_frame(type, shard, request++, body);
    out.insert(out.end(), frame.begin(), frame.end());
  };

  ShardIngestBatch batch;
  for (int i = 0; i < 8; ++i) {
    FlowRecord f;
    f.tuple = packet::FiveTuple{
        Ipv4Address(10, 2, 0, static_cast<std::uint8_t>(1 + i % 3)),
        Ipv4Address(192, 0, 2, static_cast<std::uint8_t>(1 + i % 2)),
        static_cast<std::uint16_t>(40'000 + i),
        static_cast<std::uint16_t>(i % 4 == 0 ? 53 : 443),
        i % 3 == 0 ? std::uint8_t{17} : std::uint8_t{6}};
    f.initial_direction =
        i % 2 == 0 ? sim::Direction::kInbound : sim::Direction::kOutbound;
    f.first_ts = Timestamp::from_seconds(100 + 10 * i);
    f.last_ts = f.first_ts + Duration::seconds(2);
    f.packets = 10 + static_cast<std::uint64_t>(i);
    f.bytes = 1000 + 17 * static_cast<std::uint64_t>(i);
    f.payload_bytes = 900 + static_cast<std::uint64_t>(i);
    f.fwd_packets = 7;
    f.rev_packets = 3;
    f.syn_count = 1;
    f.psh_count = static_cast<std::uint32_t>(i);
    f.saw_dns = i % 4 == 0;
    f.label_packets[static_cast<std::size_t>(
        i % 5 == 0 ? TrafficLabel::kPortScan : TrafficLabel::kBenign)] =
        f.packets;
    batch.rows.push_back(StoredFlow{static_cast<std::uint64_t>(101 + i), f});
  }
  add(MsgType::kIngest, 0, encode_ingest(batch));
  add(MsgType::kIngestAck, 0, encode_ingest_ack({8}));

  LogEvent ev;
  ev.ts = Timestamp::from_seconds(123);
  ev.source = "firewall";
  ev.severity = 2;
  ev.subject = Ipv4Address(10, 2, 0, 1);
  ev.message = "deny";
  add(MsgType::kIngestLog, 0, encode_log_event(ev));
  add(MsgType::kIngestLogOk, 0, {});

  ShardQueryPlan plan;
  plan.query.about_host(Ipv4Address(10, 2, 0, 1)).on_port(443).top(100);
  plan.after_id = 101;
  plan.max_rows = 50;
  add(MsgType::kQuery, 1, encode_query_plan(plan));

  ShardQueryRows rows;
  rows.rows = {batch.rows[1], batch.rows[4]};
  rows.exhausted = true;
  rows.stats.index = IndexKind::kHost;
  rows.stats.segments_pinned = 2;
  rows.stats.segments_scanned = 1;
  rows.stats.index_hits = 2;
  rows.stats.rows_scanned = 2;
  add(MsgType::kQueryRows, 1, encode_query_rows(rows));

  AggregatePlan agg;
  agg.query.with_label(TrafficLabel::kBenign);
  agg.group_by = GroupBy::kPort;
  agg.top_k = 3;
  add(MsgType::kAggregate, 0, encode_aggregate_plan(agg));

  AggregateResult agg_result;
  agg_result.group_by = GroupBy::kPort;
  agg_result.matched_flows = 6;
  agg_result.rows = {{443, 5, 60, 5555}, {53, 1, 12, 1017}};
  agg_result.stats.index = IndexKind::kLabel;
  add(MsgType::kAggregateReply, 0, encode_aggregate_result(agg_result));

  LogQuery lq;
  lq.from_source("firewall").at_least_severity(1).top(10);
  add(MsgType::kQueryLogs, 0, encode_log_query(lq));
  add(MsgType::kLogReply, 0, encode_log_reply({ev}));

  CatalogInfo info;
  info.total_flows = 8;
  info.total_packets = 108;
  info.total_bytes = 8476;
  info.total_log_events = 1;
  info.segments = 1;
  info.earliest = Timestamp::from_seconds(100);
  info.latest = Timestamp::from_seconds(172);
  info.flows_per_label[0] = 6;
  info.flows_per_label[3] = 2;
  add(MsgType::kCatalog, 0, {});
  add(MsgType::kCatalogReply, 0, encode_catalog(info));

  add(MsgType::kFlowCount, 0, {});
  add(MsgType::kFlowCountReply, 0, encode_flow_count(8));

  add(MsgType::kPing, 0, {});
  add(MsgType::kPong, 0, {});
  add(MsgType::kError, 0,
      encode_error(Error::make("node_dead", "node 2 marked dead")));
  return out;
}

std::string golden_path() {
  return std::string(CAMPUSLAB_TEST_DATA_DIR) + "/golden_shard_rpc_v2.bin";
}

TEST(WireGolden, FixturePinsV2ByteFormat) {
  const auto bytes = golden_stream();

  // Layout invariants independent of the fixture file.
  ASSERT_GE(bytes.size(), kHeaderSize);
  EXPECT_EQ(bytes[0], 'C');
  EXPECT_EQ(bytes[1], 'L');
  EXPECT_EQ(bytes[2], 'R');
  EXPECT_EQ(bytes[3], 'P');
  EXPECT_EQ(bytes[4], kVersion);

  const auto path = golden_path();
  if (std::getenv("CAMPUSLAB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden fixture regenerated at " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing " << path
                  << " — regenerate with CAMPUSLAB_UPDATE_GOLDEN=1";
  std::vector<std::uint8_t> golden{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
  ASSERT_EQ(bytes.size(), golden.size())
      << "CLRP01 wire format changed size; if intentional, bump "
         "wire::kVersion and regenerate with CAMPUSLAB_UPDATE_GOLDEN=1";
  EXPECT_EQ(bytes, golden)
      << "CLRP01 wire format changed; if intentional, bump wire::kVersion "
         "and regenerate with CAMPUSLAB_UPDATE_GOLDEN=1";
}

TEST(WireGolden, CommittedFixtureStillDecodes) {
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in) << "missing fixture — regenerate with "
                     "CAMPUSLAB_UPDATE_GOLDEN=1";
  std::vector<std::uint8_t> golden{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
  FrameAssembler assembler;
  assembler.feed(golden);
  std::size_t frames = 0;
  std::vector<MsgType> types;
  while (true) {
    auto next = assembler.next();
    ASSERT_TRUE(next.ok()) << next.error().message;
    if (!next.value().has_value()) break;
    const Frame frame = std::move(*next.value());
    types.push_back(frame.header.type);
    // Every body decodes through its own codec.
    switch (frame.header.type) {
      case MsgType::kIngest:
        EXPECT_TRUE(decode_ingest(frame.body).ok());
        break;
      case MsgType::kIngestAck:
        EXPECT_TRUE(decode_ingest_ack(frame.body).ok());
        break;
      case MsgType::kIngestLog:
        EXPECT_TRUE(decode_log_event(frame.body).ok());
        break;
      case MsgType::kQuery:
        EXPECT_TRUE(decode_query_plan(frame.body).ok());
        break;
      case MsgType::kQueryRows:
        EXPECT_TRUE(decode_query_rows(frame.body).ok());
        break;
      case MsgType::kAggregate:
        EXPECT_TRUE(decode_aggregate_plan(frame.body).ok());
        break;
      case MsgType::kAggregateReply:
        EXPECT_TRUE(decode_aggregate_result(frame.body).ok());
        break;
      case MsgType::kQueryLogs:
        EXPECT_TRUE(decode_log_query(frame.body).ok());
        break;
      case MsgType::kLogReply:
        EXPECT_TRUE(decode_log_reply(frame.body).ok());
        break;
      case MsgType::kCatalogReply:
        EXPECT_TRUE(decode_catalog(frame.body).ok());
        break;
      case MsgType::kFlowCountReply:
        EXPECT_TRUE(decode_flow_count(frame.body).ok());
        break;
      case MsgType::kError: {
        Error out;
        EXPECT_TRUE(decode_error(frame.body, out).ok());
        break;
      }
      default:
        EXPECT_TRUE(frame.body.empty());
        break;
    }
    ++frames;
  }
  EXPECT_EQ(frames, 17u) << "one frame per v1 message type";
  EXPECT_EQ(assembler.buffered(), 0u);
  // The stream exercises every v1 type exactly once.
  for (const MsgType t :
       {MsgType::kIngest, MsgType::kIngestLog, MsgType::kQuery,
        MsgType::kAggregate, MsgType::kQueryLogs, MsgType::kCatalog,
        MsgType::kFlowCount, MsgType::kPing, MsgType::kIngestAck,
        MsgType::kIngestLogOk, MsgType::kQueryRows, MsgType::kAggregateReply,
        MsgType::kLogReply, MsgType::kCatalogReply, MsgType::kFlowCountReply,
        MsgType::kPong, MsgType::kError}) {
    EXPECT_EQ(std::count(types.begin(), types.end(), t), 1)
        << "type " << static_cast<int>(t);
  }
}

}  // namespace
}  // namespace campuslab::store::wire
