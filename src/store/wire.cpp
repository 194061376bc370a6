#include "campuslab/store/wire.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "campuslab/util/bytes.h"
#include "campuslab/util/codec.h"
#include "campuslab/util/hash.h"

namespace campuslab::store::wire {
namespace {

using util::fnv1a;
using util::get_string;
using util::put_string;
using util::put_varint;
using util::unzigzag;
using util::zigzag;
using Decoder = util::VarintDecoder;

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();

Error corrupt(const char* what) {
  return Error::make("wire_corrupt", std::string("malformed body: ") + what);
}

// Signed deltas computed through unsigned space so every i64 pair
// round-trips without overflow UB (the CLSEG01 idiom).
std::uint64_t delta_zz(std::int64_t value, std::int64_t base) noexcept {
  return zigzag(static_cast<std::int64_t>(static_cast<std::uint64_t>(value) -
                                          static_cast<std::uint64_t>(base)));
}
std::int64_t undelta_zz(std::uint64_t coded, std::int64_t base) noexcept {
  return static_cast<std::int64_t>(
      static_cast<std::uint64_t>(base) +
      static_cast<std::uint64_t>(unzigzag(coded)));
}

// --- StoredFlow batch ----------------------------------------------
//
// Batch-level sorted host dictionary (ascending deltas), per-row
// zigzag-delta ids and timestamps — the segment file's column idiom
// applied row-wise, since a wire chunk is consumed in row order.

void put_rows(ByteWriter& w, const std::vector<StoredFlow>& rows) {
  put_varint(w, rows.size());

  std::vector<std::uint32_t> dict;
  dict.reserve(rows.size() * 2);
  for (const auto& r : rows) {
    dict.push_back(r.flow.tuple.src.value());
    dict.push_back(r.flow.tuple.dst.value());
  }
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());

  put_varint(w, dict.size());
  std::uint32_t prev_host = 0;
  for (std::size_t i = 0; i < dict.size(); ++i) {
    put_varint(w, i == 0 ? dict[0] : dict[i] - prev_host);
    prev_host = dict[i];
  }

  const auto dict_index = [&dict](std::uint32_t host) {
    return static_cast<std::uint64_t>(
        std::lower_bound(dict.begin(), dict.end(), host) - dict.begin());
  };

  std::uint64_t prev_id = 0;
  std::int64_t prev_first = 0;
  for (const auto& r : rows) {
    const auto& f = r.flow;
    put_varint(w, zigzag(static_cast<std::int64_t>(r.id - prev_id)));
    prev_id = r.id;
    put_varint(w, dict_index(f.tuple.src.value()));
    put_varint(w, dict_index(f.tuple.dst.value()));
    put_varint(w, f.tuple.src_port);
    put_varint(w, f.tuple.dst_port);
    put_varint(w, f.tuple.proto);
    put_varint(w, static_cast<std::uint64_t>(f.initial_direction));
    put_varint(w, delta_zz(f.first_ts.nanos(), prev_first));
    prev_first = f.first_ts.nanos();
    put_varint(w, delta_zz(f.last_ts.nanos(), f.first_ts.nanos()));
    put_varint(w, f.packets);
    put_varint(w, f.bytes);
    put_varint(w, f.payload_bytes);
    put_varint(w, f.fwd_packets);
    put_varint(w, f.rev_packets);
    put_varint(w, f.syn_count);
    put_varint(w, f.synack_count);
    put_varint(w, f.fin_count);
    put_varint(w, f.rst_count);
    put_varint(w, f.psh_count);
    put_varint(w, f.saw_dns ? 1 : 0);
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < f.label_packets.size(); ++i)
      if (f.label_packets[i] != 0) mask |= 1ull << i;
    put_varint(w, mask);
    for (std::size_t i = 0; i < f.label_packets.size(); ++i)
      if (mask & (1ull << i)) put_varint(w, f.label_packets[i]);
    // scenario_id deliberately stays local to the shard: it is
    // generation-time provenance, and carrying it would bump the wire
    // version for a field remote queries never filter on.
  }
}

bool get_rows(Decoder& d, std::vector<StoredFlow>& out) {
  // A row costs >= ~20 varints >= 20 bytes; bounding the count by the
  // remaining bytes means a hostile count can never drive allocation.
  const std::uint64_t count = d.varint_at_most(d.r.remaining());
  const std::uint64_t dict_size = d.varint_at_most(d.r.remaining());
  if (d.failed) return false;
  if (count > 0 && dict_size == 0) {
    d.failed = true;  // rows reference the dictionary
    return false;
  }

  std::vector<std::uint32_t> dict;
  dict.reserve(static_cast<std::size_t>(dict_size));
  std::uint64_t prev_host = 0;
  for (std::uint64_t i = 0; i < dict_size; ++i) {
    const std::uint64_t step = d.varint();
    if (d.failed) return false;
    const std::uint64_t host = i == 0 ? step : prev_host + step;
    // Dictionary entries are strictly ascending u32 values.
    if (host > kU32Max || (i != 0 && step == 0)) {
      d.failed = true;
      return false;
    }
    dict.push_back(static_cast<std::uint32_t>(host));
    prev_host = host;
  }

  out.reserve(static_cast<std::size_t>(count));
  std::uint64_t prev_id = 0;
  std::int64_t prev_first = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    StoredFlow r;
    auto& f = r.flow;
    r.id = prev_id + static_cast<std::uint64_t>(unzigzag(d.varint()));
    prev_id = r.id;
    f.tuple.src = packet::Ipv4Address(
        dict_size == 0 ? 0 : dict[static_cast<std::size_t>(
                                 d.varint_at_most(dict_size - 1))]);
    f.tuple.dst = packet::Ipv4Address(
        dict_size == 0 ? 0 : dict[static_cast<std::size_t>(
                                 d.varint_at_most(dict_size - 1))]);
    f.tuple.src_port = static_cast<std::uint16_t>(d.varint_at_most(0xFFFF));
    f.tuple.dst_port = static_cast<std::uint16_t>(d.varint_at_most(0xFFFF));
    f.tuple.proto = static_cast<std::uint8_t>(d.varint_at_most(0xFF));
    f.initial_direction =
        static_cast<sim::Direction>(d.varint_at_most(1));
    f.first_ts = Timestamp::from_nanos(undelta_zz(d.varint(), prev_first));
    prev_first = f.first_ts.nanos();
    f.last_ts =
        Timestamp::from_nanos(undelta_zz(d.varint(), f.first_ts.nanos()));
    f.packets = d.varint();
    f.bytes = d.varint();
    f.payload_bytes = d.varint();
    f.fwd_packets = d.varint();
    f.rev_packets = d.varint();
    f.syn_count = static_cast<std::uint32_t>(d.varint_at_most(kU32Max));
    f.synack_count = static_cast<std::uint32_t>(d.varint_at_most(kU32Max));
    f.fin_count = static_cast<std::uint32_t>(d.varint_at_most(kU32Max));
    f.rst_count = static_cast<std::uint32_t>(d.varint_at_most(kU32Max));
    f.psh_count = static_cast<std::uint32_t>(d.varint_at_most(kU32Max));
    f.saw_dns = d.varint_at_most(1) != 0;
    const std::uint64_t mask =
        d.varint_at_most((1u << packet::kTrafficLabelCount) - 1);
    for (std::size_t l = 0; l < f.label_packets.size(); ++l)
      if (mask & (1ull << l)) f.label_packets[l] = d.varint();
    if (d.failed) return false;
    out.push_back(std::move(r));
  }
  return !d.failed;
}

// --- FlowQuery ------------------------------------------------------

enum : std::uint64_t {
  kQFrom = 1u << 0,
  kQTo = 1u << 1,
  kQSrc = 1u << 2,
  kQDst = 1u << 3,
  kQHost = 1u << 4,
  kQPort = 1u << 5,
  kQProto = 1u << 6,
  kQLabel = 1u << 7,
  kQDns = 1u << 8,
  kQDirection = 1u << 9,
  kQLimit = 1u << 10,
  kQAllBits = (1u << 11) - 1,
};

void put_flow_query(ByteWriter& w, const FlowQuery& q) {
  std::uint64_t bits = 0;
  if (q.from) bits |= kQFrom;
  if (q.to) bits |= kQTo;
  if (q.src) bits |= kQSrc;
  if (q.dst) bits |= kQDst;
  if (q.host) bits |= kQHost;
  if (q.port) bits |= kQPort;
  if (q.proto) bits |= kQProto;
  if (q.label) bits |= kQLabel;
  if (q.dns_only) bits |= kQDns;
  if (q.direction) bits |= kQDirection;
  if (q.limit != kNoLimit) bits |= kQLimit;
  put_varint(w, bits);
  if (q.from) put_varint(w, zigzag(q.from->nanos()));
  if (q.to) put_varint(w, zigzag(q.to->nanos()));
  if (q.src) put_varint(w, q.src->value());
  if (q.dst) put_varint(w, q.dst->value());
  if (q.host) put_varint(w, q.host->value());
  if (q.port) put_varint(w, *q.port);
  if (q.proto) put_varint(w, *q.proto);
  if (q.label) put_varint(w, static_cast<std::uint64_t>(*q.label));
  if (q.dns_only) put_varint(w, *q.dns_only ? 1 : 0);
  if (q.direction) put_varint(w, static_cast<std::uint64_t>(*q.direction));
  put_varint(w, q.min_bytes);
  if (q.limit != kNoLimit) put_varint(w, q.limit);
}

bool get_flow_query(Decoder& d, FlowQuery& q) {
  const std::uint64_t bits = d.varint_at_most(kQAllBits);
  if (d.failed) return false;
  if (bits & kQFrom) q.from = Timestamp::from_nanos(unzigzag(d.varint()));
  if (bits & kQTo) q.to = Timestamp::from_nanos(unzigzag(d.varint()));
  if (bits & kQSrc)
    q.src = packet::Ipv4Address(
        static_cast<std::uint32_t>(d.varint_at_most(kU32Max)));
  if (bits & kQDst)
    q.dst = packet::Ipv4Address(
        static_cast<std::uint32_t>(d.varint_at_most(kU32Max)));
  if (bits & kQHost)
    q.host = packet::Ipv4Address(
        static_cast<std::uint32_t>(d.varint_at_most(kU32Max)));
  if (bits & kQPort)
    q.port = static_cast<std::uint16_t>(d.varint_at_most(0xFFFF));
  if (bits & kQProto)
    q.proto = static_cast<std::uint8_t>(d.varint_at_most(0xFF));
  if (bits & kQLabel)
    q.label = static_cast<packet::TrafficLabel>(
        d.varint_at_most(packet::kTrafficLabelCount - 1));
  if (bits & kQDns) q.dns_only = d.varint_at_most(1) != 0;
  if (bits & kQDirection)
    q.direction = static_cast<sim::Direction>(d.varint_at_most(1));
  q.min_bytes = d.varint();
  if (bits & kQLimit)
    q.limit = static_cast<std::size_t>(d.varint());
  return !d.failed;
}

// --- LogEvent / LogQuery --------------------------------------------

void put_log_event(ByteWriter& w, const LogEvent& ev) {
  put_varint(w, zigzag(ev.ts.nanos()));
  put_string(w, ev.source);
  put_varint(w, zigzag(ev.severity));
  put_varint(w, ev.subject.value());
  put_string(w, ev.message);
}

bool get_log_event(Decoder& d, LogEvent& ev) {
  ev.ts = Timestamp::from_nanos(unzigzag(d.varint()));
  ev.source = get_string(d);
  const std::int64_t sev = unzigzag(d.varint());
  if (sev < std::numeric_limits<int>::min() ||
      sev > std::numeric_limits<int>::max()) {
    d.failed = true;
    return false;
  }
  ev.severity = static_cast<int>(sev);
  ev.subject = packet::Ipv4Address(
      static_cast<std::uint32_t>(d.varint_at_most(kU32Max)));
  ev.message = get_string(d);
  return !d.failed;
}

enum : std::uint64_t {
  kLFrom = 1u << 0,
  kLTo = 1u << 1,
  kLSource = 1u << 2,
  kLSubject = 1u << 3,
  kLLimit = 1u << 4,
  kLAllBits = (1u << 5) - 1,
};

// --- QueryStats ------------------------------------------------------

void put_stats(ByteWriter& w, const QueryStats& s) {
  put_varint(w, static_cast<std::uint64_t>(s.index));
  put_varint(w, s.segments_pinned);
  put_varint(w, s.segments_scanned);
  put_varint(w, s.index_hits);
  put_varint(w, s.rows_scanned);
  put_varint(w, s.threads);
  put_varint(w, s.cold_loaded);
  put_varint(w, s.cold_pruned);
  put_varint(w, s.cold_load_failures);
}

bool get_stats(Decoder& d, QueryStats& s) {
  s.index = static_cast<IndexKind>(d.varint_at_most(3));
  s.segments_pinned = static_cast<std::size_t>(d.varint());
  s.segments_scanned = static_cast<std::size_t>(d.varint());
  s.index_hits = static_cast<std::size_t>(d.varint());
  s.rows_scanned = static_cast<std::size_t>(d.varint());
  s.threads = static_cast<std::size_t>(d.varint());
  s.cold_loaded = static_cast<std::size_t>(d.varint());
  s.cold_pruned = static_cast<std::size_t>(d.varint());
  s.cold_load_failures = static_cast<std::size_t>(d.varint());
  return !d.failed;
}

/// Shared epilogue: a valid body is consumed exactly.
template <typename T>
Result<T> finish(Decoder& d, T value, const char* what) {
  if (d.failed || !d.r.ok()) return corrupt(what);
  if (d.r.remaining() != 0) return corrupt("trailing bytes");
  return value;
}

}  // namespace

bool valid_type(std::uint8_t type) noexcept {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kIngest:
    case MsgType::kIngestLog:
    case MsgType::kQuery:
    case MsgType::kAggregate:
    case MsgType::kQueryLogs:
    case MsgType::kCatalog:
    case MsgType::kFlowCount:
    case MsgType::kPing:
    case MsgType::kIngestAck:
    case MsgType::kIngestLogOk:
    case MsgType::kQueryRows:
    case MsgType::kAggregateReply:
    case MsgType::kLogReply:
    case MsgType::kCatalogReply:
    case MsgType::kFlowCountReply:
    case MsgType::kPong:
    case MsgType::kError:
      return true;
  }
  return false;
}

std::vector<std::uint8_t> encode_frame(MsgType type, std::uint32_t shard,
                                       std::uint64_t request_id,
                                       std::span<const std::uint8_t> body) {
  ByteWriter w(kHeaderSize + body.size());
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(0);  // flags
  w.u32(shard);
  w.u64(request_id);
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.u64(fnv1a(body));
  w.u64(fnv1a(w.view().subspan(0, 32)));
  w.bytes(body);
  return std::move(w).take();
}

Result<FrameHeader> parse_frame_header(std::span<const std::uint8_t> data,
                                       std::size_t max_body) {
  if (data.size() < kHeaderSize)
    return Error::make("wire_truncated", "short frame header");
  ByteReader r(data.subspan(0, kHeaderSize));
  const std::uint32_t magic = r.u32();
  if (magic != kMagic) return Error::make("wire_magic", "bad frame magic");
  const std::uint8_t version = r.u8();
  if (version != kVersion)
    return Error::make("wire_version",
                       "unsupported frame version " + std::to_string(version));
  const std::uint8_t type = r.u8();
  const std::uint16_t flags = r.u16();
  FrameHeader h;
  h.shard = r.u32();
  h.request_id = r.u64();
  h.body_len = r.u32();
  h.body_hash = r.u64();
  const std::uint64_t header_hash = r.u64();
  if (header_hash != fnv1a(data.subspan(0, 32)))
    return Error::make("wire_checksum", "frame header checksum mismatch");
  // Checksum first: a corrupted length/type byte reads as checksum
  // damage, not as a bogus protocol violation.
  if (flags != 0) return Error::make("wire_flags", "nonzero v1 flags");
  if (!valid_type(type))
    return Error::make("wire_type",
                       "unknown message type " + std::to_string(type));
  h.type = static_cast<MsgType>(type);
  if (h.body_len > max_body)
    return Error::make("wire_oversize",
                       "frame body " + std::to_string(h.body_len) +
                           " exceeds bound " + std::to_string(max_body));
  return h;
}

Status verify_body(const FrameHeader& header,
                   std::span<const std::uint8_t> body) {
  if (body.size() != header.body_len)
    return Error::make("wire_truncated", "body length mismatch");
  if (fnv1a(body) != header.body_hash)
    return Error::make("wire_checksum", "frame body checksum mismatch");
  return Status::success();
}

void FrameAssembler::feed(std::span<const std::uint8_t> data) {
  if (poisoned_) return;
  // Compact lazily: drop the consumed prefix once it dominates.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

Result<std::optional<Frame>> FrameAssembler::next() {
  if (poisoned_) return poison_;
  const std::span<const std::uint8_t> avail =
      std::span<const std::uint8_t>(buf_).subspan(pos_);
  if (avail.size() < kHeaderSize) return std::optional<Frame>{};
  auto header = parse_frame_header(avail, max_body_);
  if (!header.ok()) {
    poisoned_ = true;
    poison_ = header.error();
    return poison_;
  }
  if (avail.size() < kHeaderSize + header.value().body_len)
    return std::optional<Frame>{};
  const auto body = avail.subspan(kHeaderSize, header.value().body_len);
  if (auto st = verify_body(header.value(), body); !st.ok()) {
    poisoned_ = true;
    poison_ = st.error();
    return poison_;
  }
  Frame frame;
  frame.header = header.value();
  frame.body.assign(body.begin(), body.end());
  pos_ += kHeaderSize + header.value().body_len;
  return std::optional<Frame>(std::move(frame));
}

// --- Message bodies --------------------------------------------------

std::vector<std::uint8_t> encode_ingest(const ShardIngestBatch& batch) {
  ByteWriter w;
  put_rows(w, batch.rows);
  return std::move(w).take();
}

Result<ShardIngestBatch> decode_ingest(std::span<const std::uint8_t> body) {
  Decoder d(body);
  ShardIngestBatch batch;
  get_rows(d, batch.rows);
  return finish(d, std::move(batch), "ingest batch");
}

std::vector<std::uint8_t> encode_ingest_ack(const ShardIngestAck& ack) {
  ByteWriter w;
  put_varint(w, ack.applied);
  return std::move(w).take();
}

Result<ShardIngestAck> decode_ingest_ack(std::span<const std::uint8_t> body) {
  Decoder d(body);
  ShardIngestAck ack;
  ack.applied = d.varint();
  return finish(d, ack, "ingest ack");
}

std::vector<std::uint8_t> encode_log_event(const LogEvent& event) {
  ByteWriter w;
  put_log_event(w, event);
  return std::move(w).take();
}

Result<LogEvent> decode_log_event(std::span<const std::uint8_t> body) {
  Decoder d(body);
  LogEvent ev;
  get_log_event(d, ev);
  return finish(d, std::move(ev), "log event");
}

std::vector<std::uint8_t> encode_query_plan(const ShardQueryPlan& plan) {
  ByteWriter w;
  put_flow_query(w, plan.query);
  put_varint(w, plan.after_id);
  const bool bounded = plan.max_rows != kNoLimit;
  put_varint(w, bounded ? 1 : 0);
  if (bounded) put_varint(w, plan.max_rows);
  return std::move(w).take();
}

Result<ShardQueryPlan> decode_query_plan(std::span<const std::uint8_t> body) {
  Decoder d(body);
  ShardQueryPlan plan;
  get_flow_query(d, plan.query);
  plan.after_id = d.varint();
  if (d.varint_at_most(1) != 0)
    plan.max_rows = static_cast<std::size_t>(d.varint());
  return finish(d, std::move(plan), "query plan");
}

std::vector<std::uint8_t> encode_query_rows(const ShardQueryRows& rows) {
  ByteWriter w;
  put_rows(w, rows.rows);
  put_varint(w, rows.exhausted ? 1 : 0);
  put_stats(w, rows.stats);
  return std::move(w).take();
}

Result<ShardQueryRows> decode_query_rows(std::span<const std::uint8_t> body) {
  Decoder d(body);
  ShardQueryRows rows;
  get_rows(d, rows.rows);
  rows.exhausted = d.varint_at_most(1) != 0;
  get_stats(d, rows.stats);
  return finish(d, std::move(rows), "query rows");
}

std::vector<std::uint8_t> encode_aggregate_plan(const AggregatePlan& plan) {
  ByteWriter w;
  put_flow_query(w, plan.query);
  put_varint(w, static_cast<std::uint64_t>(plan.group_by));
  put_varint(w, plan.top_k);
  return std::move(w).take();
}

Result<AggregatePlan> decode_aggregate_plan(
    std::span<const std::uint8_t> body) {
  Decoder d(body);
  AggregatePlan plan;
  get_flow_query(d, plan.query);
  plan.group_by = static_cast<GroupBy>(d.varint_at_most(2));
  plan.top_k = static_cast<std::size_t>(d.varint());
  return finish(d, std::move(plan), "aggregate plan");
}

std::vector<std::uint8_t> encode_aggregate_result(const AggregateResult& r) {
  ByteWriter w;
  put_varint(w, static_cast<std::uint64_t>(r.group_by));
  put_varint(w, r.matched_flows);
  put_varint(w, r.rows.size());
  for (const auto& row : r.rows) {
    put_varint(w, row.key);
    put_varint(w, row.flows);
    put_varint(w, row.packets);
    put_varint(w, row.bytes);
  }
  put_stats(w, r.stats);
  return std::move(w).take();
}

Result<AggregateResult> decode_aggregate_result(
    std::span<const std::uint8_t> body) {
  Decoder d(body);
  AggregateResult r;
  r.group_by = static_cast<GroupBy>(d.varint_at_most(2));
  r.matched_flows = d.varint();
  const std::uint64_t count = d.varint_at_most(d.r.remaining());
  if (!d.failed) {
    r.rows.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count && !d.failed; ++i) {
      AggregateRow row;
      row.key = d.varint();
      row.flows = d.varint();
      row.packets = d.varint();
      row.bytes = d.varint();
      r.rows.push_back(row);
    }
  }
  get_stats(d, r.stats);
  return finish(d, std::move(r), "aggregate result");
}

std::vector<std::uint8_t> encode_log_query(const LogQuery& q) {
  ByteWriter w;
  std::uint64_t bits = 0;
  if (q.from) bits |= kLFrom;
  if (q.to) bits |= kLTo;
  if (q.source) bits |= kLSource;
  if (q.subject) bits |= kLSubject;
  if (q.limit != kNoLimit) bits |= kLLimit;
  put_varint(w, bits);
  if (q.from) put_varint(w, zigzag(q.from->nanos()));
  if (q.to) put_varint(w, zigzag(q.to->nanos()));
  if (q.source) put_string(w, *q.source);
  if (q.subject) put_varint(w, q.subject->value());
  put_varint(w, zigzag(q.min_severity));
  if (q.limit != kNoLimit) put_varint(w, q.limit);
  return std::move(w).take();
}

Result<LogQuery> decode_log_query(std::span<const std::uint8_t> body) {
  Decoder d(body);
  LogQuery q;
  const std::uint64_t bits = d.varint_at_most(kLAllBits);
  if (!d.failed) {
    if (bits & kLFrom) q.from = Timestamp::from_nanos(unzigzag(d.varint()));
    if (bits & kLTo) q.to = Timestamp::from_nanos(unzigzag(d.varint()));
    if (bits & kLSource) q.source = get_string(d);
    if (bits & kLSubject)
      q.subject = packet::Ipv4Address(
          static_cast<std::uint32_t>(d.varint_at_most(kU32Max)));
    const std::int64_t sev = unzigzag(d.varint());
    if (sev < std::numeric_limits<int>::min() ||
        sev > std::numeric_limits<int>::max())
      d.failed = true;
    else
      q.min_severity = static_cast<int>(sev);
    if (bits & kLLimit) q.limit = static_cast<std::size_t>(d.varint());
  }
  return finish(d, std::move(q), "log query");
}

std::vector<std::uint8_t> encode_log_reply(
    const std::vector<LogEvent>& events) {
  ByteWriter w;
  put_varint(w, events.size());
  for (const auto& ev : events) put_log_event(w, ev);
  return std::move(w).take();
}

Result<std::vector<LogEvent>> decode_log_reply(
    std::span<const std::uint8_t> body) {
  Decoder d(body);
  std::vector<LogEvent> events;
  const std::uint64_t count = d.varint_at_most(d.r.remaining());
  if (!d.failed) {
    events.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count && !d.failed; ++i) {
      LogEvent ev;
      if (get_log_event(d, ev)) events.push_back(std::move(ev));
    }
  }
  return finish(d, std::move(events), "log reply");
}

std::vector<std::uint8_t> encode_catalog(const CatalogInfo& info) {
  ByteWriter w;
  put_varint(w, info.total_flows);
  put_varint(w, info.total_packets);
  put_varint(w, info.total_bytes);
  put_varint(w, info.total_log_events);
  put_varint(w, info.segments);
  put_varint(w, info.cold_segments);
  put_varint(w, zigzag(info.earliest.nanos()));
  put_varint(w, zigzag(info.latest.nanos()));
  for (const auto n : info.flows_per_label) put_varint(w, n);
  put_varint(w, info.evicted_by_retention);
  return std::move(w).take();
}

Result<CatalogInfo> decode_catalog(std::span<const std::uint8_t> body) {
  Decoder d(body);
  CatalogInfo info;
  info.total_flows = d.varint();
  info.total_packets = d.varint();
  info.total_bytes = d.varint();
  info.total_log_events = d.varint();
  info.segments = static_cast<std::size_t>(d.varint());
  info.cold_segments = static_cast<std::size_t>(d.varint());
  info.earliest = Timestamp::from_nanos(unzigzag(d.varint()));
  info.latest = Timestamp::from_nanos(unzigzag(d.varint()));
  for (auto& n : info.flows_per_label) n = d.varint();
  info.evicted_by_retention = d.varint();
  return finish(d, info, "catalog");
}

std::vector<std::uint8_t> encode_flow_count(std::uint64_t count) {
  ByteWriter w;
  put_varint(w, count);
  return std::move(w).take();
}

Result<std::uint64_t> decode_flow_count(std::span<const std::uint8_t> body) {
  Decoder d(body);
  const std::uint64_t count = d.varint();
  return finish(d, count, "flow count");
}

std::vector<std::uint8_t> encode_error(const Error& error) {
  ByteWriter w;
  put_string(w, error.code);
  put_string(w, error.message);
  return std::move(w).take();
}

Status decode_error(std::span<const std::uint8_t> body, Error& out) {
  Decoder d(body);
  Error e;
  e.code = get_string(d);
  e.message = get_string(d);
  if (d.failed || !d.r.ok()) return corrupt("error reply");
  if (d.r.remaining() != 0) return corrupt("trailing bytes");
  out = std::move(e);
  return Status::success();
}

}  // namespace campuslab::store::wire
