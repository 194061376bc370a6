// One hostile-input harness for the three framed formats: CLSEG02
// segment files, CLRP01 wire frames and the CLMRG01 model registry.
//
// Each format is a small trait: valid records (files in four sizes, or
// one frame per message type), decode and encode, the header offsets of
// its version byte, payload length, payload checksum and one spare byte
// no field check reads, and its error prefix and extra codes. Four
// typed tests run on every format: a stable error-code table, a
// byte-by-byte truncation ladder, a seeded storm of structural
// mutations, and a storm of payload mutations behind resealed checksums
// that reaches the validators the checksums guard. Every outcome is a
// clean error with a stable code or a value that re-encodes stably —
// never a crash, an out-of-bounds read (the ASAN CI job runs this
// binary) or an allocation bomb. Every failure names the format, the
// seed and the iteration, so it replays; set CAMPUSLAB_FUZZ_SEED to add
// a seed. Format-specific tests that reuse the traits follow the typed
// suite; for CLSEG02 they include the plan projections over the same
// resealed storm.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "campuslab/control/model_registry.h"
#include "campuslab/store/datastore.h"
#include "campuslab/store/query_engine.h"
#include "campuslab/store/segment_file.h"
#include "campuslab/store/wire.h"
#include "campuslab/util/hash.h"
#include "campuslab/util/rng.h"

// A named namespace, not an anonymous one: the typed tests' names
// carry the trait's qualified name.
namespace campuslab::framed {

namespace fs = std::filesystem;
namespace wire = store::wire;
using Bytes = std::vector<std::uint8_t>;
using View = std::span<const std::uint8_t>;
using capture::FlowRecord;
using packet::Ipv4Address;

// Per seed; two fixed seeds give every format at least the iterations
// its old per-format suite ran.
constexpr int kStormIterations = 4000;
constexpr int kResealedIterations = 2000;

// Fixed seeds, plus CAMPUSLAB_FUZZ_SEED when it is set.
std::vector<std::uint64_t> fuzz_seeds() {
  std::vector<std::uint64_t> seeds{1001, 1002};
  if (const char* env = std::getenv("CAMPUSLAB_FUZZ_SEED"))
    seeds.push_back(std::strtoull(env, nullptr, 10));
  return seeds;
}

// Names the format, the seed and the iteration, so a failure replays.
template <typename F>
std::string where(std::uint64_t seed, int iter) {
  return std::string(F::kName) + " seed=" + std::to_string(seed) +
         " iter=" + std::to_string(iter);
}

template <typename F>
bool known_code(const std::string& code) {
  for (const char* suffix :
       {"magic", "version", "truncated", "checksum", "corrupt"})
    if (code == std::string(F::kPrefix) + suffix) return true;
  return std::find(F::kExtraCodes.begin(), F::kExtraCodes.end(), code) !=
         F::kExtraCodes.end();
}

// One random structural mutation, in place.
void mutate(Rng& rng, Bytes& bytes) {
  switch (rng.below(6)) {
    case 0:  // truncate anywhere, including to zero
      bytes.resize(rng.below(bytes.size() + 1));
      break;
    case 1: {  // flip 1-8 random bytes
      if (bytes.empty()) break;
      const std::size_t flips = 1 + rng.below(8);
      for (std::size_t i = 0; i < flips; ++i)
        bytes[rng.below(bytes.size())] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      break;
    }
    case 2: {  // zero a random region (wipes counts and lengths)
      if (bytes.empty()) break;
      const std::size_t begin = rng.below(bytes.size());
      const std::size_t len = rng.below(bytes.size() - begin + 1);
      std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(begin), len, 0);
      break;
    }
    case 3: {  // saturate a random region (maxes the same fields)
      if (bytes.empty()) break;
      const std::size_t begin = rng.below(bytes.size());
      const std::size_t len = rng.below(bytes.size() - begin + 1);
      std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(begin), len,
                  0xFF);
      break;
    }
    case 4: {  // append garbage
      const std::size_t extra = 1 + rng.below(64);
      for (std::size_t i = 0; i < extra; ++i)
        bytes.push_back(static_cast<std::uint8_t>(rng.below(256)));
      break;
    }
    default: {  // replace the whole tail with noise
      if (bytes.empty()) break;
      for (std::size_t i = rng.below(bytes.size()); i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(rng.below(256));
      break;
    }
  }
}

// One random mutation of the payload only: flip, saturate, drop a tail
// or append. reseal() then makes the header agree with it.
void mutate_payload(Rng& rng, Bytes& bytes, std::size_t header) {
  const std::size_t payload = bytes.size() - header;
  switch (rng.below(4)) {
    case 0:
      for (std::size_t i = 0, flips = 1 + rng.below(4); i < flips; ++i)
        bytes[header + rng.below(payload)] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      break;
    case 1: {
      const std::size_t begin = header + rng.below(payload);
      const std::size_t end =
          std::min(begin + 1 + rng.below(12), bytes.size());
      std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(begin),
                bytes.begin() + static_cast<std::ptrdiff_t>(end), 0xFF);
      break;
    }
    case 2:
      bytes.resize(header + rng.below(payload));
      break;
    default:
      for (std::size_t i = 0, extra = 1 + rng.below(32); i < extra; ++i)
        bytes.push_back(static_cast<std::uint8_t>(rng.below(256)));
      break;
  }
}

void put_be(Bytes& bytes, std::size_t at, std::size_t width,
            std::uint64_t v) {
  for (std::size_t i = 0; i < width; ++i)
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * (width - 1 - i)));
}

std::uint64_t get_be64(const Bytes& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v = v << 8 | bytes[at + i];
  return v;
}

// Make a tampered record's header agree with its payload, so decoding
// reaches the structural validators behind the checksum gate. A format
// with its own reseal() (CLSEG02, whose header also holds a section
// directory) supplies it; the default rewrites the payload length, the
// payload FNV-1a and the header FNV-1a (the last 8 header bytes, over
// the bytes before them).
template <typename F>
void reseal(Bytes& bytes) {
  if constexpr (requires { F::reseal(bytes); }) {
    F::reseal(bytes);
  } else {
    const View all(bytes);
    const std::size_t h = F::kHeaderBytes;
    put_be(bytes, F::kLengthAt, F::kLengthBytes, bytes.size() - h);
    put_be(bytes, F::kPayloadSumAt, 8, util::fnv1a(all.subspan(h)));
    put_be(bytes, h - 8, 8, util::fnv1a(all.first(h - 8)));
  }
}

// Checks a format runs on damaged bytes besides decode, given the
// record they came from (CLSEG02: the zone map, read without the
// payload).
template <typename F>
::testing::AssertionResult side_checks(View bytes, View original) {
  if constexpr (requires { F::side_checks(bytes, original); })
    return F::side_checks(bytes, original);
  else
    return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------- CLSEG02

FlowRecord sample_flow(Rng& rng, double start_s) {
  FlowRecord f;
  f.tuple = packet::FiveTuple{
      Ipv4Address(10, 2, static_cast<std::uint8_t>(rng.below(4)),
                  static_cast<std::uint8_t>(rng.below(32))),
      Ipv4Address(192, 0, 2, static_cast<std::uint8_t>(rng.below(16))),
      static_cast<std::uint16_t>(rng.below(65536)),
      static_cast<std::uint16_t>(rng.below(65536)),
      static_cast<std::uint8_t>(rng.chance(0.3) ? 17 : 6)};
  f.first_ts = Timestamp::from_seconds(start_s);
  f.last_ts = f.first_ts + Duration::nanos(
                  static_cast<std::int64_t>(rng.below(1'000'000'000)));
  f.packets = rng.below(10'000);
  f.bytes = rng.below(1'000'000);
  f.payload_bytes = rng.below(100'000);
  f.fwd_packets = rng.below(5'000);
  f.rev_packets = rng.below(5'000);
  f.syn_count = static_cast<std::uint32_t>(rng.below(4));
  f.psh_count = static_cast<std::uint32_t>(rng.below(32));
  f.saw_dns = rng.chance(0.2);
  f.label_packets[rng.below(packet::kTrafficLabelCount)] = 1 + rng.below(100);
  return f;
}

struct SegmentFormat {
  static constexpr const char* kName = "CLSEG02";
  static constexpr const char* kPrefix = "segment_";
  static constexpr std::array kExtraCodes{"io"};
  static constexpr std::size_t kHeaderBytes = store::kSegmentFileHeaderBytes;
  static constexpr std::size_t kVersionAt = 11;  // low byte of a u32
  static constexpr std::size_t kLengthAt = 16, kLengthBytes = 8;
  static constexpr std::size_t kPayloadSumAt = 24;
  static constexpr std::size_t kSpareAt = 15;  // the reserved flags
  // The section directory: (offset u64, length u64) per section, just
  // before the header's FNV-1a.
  static constexpr std::size_t kDirectoryAt =
      kHeaderBytes - 8 - 16 * store::kSegmentSections;
  using Value = std::shared_ptr<store::Segment>;

  // A valid file image, indexed by the store's own Segment::seal().
  static Bytes file(Rng& rng, std::size_t flows) {
    store::Segment seg(flows);
    for (std::size_t i = 0; i < flows; ++i) {
      store::StoredFlow stored{i + 1,
                               sample_flow(rng, static_cast<double>(i))};
      seg.min_ts = std::min(seg.min_ts, stored.flow.first_ts);
      seg.max_ts = std::max(seg.max_ts, stored.flow.last_ts);
      seg.flows.push_back(stored);
    }
    seg.seal();
    return store::encode_segment(seg);
  }
  static std::vector<Bytes> corpus(Rng& rng) {
    return {file(rng, 0), file(rng, 1), file(rng, 60), file(rng, 300)};
  }
  static Result<Value> decode(View bytes) {
    return store::decode_segment(bytes);
  }
  static Bytes encode(const Value& value) {
    return store::encode_segment(*value);
  }
  static Result<Value> read_file(const std::string& path) {
    return store::read_segment_file(path);
  }
  // Recompute the directory for the payload's new length (a cut
  // shortens the section it lands in and empties the ones after it;
  // appended bytes join the last section), then the payload length,
  // the payload checksum64 and the header FNV-1a.
  static void reseal(Bytes& bytes) {
    const std::uint64_t size = bytes.size() - kHeaderBytes;
    std::uint64_t at = 0;
    for (std::size_t s = 0; s < store::kSegmentSections; ++s) {
      const std::size_t entry = kDirectoryAt + 16 * s;
      const std::uint64_t length =
          s + 1 == store::kSegmentSections
              ? size - at
              : std::min(get_be64(bytes, entry + 8), size - at);
      put_be(bytes, entry, 8, at);
      put_be(bytes, entry + 8, 8, length);
      at += length;
    }
    reseal_checksums(bytes);
  }
  // The payload length and both checksums, the directory as it stands.
  static void reseal_checksums(Bytes& bytes) {
    const View all(bytes);
    put_be(bytes, kLengthAt, kLengthBytes, bytes.size() - kHeaderBytes);
    put_be(bytes, kPayloadSumAt, 8,
           util::checksum64(all.subspan(kHeaderBytes)));
    put_be(bytes, kHeaderBytes - 8, 8,
           util::fnv1a(all.first(kHeaderBytes - 8)));
  }
  // The zone map decodes only from a whole header identical to the
  // original's: the header checksum guards it.
  static ::testing::AssertionResult side_checks(View bytes, View original) {
    auto zone = store::decode_zone_map(bytes);
    const auto h = static_cast<std::ptrdiff_t>(kHeaderBytes);
    if (zone.ok() ? bytes.size() >= kHeaderBytes &&
                        std::equal(bytes.begin(), bytes.begin() + h,
                                   original.begin())
                  : known_code<SegmentFormat>(zone.error().code))
      return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "zone map of " << bytes.size() << " bytes: "
           << (zone.ok() ? "decoded" : zone.error().code);
  }
};

// ----------------------------------------------------------- CLRP01

store::ShardIngestBatch ingest_batch(Rng& rng, std::size_t rows) {
  store::ShardIngestBatch batch;
  std::uint64_t id = 1;
  for (std::size_t i = 0; i < rows; ++i) {
    batch.rows.push_back(
        store::StoredFlow{id, sample_flow(rng, rng.uniform(0, 1000))});
    id += 1 + rng.below(3);
  }
  return batch;
}

store::AggregateResult aggregate_result(Rng& rng) {
  store::AggregateResult result;
  result.group_by = static_cast<store::GroupBy>(rng.below(3));
  for (std::size_t i = 0, n = 1 + rng.below(6); i < n; ++i)
    result.rows.push_back({rng.below(1u << 20), 1 + rng.below(50),
                           rng.below(10'000), rng.below(1'000'000)});
  result.matched_flows = rng.below(500);
  result.stats.rows_scanned = rng.below(10'000);
  return result;
}

store::LogEvent log_event(Rng& rng) {
  store::LogEvent ev;
  ev.ts = Timestamp::from_seconds(rng.uniform(0, 600));
  ev.source = "ids";
  ev.severity = static_cast<int>(rng.below(4));
  ev.message = std::string(rng.below(40), 'x');
  return ev;
}

template <typename T, typename Encode>
Result<Bytes> reencoded(Result<T> decoded, Encode encode) {
  if (!decoded.ok()) return decoded.error();
  return encode(decoded.value());
}

// A frame body through its type's codec, as a connection's handler
// decodes it, and back to canonical bytes. Bodiless types pass through.
Result<Bytes> canonical_body(wire::MsgType type, View body) {
  using namespace wire;
  switch (type) {
    case MsgType::kIngest:
      return reencoded(decode_ingest(body), encode_ingest);
    case MsgType::kIngestAck:
      return reencoded(decode_ingest_ack(body), encode_ingest_ack);
    case MsgType::kIngestLog:
      return reencoded(decode_log_event(body), encode_log_event);
    case MsgType::kQuery:
      return reencoded(decode_query_plan(body), encode_query_plan);
    case MsgType::kQueryRows:
      return reencoded(decode_query_rows(body), encode_query_rows);
    case MsgType::kAggregate:
      return reencoded(decode_aggregate_plan(body), encode_aggregate_plan);
    case MsgType::kAggregateReply:
      return reencoded(decode_aggregate_result(body),
                       encode_aggregate_result);
    case MsgType::kQueryLogs:
      return reencoded(decode_log_query(body), encode_log_query);
    case MsgType::kLogReply:
      return reencoded(decode_log_reply(body), encode_log_reply);
    case MsgType::kCatalogReply:
      return reencoded(decode_catalog(body), encode_catalog);
    case MsgType::kFlowCountReply:
      return reencoded(decode_flow_count(body), encode_flow_count);
    case MsgType::kError: {
      Error error;
      if (auto s = decode_error(body, error); !s.ok()) return s.error();
      return encode_error(error);
    }
    default:
      return Bytes(body.begin(), body.end());
  }
}

// One valid frame of every message type that has a body, so the storms
// reach every body codec.
std::vector<Bytes> wire_frames(Rng& rng) {
  using wire::MsgType;
  const auto batch = ingest_batch(rng, 1 + rng.below(40));
  store::ShardQueryPlan plan;
  plan.query.on_port(443).at_least_bytes(rng.below(10'000));
  plan.after_id = rng.below(100);
  store::ShardQueryRows reply;
  reply.rows = batch.rows;
  reply.exhausted = rng.chance(0.5);
  reply.stats.rows_scanned = batch.rows.size();
  wire::AggregatePlan agg;
  agg.group_by = static_cast<store::GroupBy>(rng.below(3));
  agg.top_k = rng.below(10);
  store::LogQuery logs;
  logs.source = "ids";
  logs.min_severity = static_cast<int>(rng.below(4));
  const auto ev = log_event(rng);
  store::CatalogInfo info;
  info.total_flows = batch.rows.size();
  info.segments = rng.below(20);

  const std::pair<MsgType, Bytes> bodies[] = {
      {MsgType::kIngest, wire::encode_ingest(batch)},
      {MsgType::kIngestAck, wire::encode_ingest_ack({batch.rows.size()})},
      {MsgType::kQuery, wire::encode_query_plan(plan)},
      {MsgType::kQueryRows, wire::encode_query_rows(reply)},
      {MsgType::kAggregate, wire::encode_aggregate_plan(agg)},
      {MsgType::kAggregateReply,
       wire::encode_aggregate_result(aggregate_result(rng))},
      {MsgType::kQueryLogs, wire::encode_log_query(logs)},
      {MsgType::kIngestLog, wire::encode_log_event(ev)},
      {MsgType::kLogReply, wire::encode_log_reply({ev, log_event(rng)})},
      {MsgType::kCatalogReply, wire::encode_catalog(info)},
      {MsgType::kFlowCountReply, wire::encode_flow_count(rng.below(1000))},
      {MsgType::kError,
       wire::encode_error(Error::make("shard_unknown", "no such shard"))},
  };
  std::vector<Bytes> frames;
  for (const auto& [type, body] : bodies)
    frames.push_back(wire::encode_frame(
        type, static_cast<std::uint32_t>(rng.below(4)), 1 + rng.below(1000),
        body));
  return frames;
}

struct WireFormat {
  static constexpr const char* kName = "CLRP01";
  static constexpr const char* kPrefix = "wire_";
  static constexpr std::array kExtraCodes{"wire_flags", "wire_type",
                                          "wire_oversize"};
  static constexpr std::size_t kHeaderBytes = wire::kHeaderSize;
  static constexpr std::size_t kVersionAt = 4;
  static constexpr std::size_t kLengthAt = 20, kLengthBytes = 4;
  static constexpr std::size_t kPayloadSumAt = 24;
  static constexpr std::size_t kSpareAt = 12;  // the request id
  struct Value {
    wire::FrameHeader header;
    Bytes body;  // canonical, re-encoded by the body codec
  };

  static std::vector<Bytes> corpus(Rng& rng) { return wire_frames(rng); }
  // One frame through FrameAssembler, as a connection reads it, then
  // through its type's body codec.
  static Result<Value> decode(View bytes) {
    wire::FrameAssembler assembler;
    assembler.feed(bytes);
    auto next = assembler.next();
    if (!next.ok()) return next.error();
    if (!next.value().has_value() || assembler.buffered() != 0)
      return Error::make("wire_truncated", "not exactly one whole frame");
    auto body = canonical_body(next.value()->header.type, next.value()->body);
    if (!body.ok()) return body.error();
    return Value{next.value()->header, std::move(body).value()};
  }
  static Bytes encode(const Value& value) {
    return wire::encode_frame(value.header.type, value.header.shard,
                              value.header.request_id, value.body);
  }
};

// ---------------------------------------------------------- CLMRG01

constexpr const char* kTreeText =
    "campuslab-tree v1\n"
    "2 2 3\n"
    "udp_fraction\n"
    "pkt_len\n"
    "benign\n"
    "attack\n"
    "0 3.5 1 2 100 0.5 0.5\n"
    "-1 0 -1 -1 75 0.75 0.25\n"
    "-1 0 -1 -1 25 0.125 0.875\n";

control::RegistryEntry sample_entry(Rng& rng, std::uint32_t version) {
  control::RegistryEntry entry;
  entry.version = version;
  entry.trained_at = Timestamp::from_nanos(
      static_cast<std::int64_t>(rng.below(1'000'000'000'000ull)));
  entry.candidate_accuracy = static_cast<double>(rng.below(1'000'000)) * 1e-6;
  entry.incumbent_accuracy = static_cast<double>(rng.below(1'000'000)) * 1e-6;
  entry.package.task = control::AutomationTask::dns_amplification_drop();
  entry.package.task.rate_limit_pps =
      static_cast<double>(1 + rng.below(10'000));
  auto tree = ml::DecisionTree::deserialize(kTreeText);
  EXPECT_TRUE(tree.ok());
  entry.package.student = std::move(tree).value();
  entry.package.quantizer = dataplane::Quantizer::from_levels(
      {static_cast<double>(rng.below(100)), -1.5},
      {0.25, static_cast<double>(1 + rng.below(8))});
  entry.package.strategy = rng.chance(0.5) ? "rule_tcam" : "tree_walk";
  entry.package.resources.stages_used = static_cast<int>(rng.below(12));
  entry.package.resources.tcam_entries = rng.below(4096);
  entry.package.resources.sram_bits = rng.below(1 << 20);
  entry.package.resources.register_arrays_used =
      static_cast<int>(rng.below(8));
  return entry;
}

struct RegistryFormat {
  static constexpr const char* kName = "CLMRG01";
  static constexpr const char* kPrefix = "registry_";
  static constexpr std::array kExtraCodes{"registry_io"};
  static constexpr std::size_t kHeaderBytes = 32;
  static constexpr std::size_t kVersionAt = 8;
  static constexpr std::size_t kLengthAt = 12, kLengthBytes = 4;
  static constexpr std::size_t kPayloadSumAt = 16;
  static constexpr std::size_t kSpareAt = 10;  // the reserved u16
  using Value = control::RegistryFile;

  static Bytes file(Rng& rng, std::size_t entries) {
    control::RegistryFile file;
    for (std::size_t i = 0; i < entries; ++i)
      file.entries.push_back(
          sample_entry(rng, static_cast<std::uint32_t>(i + 1)));
    if (entries > 0)
      file.active_version =
          static_cast<std::uint32_t>(1 + rng.below(entries));
    return control::encode_registry(file);
  }
  static std::vector<Bytes> corpus(Rng& rng) {
    return {file(rng, 0), file(rng, 1), file(rng, 3), file(rng, 6)};
  }
  static Result<Value> decode(View bytes) {
    return control::decode_registry(bytes);
  }
  static Bytes encode(const Value& value) {
    return control::encode_registry(value);
  }
  static Result<Value> read_file(const std::string& path) {
    return control::read_registry_file(path);
  }
};

// ------------------------------------------------------- the battery

template <typename F>
class FramedCorruption : public ::testing::Test {};

using Formats = ::testing::Types<SegmentFormat, WireFormat, RegistryFormat>;
TYPED_TEST_SUITE(FramedCorruption, Formats);

TYPED_TEST(FramedCorruption, StableErrorCodes) {
  using F = TypeParam;
  Rng rng(fuzz_seeds()[0]);
  const auto corpus = F::corpus(rng);
  const Bytes base = *std::max_element(  // the largest valid record
      corpus.begin(), corpus.end(),
      [](const Bytes& a, const Bytes& b) { return a.size() < b.size(); });
  ASSERT_TRUE(F::decode(base).ok()) << F::kName;

  struct Case {
    const char* what;
    void (*damage)(Bytes&);
    const char* code;
  };
  const Case table[] = {
      {"flipped magic byte", [](Bytes& b) { b[0] ^= 0xFF; }, "magic"},
      {"future version", [](Bytes& b) { b[F::kVersionAt] = 0x7F; },
       "version"},
      {"one byte shorter than the header",
       [](Bytes& b) { b.resize(F::kHeaderBytes - 1); }, "truncated"},
      {"last payload byte missing", [](Bytes& b) { b.pop_back(); },
       "truncated"},
      {"flipped spare header byte",
       [](Bytes& b) { b[F::kSpareAt] ^= 0x01; }, "checksum"},
      {"flipped payload byte",
       [](Bytes& b) { b[F::kHeaderBytes + 3] ^= 0x01; }, "checksum"},
      {"first payload byte 0xFF, resealed",
       [](Bytes& b) {
         b[F::kHeaderBytes] = 0xFF;
         reseal<F>(b);
       },
       "corrupt"},
      {"payload byte appended, resealed",
       [](Bytes& b) {
         b.push_back(0);
         reseal<F>(b);
       },
       "corrupt"},
  };
  for (const Case& c : table) {
    Bytes bad = base;
    c.damage(bad);
    auto r = F::decode(bad);
    ASSERT_FALSE(r.ok()) << F::kName << ": decoded a " << c.what;
    EXPECT_EQ(r.error().code, std::string(F::kPrefix) + c.code)
        << F::kName << ": " << c.what << " (" << r.error().message << ")";
  }
  // A file format's first extra code is its filesystem error.
  if constexpr (requires { F::read_file(std::string()); }) {
    EXPECT_EQ(F::read_file("/nonexistent/campuslab.record").error().code,
              F::kExtraCodes[0]);
  }
}

// Every prefix of every valid record, byte by byte: errors all the way
// up, no crash, no over-read.
TYPED_TEST(FramedCorruption, TruncationLadder) {
  using F = TypeParam;
  Rng rng(fuzz_seeds()[0]);
  for (const Bytes& base : F::corpus(rng)) {
    for (std::size_t len = 0; len < base.size(); ++len) {
      const View prefix = View(base).first(len);
      auto r = F::decode(prefix);
      ASSERT_FALSE(r.ok()) << F::kName << ": decoded a " << len
                           << "-byte prefix of a " << base.size()
                           << "-byte record";
      ASSERT_TRUE(known_code<F>(r.error().code))
          << F::kName << " len=" << len << ": " << r.error().code;
      ASSERT_TRUE(side_checks<F>(prefix, base))
          << F::kName << " len=" << len;
    }
  }
}

// Success is allowed only when the mutations reproduced the original
// bytes; anything else must be a clean error. The checksums make a
// byte-accurate impostor the only thing that decodes, so no mutation
// yields silently wrong values.
TYPED_TEST(FramedCorruption, SeededMutationStorm) {
  using F = TypeParam;
  for (const std::uint64_t seed : fuzz_seeds()) {
    Rng rng(seed);
    const auto corpus = F::corpus(rng);
    for (int iter = 0; iter < kStormIterations; ++iter) {
      const Bytes& original = corpus[rng.below(corpus.size())];
      Bytes bytes = original;
      for (std::size_t m = 0, n = 1 + rng.below(3); m < n; ++m)
        mutate(rng, bytes);
      auto r = F::decode(bytes);
      if (r.ok()) {
        ASSERT_EQ(bytes, original) << where<F>(seed, iter) << ": decoded "
                                   << bytes.size() << " mutated bytes";
      } else {
        ASSERT_TRUE(known_code<F>(r.error().code))
            << where<F>(seed, iter) << ": unstable code " << r.error().code;
      }
      ASSERT_TRUE(side_checks<F>(bytes, original)) << where<F>(seed, iter);
    }
  }
}

// Payload mutations behind resealed checksums drive the structural
// validators: bounds, enum ranges, dictionary indexes, monotonic
// versions, exact consumption. A resealed mutation may be another valid
// record (a flipped counter byte is just another legal value); what
// must hold is that encode∘decode settles after one pass, or the
// decoder let garbage through.
TYPED_TEST(FramedCorruption, ResealedMutationStorm) {
  using F = TypeParam;
  for (const std::uint64_t seed : fuzz_seeds()) {
    Rng rng(seed);
    const auto corpus = F::corpus(rng);
    for (int iter = 0; iter < kResealedIterations; ++iter) {
      Bytes bytes = corpus[rng.below(corpus.size())];
      mutate_payload(rng, bytes, F::kHeaderBytes);
      reseal<F>(bytes);
      auto r = F::decode(bytes);
      if (!r.ok()) {
        ASSERT_EQ(r.error().code, std::string(F::kPrefix) + "corrupt")
            << where<F>(seed, iter) << ": " << r.error().message;
        continue;
      }
      const Bytes once = F::encode(r.value());
      auto again = F::decode(once);
      ASSERT_TRUE(again.ok()) << where<F>(seed, iter)
                              << ": the re-encoded mutation fails with "
                              << again.error().code;
      ASSERT_EQ(F::encode(again.value()), once) << where<F>(seed, iter);
    }
  }
}

// ------------------------------------------- format-specific: CLSEG02

// Every field of two stored rows, equal.
bool same_row(const store::StoredFlow& a, const store::StoredFlow& b) {
  const FlowRecord& x = a.flow;
  const FlowRecord& y = b.flow;
  return a.id == b.id && x.tuple == y.tuple &&
         x.initial_direction == y.initial_direction &&
         x.first_ts == y.first_ts && x.last_ts == y.last_ts &&
         x.packets == y.packets && x.bytes == y.bytes &&
         x.payload_bytes == y.payload_bytes &&
         x.fwd_packets == y.fwd_packets && x.rev_packets == y.rev_packets &&
         x.syn_count == y.syn_count && x.synack_count == y.synack_count &&
         x.fin_count == y.fin_count && x.rst_count == y.rst_count &&
         x.psh_count == y.psh_count && x.saw_dns == y.saw_dns &&
         x.label_packets == y.label_packets &&
         x.scenario_id == y.scenario_id;
}

struct Probe {
  store::IndexKind plan;
  std::uint64_t key;
};

// A time scan, then each index plan with a key the file holds (when it
// holds any) and a random one.
std::vector<Probe> probes_for(const store::Segment& original, Rng& rng) {
  using store::IndexKind;
  std::vector<Probe> out{{IndexKind::kTimeScan, 0}};
  const auto add = [&](IndexKind plan, const auto& index,
                       std::uint64_t random_key) {
    if (index.size() > 0)
      out.push_back({plan, index.keys[rng.below(index.size())]});
    out.push_back({plan, random_key});
  };
  add(IndexKind::kHost, original.by_host,
      Ipv4Address(10, 2, static_cast<std::uint8_t>(rng.below(5)),
                  static_cast<std::uint8_t>(rng.below(40)))
          .value());
  add(IndexKind::kPort, original.by_port, rng.below(65536));
  out.push_back({IndexKind::kLabel, rng.below(packet::kTrafficLabelCount)});
  return out;
}

// A projection against the whole decode of the same file: a time scan
// holds every row and no index; an index read holds exactly the rows
// the whole decode's index names for its key, in that order, indexed
// under the key as rows 0..k-1.
::testing::AssertionResult projection_matches(const store::Segment& whole,
                                              const store::Segment& part,
                                              const Probe& probe) {
  using store::IndexKind;
  using Kind = store::SegmentProjection::Kind;
  std::vector<std::uint32_t> named;
  std::span<const std::uint32_t> held;  // the part's own index answer
  switch (probe.plan) {
    case IndexKind::kHost: {
      const auto key = static_cast<std::uint32_t>(probe.key);
      const auto rows = whole.by_host.find(key);
      named.assign(rows.begin(), rows.end());
      held = part.by_host.find(key);
      break;
    }
    case IndexKind::kPort: {
      const auto key = static_cast<std::uint16_t>(probe.key);
      const auto rows = whole.by_port.find(key);
      named.assign(rows.begin(), rows.end());
      held = part.by_port.find(key);
      break;
    }
    case IndexKind::kLabel:
      named = whole.by_label[probe.key];
      held = part.by_label[probe.key];
      break;
    case IndexKind::kTimeScan:
      named.resize(whole.flows.size());
      std::iota(named.begin(), named.end(), 0u);
      if (part.projection.kind != Kind::kRows || part.by_host.size() != 0 ||
          part.by_port.size() != 0)
        return ::testing::AssertionFailure() << "time scan kept an index";
      break;
  }
  if (probe.plan != IndexKind::kTimeScan) {
    if (part.projection.kind != Kind::kKey ||
        part.projection.plan != probe.plan ||
        part.projection.key != probe.key)
      return ::testing::AssertionFailure() << "wrong projection tag";
    if (held.size() != named.size())
      return ::testing::AssertionFailure()
             << "index holds " << held.size() << " rows, not "
             << named.size();
    for (std::uint32_t k = 0; k < held.size(); ++k)
      if (held[k] != k)
        return ::testing::AssertionFailure() << "held row " << k << " at "
                                             << held[k];
  }
  if (part.flows.size() != named.size())
    return ::testing::AssertionFailure()
           << part.flows.size() << " rows, not " << named.size();
  for (std::size_t k = 0; k < named.size(); ++k)
    if (!same_row(part.flows[k], whole.flows[named[k]]))
      return ::testing::AssertionFailure() << "row " << k << " (file row "
                                           << named[k] << ") differs";
  return ::testing::AssertionSuccess();
}

// The plan projections over the resealed mutation storm. A projection
// checks both checksums as the whole decode does, then reads its own
// index section and each column only up to its last row, and it checks
// every value it reads as the whole decode checks it. So where the
// whole decode succeeds, every projection succeeds and holds exactly
// the whole decode's rows at the offsets its index names; where the
// whole decode fails, a projection fails with a known code or, having
// never reached the damage, succeeds. None may read past the file: the
// ASAN job runs this binary.
TEST(SegmentCorruption, ProjectionsMatchTheWholeDecodeOrFailCleanly) {
  for (const std::uint64_t seed : fuzz_seeds()) {
    Rng rng(seed);
    const auto corpus = SegmentFormat::corpus(rng);
    std::vector<std::shared_ptr<store::Segment>> originals;
    for (const Bytes& file : corpus) {
      auto decoded = store::decode_segment(file);
      ASSERT_TRUE(decoded.ok());
      originals.push_back(std::move(decoded).value());
    }
    std::size_t matched = 0;
    for (int iter = 0; iter < kResealedIterations; ++iter) {
      const std::size_t pick = rng.below(corpus.size());
      Bytes bytes = corpus[pick];
      if (iter % 8 != 0)
        mutate_payload(rng, bytes, SegmentFormat::kHeaderBytes);
      SegmentFormat::reseal(bytes);
      const auto whole = store::decode_segment(bytes);
      ASSERT_TRUE(whole.ok() || whole.error().code == "segment_corrupt")
          << where<SegmentFormat>(seed, iter) << ": " << whole.error().code;
      for (const Probe& probe : probes_for(*originals[pick], rng)) {
        const auto part =
            store::decode_projection(bytes, probe.plan, probe.key);
        const std::string context =
            where<SegmentFormat>(seed, iter) + " plan=" +
            std::string(store::to_string(probe.plan)) +
            " key=" + std::to_string(probe.key);
        if (!part.ok()) {
          ASSERT_TRUE(known_code<SegmentFormat>(part.error().code))
              << context << ": unstable code " << part.error().code;
          ASSERT_FALSE(whole.ok())
              << context << ": a projection failed with "
              << part.error().code << " where the whole decode succeeded";
          continue;
        }
        if (!whole.ok()) continue;
        ASSERT_TRUE(projection_matches(*whole.value(), *part.value(), probe))
            << context;
        ++matched;
      }
    }
    // One file in eight goes in unmutated, and each file gets at least
    // four probes (six when it holds rows), all of which must compare.
    EXPECT_GE(matched, static_cast<std::size_t>(kResealedIterations) / 8 * 4)
        << "seed " << seed << ": too few projections compared";
  }
}

// The directory must tile the payload: each section starting where the
// one before it ends, the last ending with the payload. Behind valid
// checksums, any other directory is corrupt, for the whole decode and
// for every projection alike; the zone map, which does not read it,
// still decodes.
TEST(SegmentCorruption, DirectoryThatDoesNotTileIsCorrupt) {
  Rng rng(77);
  const Bytes base = SegmentFormat::file(rng, 60);
  const auto original = store::decode_segment(base);
  ASSERT_TRUE(original.ok());
  constexpr std::size_t kLast = store::kSegmentSections - 1;
  const auto field = [](std::size_t section, bool length) {
    return SegmentFormat::kDirectoryAt + 16 * section + (length ? 8 : 0);
  };
  const auto shift = [&](Bytes& b, std::size_t section, bool length,
                         std::int64_t by) {
    const std::size_t at = field(section, length);
    put_be(b, at, 8, get_be64(b, at) + static_cast<std::uint64_t>(by));
  };
  struct Case {
    const char* what;
    std::function<void(Bytes&)> damage;
  };
  const Case cases[] = {
      {"first section starts past 0",
       [&](Bytes& b) {
         shift(b, 0, false, 1);
         shift(b, 0, true, -1);
       }},
      {"a section runs into the next",
       [&](Bytes& b) { shift(b, 4, true, 1); }},
      {"a gap before a section",
       [&](Bytes& b) {
         shift(b, 9, false, 1);
         shift(b, 9, true, -1);
       }},
      {"a section starts inside the one before",
       [&](Bytes& b) {
         shift(b, 12, false, -1);
         shift(b, 12, true, 1);
       }},
      {"the last section stops short",
       [&](Bytes& b) { shift(b, kLast, true, -1); }},
      {"the last section runs past the payload",
       [&](Bytes& b) { shift(b, kLast, true, std::int64_t{1} << 40); }},
      {"an offset near 2^64",
       [&](Bytes& b) { put_be(b, field(7, false), 8, ~std::uint64_t{0}); }},
      {"a length near 2^64",
       [&](Bytes& b) { put_be(b, field(7, true), 8, ~std::uint64_t{0}); }},
  };
  for (const Case& c : cases) {
    Bytes bad = base;
    c.damage(bad);
    SegmentFormat::reseal_checksums(bad);
    const auto whole = store::decode_segment(bad);
    ASSERT_FALSE(whole.ok()) << c.what;
    EXPECT_EQ(whole.error().code, "segment_corrupt") << c.what;
    for (const Probe& probe : probes_for(*original.value(), rng)) {
      const auto part = store::decode_projection(bad, probe.plan, probe.key);
      ASSERT_FALSE(part.ok()) << c.what << ", plan "
                              << store::to_string(probe.plan);
      EXPECT_EQ(part.error().code, "segment_corrupt") << c.what;
    }
    EXPECT_TRUE(store::decode_zone_map(bad).ok()) << c.what;
  }
}

// A corrupt file behind a live query: the query completes, reports the
// failure in its stats, returns every row from intact segments, and
// never crashes. Direct reads of the same file return a clean error.
TEST(SegmentCorruption, CorruptFileBehindQueryDegradesCleanly) {
  const auto dir = fs::path(::testing::TempDir()) / "campuslab_corrupt_q";
  fs::remove_all(dir);
  store::DataStoreConfig cfg;
  cfg.segment_flows = 50;
  cfg.spill_directory = dir.string();
  // A budget nothing reaches: keep everything hot until the explicit
  // spill() below, so the test controls exactly when files appear.
  cfg.hot_bytes_budget = std::numeric_limits<std::uint64_t>::max();
  store::DataStore store(cfg);
  Rng rng(55);
  for (int i = 0; i < 200; ++i) store.ingest(sample_flow(rng, i));
  ASSERT_EQ(store.spill(), 4u);

  // Flip one payload byte of one spilled file, on disk.
  fs::path victim;
  for (const auto& entry : fs::directory_iterator(dir))
    if (victim.empty() || entry.path() < victim) victim = entry.path();
  ASSERT_FALSE(victim.empty());
  {
    const auto at =
        static_cast<std::streamoff>(store::kSegmentFileHeaderBytes + 3);
    std::fstream f(victim, std::ios::binary | std::ios::in | std::ios::out);
    char byte = 0;
    f.seekg(at);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(at);
    f.write(&byte, 1);
  }

  const auto result = store.query(store::FlowQuery{});
  EXPECT_EQ(result.stats().cold_load_failures, 1u);
  EXPECT_EQ(result.size(), 150u);  // 4 cold segments, one unreadable
  std::uint64_t last_id = 0;
  for (const auto& stored : result) {  // surviving rows are coherent
    EXPECT_GT(stored.id, last_id);
    last_id = stored.id;
  }

  // Index plans read the damaged file through their projections, which
  // check the same whole-payload checksum: each loses that one file and
  // answers from the intact ones exactly as the scan above, filtered by
  // the same predicate.
  ASSERT_FALSE(result.empty());
  for (const store::FlowQuery& q :
       {store::FlowQuery{}.about_host(Ipv4Address(192, 0, 2, 3)),
        store::FlowQuery{}.on_port(result[0].flow.tuple.dst_port)}) {
    const auto indexed = store.query(q);
    EXPECT_EQ(indexed.stats().cold_load_failures, 1u);
    std::vector<std::uint64_t> got;
    std::vector<std::uint64_t> want;
    for (const auto& stored : indexed) got.push_back(stored.id);
    for (const auto& stored : result)
      if (q.matches(stored)) want.push_back(stored.id);
    EXPECT_FALSE(got.empty());
    EXPECT_EQ(got, want);
  }

  auto direct = store::read_segment_file(victim.string());
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.error().code, "segment_checksum");
  for (const store::IndexKind plan :
       {store::IndexKind::kTimeScan, store::IndexKind::kHost}) {
    auto mapped = store::MappedFile::open(victim.string());
    ASSERT_TRUE(mapped.ok());
    const auto part =
        store::decode_projection(mapped.value().bytes(), plan, 0);
    ASSERT_FALSE(part.ok());
    EXPECT_EQ(part.error().code, "segment_checksum");
  }
  fs::remove_all(dir);
}

// -------------------------------------------- format-specific: CLMRG01

// A resealed file whose student tree has a self-loop (node 0 is its own
// left child): the tree decoder must reject it, so the registry never
// hands FastLoop::deploy a tree whose walk would not reach a leaf.
TEST(RegistryCorruption, CyclicStudentTreeIsCorrupt) {
  Rng rng(66);
  auto file = RegistryFormat::file(rng, 1);
  const std::string root = "0 3.5 1 2 100";
  const auto at =
      std::search(file.begin(), file.end(), root.begin(), root.end());
  ASSERT_NE(at, file.end());
  at[6] = '0';  // "0 3.5 1 ..." -> "0 3.5 0 ...": left child 1 becomes 0
  reseal<RegistryFormat>(file);
  const auto r = control::decode_registry(file);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "registry_corrupt");
}

// ModelRegistry::open over arbitrarily mutated files: never a crash,
// never a failed open — corrupt registries degrade to an empty start.
TEST(RegistryCorruption, OpenDegradesToEmptyStartNotCrash) {
  Rng rng(55);
  const auto dir =
      fs::path(::testing::TempDir()) / "campuslab_registry_storm";
  for (int round = 0; round < 60; ++round) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto file = RegistryFormat::file(rng, 1 + rng.below(4));
    for (std::size_t m = 0, n = 1 + rng.below(3); m < n; ++m)
      mutate(rng, file);
    {
      std::ofstream out(dir / "registry.clmr",
                        std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(file.data()),
                static_cast<std::streamsize>(file.size()));
    }
    auto reg = control::ModelRegistry::open(dir.string());
    ASSERT_TRUE(reg.ok()) << "round " << round << ": open failed: "
                          << reg.error().message;
    if (reg.value().recovered_from_corruption()) {
      EXPECT_TRUE(reg.value().entries().empty());
      EXPECT_EQ(reg.value().active_version(), 0u);
    }
    // Whatever happened, the registry must be immediately usable.
    control::RegistryEntry next;
    next.version = reg.value().next_version();
    next.trained_at = Timestamp::from_nanos(round);
    next.package = sample_entry(rng, next.version).package;
    ASSERT_TRUE(reg.value().publish(next, "post-recovery").ok());
  }
  fs::remove_all(dir);
}

// --------------------------------------------- format-specific: CLRP01
//
// A connection reads a stream, not one record: these cover the
// assembler across frame boundaries, its sticky poison and its
// independence from how recv() chops the bytes.

// A valid multi-frame stream: every frame of wire_frames() in a row.
Bytes valid_stream(Rng& rng) {
  Bytes out;
  for (const Bytes& frame : wire_frames(rng))
    out.insert(out.end(), frame.begin(), frame.end());
  return out;
}

// Drain a (possibly damaged) stream through the assembler the way a
// server connection does: decode every completed frame's body, stop at
// poison or starvation. Returns the frames completed.
std::size_t drain(View stream, const char* context) {
  wire::FrameAssembler assembler;
  assembler.feed(stream);
  std::size_t frames = 0;
  while (true) {
    auto next = assembler.next();
    if (!next.ok()) {
      EXPECT_TRUE(known_code<WireFormat>(next.error().code))
          << context << ": unstable code " << next.error().code;
      EXPECT_FALSE(assembler.next().ok()) << context << ": poison is sticky";
      return frames;
    }
    if (!next.value().has_value()) return frames;
    // Whatever the checksums let through, the body codecs stay total.
    auto body = canonical_body(next.value()->header.type, next.value()->body);
    if (!body.ok()) {
      EXPECT_EQ(body.error().code, "wire_corrupt") << context;
    }
    ++frames;
  }
}

TEST(WireFuzz, SeededMutationsNeverCrash) {
  for (const std::uint64_t seed : fuzz_seeds()) {
    Rng rng(seed);
    for (int iter = 0; iter < 400; ++iter) {
      SCOPED_TRACE(where<WireFormat>(seed, iter));
      auto stream = valid_stream(rng);
      for (std::size_t m = 0, n = 1 + rng.below(4); m < n; ++m)
        mutate(rng, stream);
      drain(stream, "mutated stream");
    }
  }
}

// Every prefix of a valid stream, byte by byte: each parses some whole
// frames and then starves, or poisons with a stable code.
TEST(WireFuzz, TruncationLadder) {
  Rng rng(0xF0223);
  const auto base = valid_stream(rng);
  const std::size_t whole = drain(base, "base stream");
  ASSERT_EQ(whole, 12u);
  for (std::size_t len = 0; len < base.size(); ++len)
    EXPECT_LE(drain(View(base).first(len), "truncation ladder"), whole)
        << "len=" << len;
}

// Feeding a damaged stream one byte at a time must reach the same
// terminal state as feeding it at once: no parse state depends on how
// recv() chops the stream.
TEST(WireFuzz, TrickledDamageMatchesBulkDamage) {
  Rng rng(0xF0224);
  for (int iter = 0; iter < 40; ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    auto stream = valid_stream(rng);
    mutate(rng, stream);
    // Feeds `step` bytes at a time; returns (frames, poison code).
    const auto run = [&](std::size_t step) {
      wire::FrameAssembler assembler;
      std::size_t frames = 0;
      for (std::size_t at = 0; at < stream.size(); at += step) {
        assembler.feed(
            View(stream).subspan(at, std::min(step, stream.size() - at)));
        while (true) {
          auto next = assembler.next();
          if (!next.ok()) return std::make_pair(frames, next.error().code);
          if (!next.value().has_value()) break;
          ++frames;
        }
      }
      return std::make_pair(frames, std::string());
    };
    EXPECT_EQ(run(1), run(stream.size() + 1));
  }
}

// Hostile counts must never drive allocation: a tiny body claiming
// 2^60 rows or entries fails before reserving.
TEST(WireFuzz, HostileCountsCannotBombAllocation) {
  const Bytes tiny{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                   0xFF, 0x0F, 0x01, 0x02, 0x03, 0x04};
  EXPECT_FALSE(wire::decode_ingest(tiny).ok());
  EXPECT_FALSE(wire::decode_query_rows(tiny).ok());
  EXPECT_FALSE(wire::decode_log_reply(tiny).ok());
  EXPECT_FALSE(wire::decode_aggregate_result(tiny).ok());
}

}  // namespace campuslab::framed
