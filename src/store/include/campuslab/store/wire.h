// CLRP01 — the StoreShard wire protocol.
//
// Every StoreShard message (shard.h) has a binary encoding here:
// length-prefixed, versioned, checksummed frames whose bodies reuse the
// CLSEG01 codec primitives (util/codec.h varint/zigzag, util/hash.h
// FNV-1a) and the segment file's dictionary idiom — row batches carry a
// sorted host dictionary and delta-coded ids/timestamps, so a loopback
// query chunk costs bytes proportional to its entropy, not its struct
// size.
//
// Frame layout (all integers big-endian):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic "CLRP" (0x434C5250)
//        4     1  version (2)
//        5     1  message type (MsgType)
//        6     2  flags (0 so far; nonzero rejected)
//        8     4  shard id (which shard on this server)
//       12     8  request id (echoed verbatim in the reply)
//       20     4  body length in bytes
//       24     8  FNV-1a of the body bytes
//       32     8  FNV-1a of header bytes [0, 32)
//       40   ...  body
//
// Totality: every decoder is bounds-checked through ByteReader, every
// varint is rejected when overlong or truncated, every enum and count
// is range-checked (counts against the bytes that remain, so a hostile
// length can never drive an allocation), and every body must be
// consumed exactly. Malformed input yields a stable error code —
// wire_magic, wire_version, wire_flags, wire_type, wire_oversize,
// wire_truncated, wire_checksum, wire_corrupt — never UB. The
// corruption harness (framed_corruption_test) holds this under ASAN;
// the golden fixture tests/data/golden_shard_rpc_v2.bin pins the bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "campuslab/store/shard.h"
#include "campuslab/util/result.h"

namespace campuslab::store::wire {

inline constexpr std::uint32_t kMagic = 0x434C5250;  // "CLRP"
/// v2: the traffic label space widened to kTrafficLabelCount = 7
/// (worm, exfiltration), which grows the catalog's flows_per_label
/// column and the per-flow label mask bound. Frame layout unchanged.
inline constexpr std::uint8_t kVersion = 2;
inline constexpr std::size_t kHeaderSize = 40;
/// Default bound on one frame body. A query chunk of max_rows flows
/// stays far below this; anything larger is a protocol violation.
inline constexpr std::size_t kDefaultMaxBody = 32u << 20;

/// One request/reply pair per StoreShard method, plus ping (liveness /
/// connection warmup) and the error reply. Requests are < 64, replies
/// >= 64, so a stream desync is caught by type checks, not just
/// checksums.
enum class MsgType : std::uint8_t {
  kIngest = 1,
  kIngestLog = 2,
  kQuery = 3,
  kAggregate = 4,
  kQueryLogs = 5,
  kCatalog = 6,
  kFlowCount = 7,
  kPing = 8,

  kIngestAck = 65,
  kIngestLogOk = 66,
  kQueryRows = 67,
  kAggregateReply = 68,
  kLogReply = 69,
  kCatalogReply = 70,
  kFlowCountReply = 71,
  kPong = 72,

  kError = 127,
};

/// True for the MsgType values a v2 peer may send.
bool valid_type(std::uint8_t type) noexcept;

struct FrameHeader {
  MsgType type = MsgType::kPing;
  std::uint32_t shard = 0;
  std::uint64_t request_id = 0;
  std::uint32_t body_len = 0;
  std::uint64_t body_hash = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> body;
};

/// Encode one complete frame (header + body) ready to write to a
/// socket.
std::vector<std::uint8_t> encode_frame(MsgType type, std::uint32_t shard,
                                       std::uint64_t request_id,
                                       std::span<const std::uint8_t> body);

/// Parse and validate the fixed 40-byte header (magic, version, flags,
/// type, header checksum, body bound). `data` must hold at least
/// kHeaderSize bytes.
Result<FrameHeader> parse_frame_header(std::span<const std::uint8_t> data,
                                       std::size_t max_body = kDefaultMaxBody);

/// Verify the body against the header's body checksum.
Status verify_body(const FrameHeader& header,
                   std::span<const std::uint8_t> body);

/// Incremental frame parser for a byte stream: feed() whatever the
/// socket produced, then drain next() until it reports "need more".
/// A protocol violation poisons the assembler — the connection owning
/// it must close (after a length error the stream has no recoverable
/// framing).
class FrameAssembler {
 public:
  explicit FrameAssembler(std::size_t max_body = kDefaultMaxBody)
      : max_body_(max_body) {}

  void feed(std::span<const std::uint8_t> data);

  /// ok(nullopt) = need more bytes; ok(frame) = one complete, verified
  /// frame; error = the stream is poisoned and must be torn down.
  Result<std::optional<Frame>> next();

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::size_t max_body_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  bool poisoned_ = false;
  Error poison_{};
};

// --- Message body codecs -------------------------------------------
//
// Each decode validates everything (bounds, enums, counts, exact
// consumption) and returns wire_corrupt on any violation. Encoders are
// total.

std::vector<std::uint8_t> encode_ingest(const ShardIngestBatch& batch);
Result<ShardIngestBatch> decode_ingest(std::span<const std::uint8_t> body);

std::vector<std::uint8_t> encode_ingest_ack(const ShardIngestAck& ack);
Result<ShardIngestAck> decode_ingest_ack(std::span<const std::uint8_t> body);

std::vector<std::uint8_t> encode_log_event(const LogEvent& event);
Result<LogEvent> decode_log_event(std::span<const std::uint8_t> body);

std::vector<std::uint8_t> encode_query_plan(const ShardQueryPlan& plan);
Result<ShardQueryPlan> decode_query_plan(std::span<const std::uint8_t> body);

std::vector<std::uint8_t> encode_query_rows(const ShardQueryRows& rows);
Result<ShardQueryRows> decode_query_rows(std::span<const std::uint8_t> body);

/// Aggregate request: the filter plus grouping and top-k.
struct AggregatePlan {
  FlowQuery query;
  GroupBy group_by = GroupBy::kHost;
  std::size_t top_k = 0;
};

std::vector<std::uint8_t> encode_aggregate_plan(const AggregatePlan& plan);
Result<AggregatePlan> decode_aggregate_plan(
    std::span<const std::uint8_t> body);

std::vector<std::uint8_t> encode_aggregate_result(const AggregateResult& r);
Result<AggregateResult> decode_aggregate_result(
    std::span<const std::uint8_t> body);

std::vector<std::uint8_t> encode_log_query(const LogQuery& q);
Result<LogQuery> decode_log_query(std::span<const std::uint8_t> body);

std::vector<std::uint8_t> encode_log_reply(
    const std::vector<LogEvent>& events);
Result<std::vector<LogEvent>> decode_log_reply(
    std::span<const std::uint8_t> body);

std::vector<std::uint8_t> encode_catalog(const CatalogInfo& info);
Result<CatalogInfo> decode_catalog(std::span<const std::uint8_t> body);

std::vector<std::uint8_t> encode_flow_count(std::uint64_t count);
Result<std::uint64_t> decode_flow_count(std::span<const std::uint8_t> body);

/// Error reply body: a stable code plus human-readable detail,
/// reconstructed into an Error on the client side. (Out-param shape:
/// Result<Error> would make "which Error is the payload" ambiguous.)
std::vector<std::uint8_t> encode_error(const Error& error);
Status decode_error(std::span<const std::uint8_t> body, Error& out);

}  // namespace campuslab::store::wire
