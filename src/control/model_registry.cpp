#include "campuslab/control/model_registry.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "campuslab/obs/registry.h"
#include "campuslab/resilience/fault.h"
#include "campuslab/util/bytes.h"
#include "campuslab/util/codec.h"
#include "campuslab/util/file.h"
#include "campuslab/util/hash.h"

namespace campuslab::control {

namespace {

// 8-byte magic + u8 format version + u8 flags + u16 reserved +
// u32 payload length + u64 payload checksum + u64 header checksum.
constexpr std::uint8_t kMagic[8] = {'C', 'L', 'M', 'R',
                                    'G', '0', '1', '\n'};
constexpr std::size_t kHeaderBytes = 8 + 1 + 1 + 2 + 4 + 8 + 8;
constexpr std::uint64_t kMaxEntries = 4096;
static_assert(kRegistryRetainedEntries <= kMaxEntries,
              "publish() must never write a registry decode rejects");
constexpr std::uint64_t kMaxFeatures = 4096;
constexpr std::uint64_t kMaxStringBytes = 1u << 20;

struct RegistryMetrics {
  obs::Counter& corrupt_recoveries = obs::Registry::global().counter(
      "control.registry_corrupt_recoveries");
  obs::Counter& persists =
      obs::Registry::global().counter("control.registry_persists");
  obs::Counter& audit_appends =
      obs::Registry::global().counter("control.registry_audit_appends");

  static RegistryMetrics& get() {
    static RegistryMetrics m;
    return m;
  }
};

void put_double(ByteWriter& w, double v) {
  w.u64(std::bit_cast<std::uint64_t>(v));
}

double read_double(util::VarintDecoder& d) {
  return std::bit_cast<double>(d.r.u64());
}

Error corrupt(std::string message) {
  return Error::make("registry_corrupt", std::move(message));
}

}  // namespace

std::string_view to_string(AuditKind kind) noexcept {
  switch (kind) {
    case AuditKind::kPublished:
      return "published";
    case AuditKind::kPromoted:
      return "promoted";
    case AuditKind::kRolledBack:
      return "rolled_back";
    case AuditKind::kAborted:
      return "aborted";
    case AuditKind::kRecovered:
      return "recovered";
    case AuditKind::kDriftTrigger:
      return "drift_trigger";
  }
  return "unknown";
}

// ------------------------------------------------------------- encode

std::vector<std::uint8_t> encode_registry(const RegistryFile& file) {
  ByteWriter payload(1024);
  util::put_varint(payload, file.entries.size());
  util::put_varint(payload, file.active_version);
  for (const auto& entry : file.entries) {
    util::put_varint(payload, entry.version);
    util::put_varint(payload, util::zigzag(entry.trained_at.nanos()));
    put_double(payload, entry.candidate_accuracy);
    put_double(payload, entry.incumbent_accuracy);

    const auto& task = entry.package.task;
    util::put_string(payload, task.name);
    payload.u8(static_cast<std::uint8_t>(task.event));
    put_double(payload, task.confidence_threshold);
    payload.u8(static_cast<std::uint8_t>(task.action));
    put_double(payload, task.rate_limit_pps);

    payload.u8(entry.package.strategy == "rule_tcam" ? 1 : 0);
    const auto& res = entry.package.resources;
    util::put_varint(payload, static_cast<std::uint64_t>(res.stages_used));
    util::put_varint(payload, res.tcam_entries);
    util::put_varint(payload, res.sram_bits);
    util::put_varint(payload,
                     static_cast<std::uint64_t>(res.register_arrays_used));

    const auto& q = entry.package.quantizer;
    util::put_varint(payload, q.n_features());
    for (std::size_t f = 0; f < q.n_features(); ++f) {
      put_double(payload, q.lo(f));
      put_double(payload, q.step(f));
    }
    util::put_string(payload, entry.package.student.serialize());
  }

  const auto body = std::move(payload).take();
  ByteWriter out(kHeaderBytes + body.size());
  out.bytes({kMagic, sizeof(kMagic)});
  out.u8(kModelRegistryFormatVersion);
  out.u8(0);   // flags
  out.u16(0);  // reserved
  out.u32(static_cast<std::uint32_t>(body.size()));
  out.u64(util::fnv1a(std::span<const std::uint8_t>(body)));
  out.u64(util::fnv1a(out.view()));  // header checksum over all prior bytes
  out.bytes(body);
  return std::move(out).take();
}

// ------------------------------------------------------------- decode

Result<RegistryFile> decode_registry(std::span<const std::uint8_t> bytes) {
  ByteReader header(bytes);
  const auto magic = header.bytes(sizeof(kMagic));
  if (!header.ok())
    return Error::make("registry_truncated", "shorter than the magic");
  if (!std::equal(magic.begin(), magic.end(), kMagic))
    return Error::make("registry_magic", "not a CLMRG01 registry file");
  const std::uint8_t version = header.u8();
  header.u8();   // flags
  header.u16();  // reserved
  const std::uint32_t payload_len = header.u32();
  const std::uint64_t payload_sum = header.u64();
  if (!header.ok())
    return Error::make("registry_truncated", "truncated header");
  if (version != kModelRegistryFormatVersion)
    return Error::make("registry_version",
                       "unsupported registry format version " +
                           std::to_string(version));
  const std::uint64_t header_sum_expected =
      util::fnv1a(bytes.subspan(0, kHeaderBytes - 8));
  const std::uint64_t header_sum = header.u64();
  if (!header.ok())
    return Error::make("registry_truncated", "truncated header");
  if (header_sum != header_sum_expected)
    return Error::make("registry_checksum", "header checksum mismatch");
  if (bytes.size() - kHeaderBytes != payload_len)
    return Error::make(
        bytes.size() - kHeaderBytes < payload_len ? "registry_truncated"
                                                  : "registry_corrupt",
        "payload length mismatch");
  const auto payload = bytes.subspan(kHeaderBytes);
  if (util::fnv1a(payload) != payload_sum)
    return Error::make("registry_checksum", "payload checksum mismatch");

  util::VarintDecoder d(payload);
  RegistryFile file;
  const std::uint64_t count = d.varint_at_most(kMaxEntries);
  const std::uint64_t active = d.varint_at_most(0xFFFFFFFFull);
  if (d.failed) return corrupt("bad registry preamble");
  file.active_version = static_cast<std::uint32_t>(active);
  file.entries.reserve(static_cast<std::size_t>(count));

  std::uint64_t prev_version = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    RegistryEntry entry;
    const std::uint64_t v = d.varint_at_most(0xFFFFFFFFull);
    if (d.failed) return corrupt("bad entry version");
    if (v == 0 || v <= prev_version)
      return corrupt("entry versions must ascend from 1");
    prev_version = v;
    entry.version = static_cast<std::uint32_t>(v);
    entry.trained_at =
        Timestamp::from_nanos(util::unzigzag(d.varint()));
    entry.candidate_accuracy = read_double(d);
    entry.incumbent_accuracy = read_double(d);

    entry.package.task.name = util::get_string(d, kMaxStringBytes);
    if (d.failed) return corrupt("bad task name");
    const std::uint8_t event = d.r.u8();
    if (event >= packet::kTrafficLabelCount)
      return corrupt("task event label out of range");
    entry.package.task.event = static_cast<packet::TrafficLabel>(event);
    entry.package.task.confidence_threshold = read_double(d);
    const std::uint8_t action = d.r.u8();
    if (action > static_cast<std::uint8_t>(MitigationAction::kRateLimit))
      return corrupt("mitigation action out of range");
    entry.package.task.action = static_cast<MitigationAction>(action);
    entry.package.task.rate_limit_pps = read_double(d);

    const std::uint8_t strategy = d.r.u8();
    if (!d.r.ok() || strategy > 1) return corrupt("bad compile strategy");
    entry.package.strategy = strategy == 1 ? "rule_tcam" : "tree_walk";
    entry.package.resources.stages_used =
        static_cast<int>(d.varint_at_most(1 << 20));
    entry.package.resources.tcam_entries =
        static_cast<std::size_t>(d.varint());
    entry.package.resources.sram_bits =
        static_cast<std::size_t>(d.varint());
    entry.package.resources.register_arrays_used =
        static_cast<int>(d.varint_at_most(1 << 20));
    if (d.failed) return corrupt("bad resource report");

    const std::uint64_t n_features = d.varint_at_most(kMaxFeatures);
    if (d.failed) return corrupt("bad quantizer arity");
    std::vector<double> lo, step;
    lo.reserve(static_cast<std::size_t>(n_features));
    step.reserve(static_cast<std::size_t>(n_features));
    for (std::uint64_t f = 0; f < n_features; ++f) {
      lo.push_back(read_double(d));
      step.push_back(read_double(d));
    }
    if (!d.r.ok()) return corrupt("truncated quantizer");
    entry.package.quantizer =
        dataplane::Quantizer::from_levels(std::move(lo), std::move(step));

    const auto tree_text = util::get_string(d, kMaxStringBytes);
    if (d.failed) return corrupt("bad student tree blob");
    auto tree = ml::DecisionTree::deserialize(tree_text);
    if (!tree.ok())
      return corrupt("student tree rejected: " + tree.error().message);
    entry.package.student = std::move(tree).value();

    file.entries.push_back(std::move(entry));
  }
  if (d.failed) return corrupt("malformed varint");
  if (d.r.offset() != payload.size())
    return corrupt("trailing garbage after last entry");
  if (file.active_version != 0) {
    const bool present =
        std::any_of(file.entries.begin(), file.entries.end(),
                    [&](const RegistryEntry& e) {
                      return e.version == file.active_version;
                    });
    if (!present) return corrupt("active version not present");
  }
  return file;
}

// --------------------------------------------------------------- file

Status write_registry_file(const RegistryFile& file,
                           const std::string& path) {
  if (auto s = resilience::fault_point_status("control.registry"); !s.ok())
    return s;
  auto s = util::write_file_atomically(path, encode_registry(file),
                                       "registry_io");
  if (s.ok()) RegistryMetrics::get().persists.increment();
  return s;
}

Result<RegistryFile> read_registry_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error::make("registry_io", "cannot open " + path);
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  return decode_registry(bytes);
}

// -------------------------------------------------------------- audit

std::string encode_audit_line(const AuditEvent& event) {
  std::ostringstream out;
  out << "v1 " << event.seq << ' ' << event.at.nanos() << ' '
      << to_string(event.kind) << ' ' << event.version << ' ';
  // Detail is URL-ish escaped so the line stays one line and
  // space-splittable whatever error text lands in it.
  for (const char c : event.detail) {
    if (c == ' ')
      out << "%20";
    else if (c == '\n')
      out << "%0A";
    else if (c == '%')
      out << "%25";
    else
      out << c;
  }
  if (event.detail.empty()) out << '-';
  const std::string prefix = out.str();
  char sum[20];
  std::snprintf(sum, sizeof(sum), " %016llx",
                static_cast<unsigned long long>(util::fnv1a(prefix)));
  return prefix + sum;
}

std::optional<AuditEvent> decode_audit_line(std::string_view line) {
  const auto last_space = line.find_last_of(' ');
  if (last_space == std::string_view::npos || last_space == 0)
    return std::nullopt;
  const std::string prefix(line.substr(0, last_space));
  const std::string_view sum_text = line.substr(last_space + 1);
  if (sum_text.size() != 16) return std::nullopt;
  std::uint64_t sum = 0;
  for (const char c : sum_text) {
    sum <<= 4;
    if (c >= '0' && c <= '9')
      sum |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      sum |= static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return std::nullopt;
  }
  if (util::fnv1a(prefix) != sum) return std::nullopt;

  std::istringstream in(prefix);
  std::string tag, kind_text, detail;
  AuditEvent event;
  std::int64_t at_ns = 0;
  if (!(in >> tag >> event.seq >> at_ns >> kind_text >> event.version >>
        detail) ||
      tag != "v1")
    return std::nullopt;
  event.at = Timestamp::from_nanos(at_ns);
  bool known = false;
  for (const auto kind :
       {AuditKind::kPublished, AuditKind::kPromoted, AuditKind::kRolledBack,
        AuditKind::kAborted, AuditKind::kRecovered,
        AuditKind::kDriftTrigger}) {
    if (kind_text == to_string(kind)) {
      event.kind = kind;
      known = true;
      break;
    }
  }
  if (!known) return std::nullopt;
  if (detail != "-") {
    event.detail.reserve(detail.size());
    for (std::size_t i = 0; i < detail.size(); ++i) {
      if (detail[i] == '%' && i + 2 < detail.size()) {
        const std::string_view code(detail.data() + i + 1, 2);
        if (code == "20")
          event.detail += ' ';
        else if (code == "0A")
          event.detail += '\n';
        else if (code == "25")
          event.detail += '%';
        else
          return std::nullopt;
        i += 2;
      } else {
        event.detail += detail[i];
      }
    }
  }
  return event;
}

// ----------------------------------------------------- ModelRegistry

Result<ModelRegistry> ModelRegistry::open(std::string directory) {
  ModelRegistry reg;
  reg.directory_ = std::move(directory);
  if (!reg.persistent()) return reg;

  std::error_code ec;
  std::filesystem::create_directories(reg.directory_, ec);
  if (ec)
    return Error::make("registry_io",
                       "cannot create registry directory " +
                           reg.directory_);

  const auto path = reg.registry_path();
  if (std::filesystem::exists(path, ec)) {
    auto loaded = read_registry_file(path);
    if (loaded.ok()) {
      reg.state_ = std::move(loaded).value();
    } else {
      // Corrupt-degrades-to-empty-start: quarantine the bad file so a
      // later persist succeeds and nothing is silently overwritten.
      reg.recovered_from_corruption_ = true;
      RegistryMetrics::get().corrupt_recoveries.increment();
      std::filesystem::rename(path, path + ".corrupt", ec);
      if (ec) std::filesystem::remove(path, ec);
    }
  }

  // Load the audit trail, dropping a torn tail. Lines after the first
  // malformed one are unreachable appends and dropped with it.
  std::ifstream audit(reg.audit_path());
  std::string line;
  while (std::getline(audit, line)) {
    auto event = decode_audit_line(line);
    if (!event.has_value()) break;
    reg.next_audit_seq_ = event->seq + 1;
    reg.audit_.push_back(std::move(*event));
  }
  return reg;
}

const RegistryEntry* ModelRegistry::find(
    std::uint32_t version) const noexcept {
  if (version == 0) return nullptr;
  for (const auto& entry : state_.entries)
    if (entry.version == version) return &entry;
  return nullptr;
}

std::uint32_t ModelRegistry::next_version() const noexcept {
  return state_.entries.empty() ? 1 : state_.entries.back().version + 1;
}

Status ModelRegistry::publish(RegistryEntry entry,
                              std::string_view detail) {
  if (entry.version == 0 || (!state_.entries.empty() &&
                             entry.version <= state_.entries.back().version))
    return Error::make("registry_version_order",
                       "published versions must ascend");
  const auto at = entry.trained_at;
  const auto version = entry.version;
  state_.entries.push_back(std::move(entry));
  // Prune oldest non-active entries past the retention cap.
  while (state_.entries.size() > kRegistryRetainedEntries) {
    auto victim = state_.entries.end();
    for (auto it = state_.entries.begin(); it != state_.entries.end(); ++it) {
      if (it->version != state_.active_version) {
        victim = it;
        break;
      }
    }
    if (victim == state_.entries.end()) break;
    state_.entries.erase(victim);
  }
  if (auto s = persist(); !s.ok()) {
    // Keep memory consistent with disk: an unpersisted publish is no
    // publish.
    state_.entries.erase(
        std::remove_if(state_.entries.begin(), state_.entries.end(),
                       [&](const RegistryEntry& e) {
                         return e.version == version;
                       }),
        state_.entries.end());
    return s;
  }
  return append_audit(AuditKind::kPublished, version, at, detail);
}

Status ModelRegistry::promote(std::uint32_t version, Timestamp at,
                              std::string_view detail) {
  if (find(version) == nullptr)
    return Error::make("registry_not_found",
                       "cannot promote unknown version " +
                           std::to_string(version));
  const auto previous = state_.active_version;
  state_.active_version = version;
  if (auto s = persist(); !s.ok()) {
    state_.active_version = previous;
    return s;
  }
  return append_audit(AuditKind::kPromoted, version, at, detail);
}

Status ModelRegistry::record(AuditKind kind, std::uint32_t version,
                             Timestamp at, std::string_view detail) {
  return append_audit(kind, version, at, detail);
}

Status ModelRegistry::persist() {
  if (!persistent()) {
    // Ephemeral mode still exercises the fault site so chaos tests can
    // target registry persistence without a filesystem.
    return resilience::fault_point_status("control.registry");
  }
  return write_registry_file(state_, registry_path());
}

Status ModelRegistry::append_audit(AuditKind kind, std::uint32_t version,
                                   Timestamp at, std::string_view detail) {
  AuditEvent event;
  event.seq = next_audit_seq_;
  event.at = at;
  event.kind = kind;
  event.version = version;
  event.detail = std::string(detail);
  if (persistent()) {
    std::ofstream out(audit_path(), std::ios::app);
    if (!out)
      return Error::make("registry_io",
                         "cannot append to " + audit_path());
    out << encode_audit_line(event) << '\n';
    out.flush();
    if (!out)
      return Error::make("registry_io",
                         "short audit append to " + audit_path());
  }
  ++next_audit_seq_;
  audit_.push_back(std::move(event));
  RegistryMetrics::get().audit_appends.increment();
  return Status::success();
}

std::string ModelRegistry::registry_path() const {
  return directory_ + "/registry.clmr";
}

std::string ModelRegistry::audit_path() const {
  return directory_ + "/audit.log";
}

}  // namespace campuslab::control
