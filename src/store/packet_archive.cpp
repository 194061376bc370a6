#include "campuslab/store/packet_archive.h"

#include <algorithm>
#include <filesystem>

#include "campuslab/resilience/fault.h"

namespace campuslab::store {

Result<PacketArchive> PacketArchive::open(PacketArchiveConfig config) {
  std::error_code ec;
  if (!std::filesystem::is_directory(config.directory, ec)) {
    return Error::make("io",
                       "archive directory missing: " + config.directory);
  }
  return PacketArchive(std::move(config));
}

Status PacketArchive::rotate(Timestamp first_ts) {
  if (writer_) {
    if (auto s = writer_->flush(); !s.ok()) return s;
    writer_.reset();
  }
  const std::string path = config_.directory + "/segment_" +
                           std::to_string(next_file_id_++) + ".pcap";
  auto w = capture::PcapWriter::open(path);
  if (!w.ok()) return w.error();
  writer_.emplace(std::move(w).value());
  segments_.push_back(ArchiveSegmentInfo{path, first_ts, first_ts, 0});
  return Status::success();
}

Status PacketArchive::write(const packet::Packet& pkt) {
  if (degradation_ != nullptr &&
      degradation_->should_shed(resilience::ShedClass::kArchiveWrite)) {
    // Shed, not failed: the pipeline chose to skip this write under
    // pressure, and the controller counted the decision.
    return Status::success();
  }
  if (auto s = resilience::fault_point_status("archive.write"); !s.ok())
    return s;
  const bool need_rotation =
      !writer_ || (!segments_.empty() &&
                   pkt.ts - segments_.back().first_ts >= config_.segment_span);
  if (need_rotation) {
    if (auto s = rotate(pkt.ts); !s.ok()) return s;
  }
  if (auto s = writer_->write(pkt); !s.ok()) return s;
  auto& seg = segments_.back();
  seg.last_ts = std::max(seg.last_ts, pkt.ts);
  ++seg.records;
  ++records_;
  return Status::success();
}

Status PacketArchive::write(const packet::Packet& pkt,
                            const resilience::RetryPolicy& policy, Rng& rng,
                            const resilience::Sleeper& sleeper) {
  return resilience::retry_status(
      policy, rng, "archive.write", [this, &pkt] { return write(pkt); },
      sleeper);
}

Status PacketArchive::seal() {
  if (writer_) {
    if (auto s = writer_->flush(); !s.ok()) return s;
    writer_.reset();
  }
  return Status::success();
}

Result<std::vector<packet::Packet>> PacketArchive::read_range(Timestamp from,
                                                              Timestamp to) {
  if (auto s = seal(); !s.ok()) return s.error();
  std::vector<packet::Packet> out;
  for (const auto& seg : segments_) {
    if (seg.last_ts < from || seg.first_ts > to) continue;
    auto reader = capture::PcapReader::open(seg.path);
    if (!reader.ok()) return reader.error();
    while (true) {
      auto r = reader.value().next();
      if (!r.ok()) return r.error();
      if (!r.value().has_value()) break;
      if (r.value()->ts >= from && r.value()->ts <= to)
        out.push_back(std::move(*r.value()));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const packet::Packet& a, const packet::Packet& b) {
                     return a.ts < b.ts;
                   });
  return out;
}

Result<std::vector<packet::Packet>> PacketArchive::read_filtered(
    Timestamp from, Timestamp to, const capture::FilterExpr& filter) {
  auto all = read_range(from, to);
  if (!all.ok()) return all;
  std::vector<packet::Packet> out;
  for (auto& pkt : all.value()) {
    // The archive reader is where a stored frame re-enters: decode here.
    if (filter.matches(packet::PacketView(pkt)))
      out.push_back(std::move(pkt));
  }
  return out;
}

std::size_t PacketArchive::enforce_retention(Timestamp now) {
  const Timestamp horizon = now - config_.retention;
  std::size_t deleted = 0;
  // Never delete the open (last) segment.
  while (segments_.size() > 1 && segments_.front().last_ts < horizon) {
    std::error_code ec;
    std::filesystem::remove(segments_.front().path, ec);
    segments_.pop_front();
    ++deleted;
  }
  return deleted;
}

}  // namespace campuslab::store
