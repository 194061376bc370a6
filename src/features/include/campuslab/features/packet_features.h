// Per-packet feature extraction with switch-register state.
//
// The fast control loop (Figure 2) cannot wait for flows to finish: the
// deployable model classifies *packets* at ingress. Its features are
// restricted to what a programmable switch can actually compute —
// header fields plus per-host register state (EWMA rates, 256-bit
// distinct sketches). The same extractor runs in two places with
// identical semantics: offline (training data generation, this C++
// code) and online (the compiled match-action pipeline, which consumes
// the quantized equivalents via dataplane metadata).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "campuslab/features/sketch.h"
#include "campuslab/packet/view.h"
#include "campuslab/sim/campus.h"

namespace campuslab::features {

/// Indexes into the packet feature vector; keep in sync with
/// packet_feature_names().
enum class PacketFeature : std::size_t {
  kIsUdp = 0,
  kIsTcp,
  kFrameBytes,
  kPayloadBytes,
  kSrcPort,
  kDstPort,
  kSrcPortIsDns,
  kTcpSynNoAck,
  kDstInboundPps,     // register: per-dst inbound packet rate
  kDstInboundBps,     // register: per-dst inbound byte rate
  kDstDistinctSrcs,   // register: distinct sources hitting this dst
  kSrcFanout,         // register: distinct dsts contacted by this src
  kCount,             // sentinel
};

inline constexpr std::size_t kPacketFeatureCount =
    static_cast<std::size_t>(PacketFeature::kCount);

const std::vector<std::string>& packet_feature_names();

/// Which features require register state (vs. pure header fields) —
/// the dataplane compiler uses this to budget stateful stages.
bool is_register_feature(PacketFeature f) noexcept;

/// is_register_feature over a model's feature space: one entry per
/// name, set only when the names are packet_feature_names() (other
/// feature spaces get an all-false mask).
std::vector<bool> register_mask_for(
    const std::vector<std::string>& feature_names);

struct PacketFeatureConfig {
  Duration rate_tau = Duration::seconds(1);
  Duration sketch_window = Duration::seconds(5);
  /// Bound on tracked hosts; beyond it, the oldest-touched entry is
  /// recycled (a real switch has fixed register arrays).
  std::size_t max_tracked_hosts = 1 << 16;
};

class StatefulFeatureExtractor {
 public:
  explicit StatefulFeatureExtractor(PacketFeatureConfig config = {});

  /// Extract the feature vector for one packet, updating register
  /// state. Must be fed packets in timestamp order. Returns an empty
  /// vector for non-IPv4 frames. Parse-once: `view` must be a decode
  /// of `pkt`'s bytes.
  std::vector<double> extract(const packet::Packet& pkt,
                              const packet::PacketView& view,
                              sim::Direction dir);

  std::size_t tracked_dsts() const noexcept { return dst_state_.size(); }
  std::size_t tracked_srcs() const noexcept { return src_state_.size(); }

  void reset();

 private:
  struct DstState {
    EwmaRate pps;
    EwmaRate bps;
    BitmapDistinct srcs;
    Timestamp last_touch;
  };
  struct SrcState {
    BitmapDistinct dsts;
    Timestamp last_touch;
  };

  void maybe_roll_window(Timestamp now);
  template <typename Map>
  void evict_if_needed(Map& map);

  PacketFeatureConfig config_;
  std::unordered_map<std::uint32_t, DstState> dst_state_;
  std::unordered_map<std::uint32_t, SrcState> src_state_;
  Timestamp window_start_{};
};

}  // namespace campuslab::features
