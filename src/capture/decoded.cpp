#include "campuslab/capture/decoded.h"

#include <algorithm>

#include "campuslab/util/hash.h"

namespace campuslab::capture {

std::uint64_t flow_hash(const packet::PacketView& view) noexcept {
  if (view.valid() && view.is_ipv4())
    return view.five_tuple()->bidirectional().hash();
  // The compat basis keeps the shard placement of tuple-less frames as
  // it was (pinned by ShardedCaptureEngine.SpreaderOutputPinned).
  const auto bytes = view.frame();
  const std::size_t n = std::min<std::size_t>(bytes.size(), 32);
  return util::fnv1a_step(util::fnv1a(bytes.first(n), util::kFnvCompatBasis),
                          bytes.size());
}

}  // namespace campuslab::capture
