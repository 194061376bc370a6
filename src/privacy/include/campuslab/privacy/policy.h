// Collection and access policies — the IT organization's controls.
//
// §5 makes the IT organization "responsible for safeguarding the
// resulting data store, protecting user privacy, deciding on what data
// can/should not be collected and/or stored (and in what form), and
// arbitrating what data can or cannot be made available to which ...
// constituents". PayloadPolicy is the collection-side control (what
// form data is stored in); AccessPolicy is the egress-side arbitration
// (who sees what).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "campuslab/packet/view.h"

namespace campuslab::privacy {

/// What happens to an application payload at collection time.
enum class PayloadAction : std::uint8_t {
  kKeep,      // store full payload
  kTruncate,  // keep the first N bytes (protocol headers survive)
  kHash,      // replace with a 16-byte keyed digest (dedup/corr. only)
  kStrip,     // drop entirely
};

/// Per-port payload handling with a default. DNS defaults to kKeep
/// (queries are operationally vital and low-sensitivity relative to,
/// say, mail bodies); mail and ssh default to kStrip.
class PayloadPolicy {
 public:
  /// A conservative default policy: keep DNS, truncate web to 64 bytes,
  /// strip mail/ssh, truncate everything else to 32 bytes.
  static PayloadPolicy conservative();
  /// Store everything (a closed, well-governed store may choose this).
  static PayloadPolicy keep_all();

  void set_default(PayloadAction action, std::size_t truncate_to = 32);
  void set_port_rule(std::uint16_t port, PayloadAction action,
                     std::size_t truncate_to = 0);

  PayloadAction action_for(std::uint16_t src_port,
                           std::uint16_t dst_port) const noexcept;

  /// Apply the policy to a frame in place: the L2-L4 headers are
  /// preserved; the application payload is transformed per the rule.
  /// Key parameterizes the kHash digest. Lengths/checksums in the
  /// stored frame are NOT recomputed — the stored artifact records what
  /// was on the wire with the payload redacted, like a snaplen capture.
  ///
  /// Parse-once: `view` must decode `pkt`'s current bytes (a
  /// buffer-sharing copy of the viewed packet qualifies — redaction
  /// then mutates copy-on-write).
  void apply(packet::Packet& pkt, const packet::PacketView& view,
             std::uint64_t hash_key) const;

 private:
  struct Rule {
    PayloadAction action = PayloadAction::kTruncate;
    std::size_t truncate_to = 32;
  };
  Rule default_rule_{};
  std::map<std::uint16_t, Rule> port_rules_;
};

/// Constituents of the university, in decreasing privilege.
enum class Role : std::uint8_t {
  kOperator,    // IT organization: full fidelity
  kAuditor,     // compliance: full addresses, no payload-derived fields
  kResearcher,  // campus researchers: anonymized identifiers
  kExternal,    // outside parties: no access (the store is internal!)
};

/// What a role is allowed to see. Produced by AccessPolicy::rights.
struct AccessRights {
  bool allowed = false;
  bool raw_addresses = false;
  bool raw_ports = false;
  bool labels = false;       // ground-truth labels visible?
  Duration max_window = Duration::hours(24 * 365);
};

class AccessPolicy {
 public:
  /// The paper's stance: data never leaves the university; researchers
  /// work on anonymized views; operators keep full fidelity.
  static AccessPolicy campus_default();

  void set_rights(Role role, AccessRights rights);
  const AccessRights& rights(Role role) const noexcept;

 private:
  std::array<AccessRights, 4> by_role_{};
};

constexpr std::string_view to_string(Role role) noexcept {
  switch (role) {
    case Role::kOperator: return "operator";
    case Role::kAuditor: return "auditor";
    case Role::kResearcher: return "researcher";
    case Role::kExternal: return "external";
  }
  return "unknown";
}

}  // namespace campuslab::privacy
