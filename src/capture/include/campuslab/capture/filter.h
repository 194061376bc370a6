// FilterExpr — a BPF/tcpdump-style filter language over captured
// frames, the lingua franca of every packet store's "flexible search"
// (§5). Compiled once, evaluated per packet.
//
// Grammar (case-sensitive keywords, '#' starts nothing — no comments):
//
//   expr      := or
//   or        := and ( "or" and )*
//   and       := unary ( "and" unary )*
//   unary     := "not" unary | "(" expr ")" | predicate
//   predicate := "tcp" | "udp" | "icmp" | "ip"
//              | [dir] "port" NUMBER
//              | [dir] "host" IPV4
//              | [dir] "net" IPV4 "/" PREFIXLEN
//              | "less" NUMBER | "greater" NUMBER     (frame bytes)
//              | "dns"                                 (udp port 53)
//              | "syn"                                 (tcp SYN, no ACK)
//   dir       := "src" | "dst"
//
// Directionless port/host/net match either side. Precedence follows
// tcpdump: not > and > or.
#pragma once

#include <memory>
#include <string>

#include "campuslab/packet/view.h"
#include "campuslab/util/result.h"

namespace campuslab::capture {

class FilterExpr {
 public:
  /// Compile a filter string. Errors carry position + expectation.
  static Result<FilterExpr> parse(const std::string& text);

  /// Evaluate against one decoded frame. Non-IPv4 frames match only
  /// pure size predicates ("less"/"greater") and negations thereof.
  bool matches(const packet::PacketView& view) const;

  const std::string& source() const noexcept { return source_; }

  // Value-type plumbing over an immutable AST.
  FilterExpr(const FilterExpr&) = default;
  FilterExpr(FilterExpr&&) noexcept = default;
  FilterExpr& operator=(const FilterExpr&) = default;
  FilterExpr& operator=(FilterExpr&&) noexcept = default;
  ~FilterExpr() = default;

  struct Node;  // opaque AST

 private:
  FilterExpr(std::shared_ptr<const Node> root, std::string source)
      : root_(std::move(root)), source_(std::move(source)) {}

  std::shared_ptr<const Node> root_;
  std::string source_;
};

}  // namespace campuslab::capture
