#pragma once
// Protocol headers carried by simulated packets.
//
// The simulator accounts for header *bytes* exactly (they ride the air at
// the MAC data rate, which is what the paper's Figure 1 overhead analysis
// is about) while header *fields* are kept as plain structs. No header is
// ever encoded to bytes, so there is no codec and no checksum.

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

namespace adhoc::net {

// ------------------------------------------------------------------ address

class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t host_order) : value_(host_order) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value_((static_cast<std::uint32_t>(a) << 24) | (static_cast<std::uint32_t>(b) << 16) |
               (static_cast<std::uint32_t>(c) << 8) | d) {}

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] static constexpr Ipv4Address broadcast() { return Ipv4Address{0xffffffffu}; }
  [[nodiscard]] constexpr bool is_broadcast() const { return value_ == 0xffffffffu; }
  [[nodiscard]] std::string to_string() const;

  friend constexpr bool operator==(const Ipv4Address&, const Ipv4Address&) = default;
  friend constexpr auto operator<=>(const Ipv4Address&, const Ipv4Address&) = default;

 private:
  std::uint32_t value_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Ipv4Address& a);

struct Ipv4AddressHash {
  std::size_t operator()(const Ipv4Address& a) const { return a.value(); }
};

// ------------------------------------------------------------------ headers

/// IP protocol numbers used by the stack.
inline constexpr std::uint8_t kProtoTcp = 6;
inline constexpr std::uint8_t kProtoUdp = 17;
/// On-demand routing control traffic (net/aodv.hpp).
inline constexpr std::uint8_t kProtoAodv = 89;

struct Ipv4Header {
  static constexpr std::uint32_t kBytes = 20;

  Ipv4Address src;
  Ipv4Address dst;
  std::uint8_t protocol = 0;
  std::uint8_t ttl = 64;
  std::uint16_t total_length = 0;  // header + payload
  std::uint16_t identification = 0;
};

struct UdpHeader {
  static constexpr std::uint32_t kBytes = 8;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;  // header + payload
};

/// The TCP flags the stack sets: connections open with SYN and never
/// close, so FIN and RST do not exist here.
struct TcpFlags {
  bool syn = false;
  bool ack = false;

  friend bool operator==(const TcpFlags&, const TcpFlags&) = default;
};

struct TcpHeader {
  static constexpr std::uint32_t kBytes = 20;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  TcpFlags flags;
  std::uint16_t window = 0;
};

/// On-demand (AODV-style) routing control message. One header type
/// covers RREQ/RREP/RERR; unused fields are zero on the wire.
enum class AodvType : std::uint8_t { kRreq = 1, kRrep = 2, kRerr = 3 };

struct AodvHeader {
  static constexpr std::uint32_t kBytes = 24;

  AodvType type = AodvType::kRreq;
  std::uint8_t hop_count = 0;
  std::uint32_t rreq_id = 0;       ///< flood identifier (RREQ)
  Ipv4Address originator;          ///< route source (RREQ/RREP)
  std::uint32_t originator_seq = 0;
  Ipv4Address target;              ///< route destination; unreachable dst (RERR)
  std::uint32_t target_seq = 0;
};

std::ostream& operator<<(std::ostream& os, const TcpHeader& h);

}  // namespace adhoc::net
