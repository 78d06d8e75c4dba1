#pragma once
// 802.11 MAC frames as used by the DCF.
//
// A frame is a plain struct passed by shared_ptr through the PHY; it is
// never encoded to bytes. Only its size matters on the air, and
// psdu_bits() accounts for it. Every MSDU travels in one frame (no
// fragmentation).
//
// Sizes follow the paper's Table 1: a data frame carries a 272-bit header
// (MAC header + FCS, per the paper's footnote 3); RTS is 160 bits, CTS
// and ACK are 112 bits each, all excluding the PLCP.

#include <cstdint>
#include <memory>
#include <ostream>
#include <string_view>

#include "mac/address.hpp"
#include "phy/rates.hpp"
#include "sim/time.hpp"

namespace adhoc::mac {

enum class FrameType : std::uint8_t { kData = 0, kRts = 1, kCts = 2, kAck = 3 };

[[nodiscard]] constexpr std::string_view frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kData: return "DATA";
    case FrameType::kRts: return "RTS";
    case FrameType::kCts: return "CTS";
    case FrameType::kAck: return "ACK";
  }
  return "?";
}

struct Frame {
  FrameType type = FrameType::kData;
  /// Receiver address. Present in every frame type.
  MacAddress dst;
  /// Transmitter address. Not carried by CTS/ACK on the wire, but kept in
  /// the struct for bookkeeping (it is implied by the exchange).
  MacAddress src;
  /// NAV value: how long the medium stays reserved after this frame ends.
  sim::Time duration = sim::Time::zero();
  /// Sequence number (data frames), 12 bits as on the wire.
  std::uint16_t seq = 0;
  /// Retry flag (data frames).
  bool retry = false;
  /// Upper-layer payload (data frames); opaque to the MAC.
  std::shared_ptr<const void> sdu;
  std::uint32_t sdu_bytes = 0;

  /// PSDU size in bits, per the paper's Table 1 accounting.
  [[nodiscard]] std::uint32_t psdu_bits() const;

  /// Header-only bit counts (Table 1 of the paper).
  static constexpr std::uint32_t kDataHeaderBits = 272;
  static constexpr std::uint32_t kRtsBits = 160;
  static constexpr std::uint32_t kCtsBits = 112;
  static constexpr std::uint32_t kAckBits = 112;
};

std::ostream& operator<<(std::ostream& os, const Frame& f);

}  // namespace adhoc::mac
