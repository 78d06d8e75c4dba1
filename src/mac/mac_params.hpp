#pragma once
// DCF configuration. There is no fragmentation threshold: every MSDU
// goes out as one MPDU, as in the paper's 512-byte workloads.

#include <cstddef>
#include <cstdint>

#include "phy/rates.hpp"
#include "phy/timing.hpp"

namespace adhoc::mac {

struct MacParams {
  phy::Timing timing{};
  phy::Preamble preamble = phy::Preamble::kLong;

  /// Rate for unicast data frames (any NIC rate).
  phy::Rate data_rate = phy::Rate::kR11;
  /// Rate for control frames (RTS/CTS/ACK) — must be in the basic rate
  /// set. The paper's cards use 2 Mbps (1 Mbps also observed).
  phy::Rate control_rate = phy::Rate::kR2;
  /// Rate for group-addressed (broadcast/multicast) data. The standard
  /// requires a basic rate; the loss-probe experiments override it to
  /// probe each data rate.
  phy::Rate broadcast_rate = phy::Rate::kR2;

  /// Unicast MSDUs of this size or larger are protected by RTS/CTS.
  /// 0 = always use RTS/CTS, large value = basic access only.
  std::uint32_t rts_threshold_bytes = 4000;

  std::uint32_t short_retry_limit = 7;  ///< frames shorter than the RTS threshold
  std::uint32_t long_retry_limit = 4;   ///< frames sent with RTS protection

  /// Contention window in slots; backoff drawn uniform in [0, cw-1].
  /// Paper Table 1: CWmin 32, CWmax 1024.
  std::uint32_t cw_min = 32;
  std::uint32_t cw_max = 1024;

  std::size_t queue_limit = 100;

  /// Measured-card behaviour (paper §3.3): the D-Link responder does not
  /// return the MAC ACK while it senses the medium busy, so an exposed
  /// receiver starves its sender into collision-style backoff. Set false
  /// for strict standard behaviour (ACK always sent at SIFS).
  bool ack_requires_idle_medium = true;

  [[nodiscard]] bool use_rts(std::uint32_t sdu_bytes) const {
    return sdu_bytes >= rts_threshold_bytes;
  }
};

}  // namespace adhoc::mac
