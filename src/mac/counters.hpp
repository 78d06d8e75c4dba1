#pragma once
// MIB-style DCF counters, exposed for tests, benches and debugging.

#include <cstdint>
#include <ostream>

namespace adhoc::mac {

struct MacCounters {
  std::uint64_t msdu_enqueued = 0;
  std::uint64_t msdu_queue_drops = 0;
  std::uint64_t msdu_delivered_up = 0;   // unique MSDUs handed to the upper layer
  std::uint64_t rx_duplicates = 0;

  std::uint64_t tx_data = 0;             // data frame transmissions (incl. retries)
  std::uint64_t tx_rts = 0;
  std::uint64_t tx_cts = 0;
  std::uint64_t tx_ack = 0;

  std::uint64_t tx_success = 0;          // MSDUs acknowledged (or broadcast sent)
  std::uint64_t tx_retry_drops = 0;      // MSDUs dropped at retry limit

  std::uint64_t ack_timeouts = 0;
  std::uint64_t cts_timeouts = 0;

  std::uint64_t acks_suppressed_busy = 0;  // ACK withheld: medium busy (card behaviour)
  std::uint64_t cts_withheld_nav = 0;      // CTS withheld: NAV busy (standard)
  std::uint64_t responses_suppressed = 0;  // SIFS response impossible (own exchange)

  std::uint64_t rx_errors = 0;           // undecodable receptions -> EIFS
  std::uint64_t nav_updates = 0;
  std::uint64_t backoff_draws = 0;
  std::uint64_t backoff_slots_total = 0;

  std::uint64_t queue_high_water = 0;    // deepest the tx queue ever got
};

std::ostream& operator<<(std::ostream& os, const MacCounters& c);

}  // namespace adhoc::mac
