#pragma once
// IEEE 802.11 DCF (Distributed Coordination Function).
//
// Implements the CSMA/CA access method over a phy::Radio:
//  * physical + virtual carrier sense (CCA + NAV),
//  * DIFS/EIFS deferral and slotted binary-exponential backoff,
//  * optional RTS/CTS exchange above a size threshold,
//  * SIFS-spaced CTS/ACK responses, retransmission with CW doubling,
//    retry limits, and duplicate filtering at the receiver.
// Every MSDU is sent as a single MPDU: there is no fragmentation, so an
// acknowledged data frame always completes its MSDU.
//
// Two behaviours called out by the paper are modelled explicitly:
//  * a responder withholds its CTS when its NAV is busy (standard rule —
//    the paper uses it to explain S1's starvation under RTS/CTS), and
//  * a responder can be configured to withhold the MAC ACK while it
//    senses the medium busy (observed card behaviour — the paper uses it
//    to explain the exposed-receiver starvation under basic access).
//
// Backoff countdown: one `mac.slot` event per uninterrupted countdown.
// When the DIFS/EIFS wait ends, the countdown starts and one event is
// scheduled backoff_slots × slot ahead; it transmits. Anything that
// freezes the countdown (a CCA busy edge, a NAV update, EIFS after a
// receive error, a SIFS response, power-off) cancels that event and
// keeps only the whole slots elapsed since the start: a slot counts only
// if the medium was idle from its start to its end. The result matches
// a countdown with one event per slot, including a freeze that lands
// exactly on slot boundary k, where that model's order of same-instant
// events decides:
//  * a propagated busy edge (signal or interference start) is scheduled
//    less than a slot ahead, after boundary k's slot event, so slot k
//    counts;
//  * a power-off fault is scheduled at plan time, and a received frame's
//    end (NAV, EIFS, SIFS response) at least an airtime ahead, both
//    before boundary k's slot event, so slot k does not count. (A
//    reception holds CCA busy, so in the full stack its end never meets
//    a running countdown; tests that drive the Dcf directly can.)
// Countdowns of different stations that end in the same nanosecond run
// in the order they started.

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "mac/address.hpp"
#include "mac/airtime.hpp"
#include "mac/counters.hpp"
#include "mac/frame.hpp"
#include "mac/mac_params.hpp"
#include "obs/journey/journey.hpp"
#include "obs/trace.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"

namespace adhoc::mac {

/// Result of one MSDU's transmission attempt, for the status callback.
struct TxStatus {
  MacAddress dst;
  std::uint32_t bytes = 0;
  bool success = false;
  std::uint32_t transmissions = 0;  // data frame attempts used
};

class Dcf final : public phy::RadioListener {
 public:
  /// Upper-layer receive: (sdu, bytes, source, destination).
  using RxHandler =
      std::function<void(std::shared_ptr<const void>, std::uint32_t, MacAddress, MacAddress)>;
  using TxStatusHandler = std::function<void(const TxStatus&)>;
  /// Per-transmission-attempt outcome: (dst, acked). Fires once per data
  /// (or RTS) attempt — the granularity rate-adaptation works at.
  using AttemptHandler = std::function<void(MacAddress, bool)>;

  Dcf(sim::Simulator& simulator, phy::Radio& radio, MacAddress address, MacParams params);

  Dcf(const Dcf&) = delete;
  Dcf& operator=(const Dcf&) = delete;

  /// Queue an MSDU for `dst`. Returns false (and drops) if the transmit
  /// queue is full. `journey` tags the MSDU for the journey recorder
  /// (0 = untracked; see set_journey_recorder).
  bool enqueue(MacAddress dst, std::shared_ptr<const void> sdu, std::uint32_t bytes,
               std::uint64_t journey = 0);

  void set_rx_handler(RxHandler h) { rx_handler_ = std::move(h); }
  void set_tx_status_handler(TxStatusHandler h) { tx_status_handler_ = std::move(h); }
  void set_attempt_handler(AttemptHandler h) { attempt_handler_ = std::move(h); }

  /// Publish MAC events into a cross-layer trace sink (nullptr disables;
  /// the radio id is the track).
  void set_trace_sink(obs::TraceSink* sink) { obs_sink_ = sink; }

  /// Feed journey-tagged MSDU milestones (queueing, contention,
  /// per-attempt airtime, retries, hop completion, retry-limit drops)
  /// into a journey recorder. `peer_lookup` maps a unicast destination
  /// MAC to its node id for fault attribution (-1 = unknown). nullptr
  /// disables: untagged traffic costs one pointer test per milestone.
  using PeerLookup = std::function<int(MacAddress)>;
  void set_journey_recorder(obs::JourneyRecorder* recorder, PeerLookup peer_lookup) {
    journeys_ = recorder;
    journey_peer_ = std::move(peer_lookup);
  }

  /// Per-destination data-rate override, consulted for each unicast data
  /// frame. Used by rate-adaptation controllers (mac/arf.hpp); when
  /// unset, MacParams::data_rate applies.
  using RateSelector = std::function<phy::Rate(MacAddress dst)>;
  void set_rate_selector(RateSelector s) { rate_selector_ = std::move(s); }

  [[nodiscard]] MacAddress address() const { return address_; }
  [[nodiscard]] const MacParams& params() const { return params_; }

  /// Override the rate used for group-addressed frames. Routing layers
  /// align this with the data rate so a flooded discovery only crosses
  /// links that can also carry data (avoids "gray links").
  void set_broadcast_rate(phy::Rate r) { params_.broadcast_rate = r; }
  [[nodiscard]] const MacCounters& counters() const { return counters_; }
  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] sim::Time nav_until() const { return nav_until_; }
  [[nodiscard]] std::uint32_t current_cw() const { return cw_; }
  /// Backoff slots still to count down (-1: none pending).
  [[nodiscard]] int backoff_slots() const;

  // phy::RadioListener
  void on_cca(bool busy) override;
  void on_rx_ok(std::shared_ptr<const void> payload, phy::Rate rate, double rx_dbm) override;
  void on_rx_error() override;
  void on_tx_end() override;

 private:
  enum class State {
    kIdle,        // nothing to send (a post-backoff may still be pending)
    kContending,  // DIFS/EIFS wait or backoff countdown in progress
    kTxRts,
    kWaitCts,
    kSifsToData,  // CTS received; data follows after SIFS
    kTxData,
    kWaitAck,
    kResponding,  // transmitting a SIFS response (CTS or ACK)
  };

  struct QueueItem {
    MacAddress dst;
    std::shared_ptr<const void> sdu;
    std::uint32_t bytes = 0;
    bool seq_assigned = false;
    std::uint16_t seq = 0;
    std::uint32_t transmissions = 0;  // data attempts (for status/limits)
    std::uint32_t retries = 0;        // failed attempts so far
    std::uint64_t journey = 0;        // obs journey tag (0 = untracked)
  };

  // --- channel state ---------------------------------------------------
  [[nodiscard]] bool medium_busy() const;
  void set_nav(sim::Time until);

  // --- access engine ---------------------------------------------------
  void try_begin_access();
  /// Stop the DIFS/EIFS wait and freeze the backoff countdown, keeping
  /// the slots that elapsed idle. `count_boundary_slot` decides a freeze
  /// exactly on a slot boundary (see the file comment).
  void cancel_access_timers(bool count_boundary_slot);
  /// Whole slots since the running countdown started.
  [[nodiscard]] int slots_elapsed(bool count_boundary_slot) const;
  void on_defer_end();
  void draw_backoff();
  void transmit_current();

  // --- transmit pipeline ------------------------------------------------
  void send_data_frame();
  void start_exchange_timeout(sim::Time timeout);
  void on_exchange_timeout();
  void exchange_failed(bool used_rts);
  void exchange_succeeded();
  void finish_current(bool success);

  // --- receive path ------------------------------------------------------
  void handle_data(const Frame& f);
  void handle_rts(const Frame& f);
  void handle_cts(const Frame& f);
  void handle_ack(const Frame& f);
  void schedule_response(const Frame& response);
  void send_response();

  [[nodiscard]] sim::Time cts_timeout() const;
  [[nodiscard]] sim::Time ack_timeout() const;

  sim::Simulator& sim_;
  phy::Radio& radio_;
  MacAddress address_;
  MacParams params_;
  sim::Rng rng_;

  State state_ = State::kIdle;
  std::deque<QueueItem> queue_;

  std::uint32_t cw_;
  int backoff_slots_ = -1;  // -1: no backoff pending (first access may skip it)
  sim::Time countdown_start_ = sim::Time::zero();  // while slot_timer_ is pending
  bool eifs_pending_ = false;

  sim::Time nav_until_ = sim::Time::zero();
  sim::EventId defer_timer_ = sim::kInvalidEvent;
  sim::EventId slot_timer_ = sim::kInvalidEvent;
  sim::EventId nav_timer_ = sim::kInvalidEvent;
  sim::EventId timeout_timer_ = sim::kInvalidEvent;
  sim::EventId response_timer_ = sim::kInvalidEvent;
  Frame response_;  // the CTS or ACK response_timer_ sends
  sim::EventId sifs_data_timer_ = sim::kInvalidEvent;

  std::uint16_t next_seq_ = 0;
  /// Duplicate filter: last sequence number delivered per source.
  std::unordered_map<MacAddress, std::uint16_t, MacAddressHash> last_rx_seq_;

  RxHandler rx_handler_;
  TxStatusHandler tx_status_handler_;
  AttemptHandler attempt_handler_;
  MacCounters counters_;
  obs::TraceSink* obs_sink_ = nullptr;
  obs::JourneyRecorder* journeys_ = nullptr;
  PeerLookup journey_peer_;
  RateSelector rate_selector_;

  /// Trace `kind` against frame `f` (seq, MSDU bytes).
  void trace(obs::EventKind kind, const Frame& f);
  /// Trace `kind` against the queue head (zeros when the queue is empty).
  void trace_queue_head(obs::EventKind kind);
  /// Journey id of the queue head (0 when untracked or queue empty).
  [[nodiscard]] std::uint64_t head_journey() const {
    return (journeys_ != nullptr && !queue_.empty()) ? queue_.front().journey : 0;
  }
};

}  // namespace adhoc::mac
