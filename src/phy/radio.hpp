#pragma once
// 802.11b radio: transmit/receive/carrier-sense state machine.
//
// Reception model (documented in DESIGN.md §6):
//  * A frame locks the receiver if the radio is idle when the signal
//    arrives, the rx power reaches the 1 Mbps (PLCP) sensitivity, and the
//    instantaneous SINR clears the 1 Mbps threshold. PLCP preamble and
//    header are always sent at 1 Mbps, so frames are *detectable* well
//    beyond the range at which their payload is *decodable* — the paper's
//    key multirate observation.
//  * A locked frame decodes successfully iff rx power also reaches the
//    sensitivity of its payload rate and SINR never drops below that
//    rate's threshold while locked ("capture" behaviour [2,3]).
//  * A detectable-but-not-decodable frame (out of payload range, or
//    corrupted by interference) is delivered as an rx *error*, which the
//    MAC answers with EIFS, as the standard requires.
//  * Carrier sense is energy-based: busy whenever transmitting, locked,
//    or total in-band power (noise + all signals, decodable or not)
//    reaches the CS threshold. This makes PCS_range independent of rate
//    and much larger than TX_range.
//  * Half duplex: starting a transmission aborts any lock in progress;
//    signals arriving during TX are tracked for energy only and can never
//    be decoded (missed preamble).
//  * Noise signals (non-802.11 interference from Medium's emitter
//    interface) contribute energy to CCA and SINR like any signal but
//    are never lock candidates.
//  * A radio can be powered off (crash faults): it stops hearing the
//    medium, reports CCA busy so the MAC freezes deterministically, and
//    completes in-progress MAC timing locally without radiating. Time
//    spent off is accounted to Mode::kOff and draws no energy.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "obs/trace.hpp"
#include "phy/medium.hpp"
#include "phy/mobility.hpp"
#include "phy/phy_params.hpp"
#include "phy/units.hpp"
#include "sim/simulator.hpp"

namespace adhoc::phy {

/// MAC-side callbacks. All calls are made from scheduler context.
class RadioListener {
 public:
  virtual ~RadioListener() = default;

  /// Carrier-sense edge (busy <-> idle). Fired only on changes.
  virtual void on_cca(bool busy) = 0;

  /// A frame was received and decoded. `rx_dbm` is its received power.
  virtual void on_rx_ok(std::shared_ptr<const void> payload, Rate rate, double rx_dbm) = 0;

  /// A frame was detected but could not be decoded (out of payload range
  /// or hit by interference). The MAC must respond with EIFS.
  virtual void on_rx_error() = 0;

  /// Own transmission completed (the air is ours until this fires).
  virtual void on_tx_end() = 0;
};

class Radio {
 public:
  /// `id` must be unique among radios on the same medium; it keys the
  /// directed shadowing processes.
  Radio(sim::Simulator& simulator, Medium& medium, std::uint32_t id, PhyParams params,
        Position position);

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  void set_listener(RadioListener* listener) { listener_ = listener; }

  /// Publish tx/rx/collision/capture events into a cross-layer trace
  /// sink (nullptr disables; the radio's id is the track).
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  [[nodiscard]] std::uint32_t id() const { return id_; }
  /// Current position: the mobility model's if attached, else the static
  /// position.
  [[nodiscard]] Position position() const;
  void set_position(const Position& p) {
    position_ = p;
    medium_.notify_moved(*this);  // re-bin in the spatial index
  }
  /// Attach a mobility model (must outlive the radio; nullptr detaches).
  void set_mobility(const MobilityModel* m) {
    mobility_ = m;
    medium_.notify_mobility_changed(*this);
  }
  /// Speed bound for the medium's spatial index: the mobility model's
  /// limit, or 0 (static) without one.
  [[nodiscard]] double max_speed_bound() const {
    return mobility_ == nullptr ? 0.0 : mobility_->max_speed_mps();
  }
  [[nodiscard]] const PhyParams& params() const { return params_; }

  [[nodiscard]] bool transmitting() const;
  [[nodiscard]] bool receiving() const { return lock_.has_value(); }

  /// Power the radio off/on (crash & recovery faults). Powering off
  /// drops the current lock and every tracked signal; while off the
  /// radio neither hears the medium nor radiates (start_tx keeps its
  /// local timing so MAC sequences complete, but nothing is fanned out).
  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Runtime tx-power / antenna-gain step (fault injection); applies
  /// from the next transmission on.
  void set_tx_power_dbm(double dbm) { params_.tx_power_dbm = dbm; }

  /// Energy-based clear channel assessment (see class comment).
  [[nodiscard]] bool cca_busy() const;

  /// Begin transmitting; returns the frame airtime. Must not be called
  /// while already transmitting.
  sim::Time start_tx(const TxDescriptor& desc);

  // --- Medium-facing interface ---------------------------------------
  /// An arrival's energy is tracked until its signal_end; a repeated
  /// start for a sid already tracked adds none.
  void signal_start(SignalId sid, double rx_dbm, const TxDescriptor& desc);
  /// Undecodable energy burst (interference): counts toward CCA and
  /// SINR, corrupts the current lock if it dips below threshold, but is
  /// never a lock candidate. Ends via signal_end like any signal.
  void noise_start(SignalId sid, double rx_dbm);
  /// Stop tracking `sid` (no-op for an untracked one).
  void signal_end(SignalId sid);

  // --- Introspection for tests ---------------------------------------
  [[nodiscard]] std::size_t active_signals() const { return signals_.size(); }
  [[nodiscard]] double total_signal_dbm() const;

  // --- Energy accounting ----------------------------------------------
  enum class Mode : std::uint8_t { kIdle = 0, kRx = 1, kTx = 2, kOff = 3 };

  /// Total energy consumed up to now (joules).
  [[nodiscard]] double energy_consumed_j() const;
  /// Cumulative time spent in a mode up to now.
  [[nodiscard]] sim::Time time_in_mode(Mode m) const;
  [[nodiscard]] Mode mode() const { return mode_; }

 private:
  /// One tracked arrival. The table is kept sorted by sid, so every
  /// energy sum adds powers in transmission order whatever the arrival
  /// order.
  struct ActiveSignal {
    SignalId sid = 0;
    double power_mw = 0.0;
  };
  struct Lock {
    SignalId sid = 0;
    double power_mw = 0.0;
    TxDescriptor desc;
    bool payload_decodable = false;  // power reached the payload rate's sensitivity
    bool corrupted = false;          // SINR dipped below threshold while locked
  };

  /// Interference power (mW) seen by the locked signal: noise + all other
  /// active signals.
  [[nodiscard]] double interference_mw(SignalId excluding) const;

  /// First tracked signal whose sid is not below `sid`.
  std::vector<ActiveSignal>::iterator signal_pos(SignalId sid);
  /// Track an arrival (no-op if `sid` is already tracked).
  void add_signal(SignalId sid, double power_mw);

  /// Re-evaluate the locked frame's SINR after the signal set changed.
  void update_lock_sinr();

  /// Recompute CCA and fire the listener on an edge.
  void update_cca();

  /// Account elapsed time to the current mode, then switch to `m`.
  void set_mode(Mode m);
  /// The mode implied by the radio's current state (no lock/tx = idle).
  [[nodiscard]] Mode implied_mode() const;

  sim::Simulator& sim_;
  Medium& medium_;
  std::uint32_t id_;
  PhyParams params_;
  Position position_;
  const MobilityModel* mobility_ = nullptr;
  RadioListener* listener_ = nullptr;
  obs::TraceSink* trace_ = nullptr;

  std::vector<ActiveSignal> signals_;  // sorted by sid
  std::optional<Lock> lock_;
  sim::Time tx_until_ = sim::Time::zero();
  bool last_cca_busy_ = false;
  bool enabled_ = true;

  Mode mode_ = Mode::kIdle;
  sim::Time mode_since_ = sim::Time::zero();
  std::array<sim::Time, 4> mode_time_{};  // accumulated, excluding current stint

  // Counters for tests/benches.
  std::uint64_t frames_decoded_ = 0;
  std::uint64_t frames_errored_ = 0;
  std::uint64_t frames_missed_while_tx_ = 0;
  std::uint64_t frames_missed_while_locked_ = 0;
  std::uint64_t frames_below_plcp_threshold_ = 0;
  std::uint64_t frames_failed_plcp_sinr_ = 0;
  std::uint64_t frames_captured_over_lock_ = 0;
  std::uint64_t noise_bursts_heard_ = 0;
  std::uint64_t frames_missed_while_off_ = 0;
  std::uint64_t tx_while_disabled_ = 0;

 public:
  [[nodiscard]] std::uint64_t frames_decoded() const { return frames_decoded_; }
  [[nodiscard]] std::uint64_t frames_errored() const { return frames_errored_; }
  [[nodiscard]] std::uint64_t frames_missed_while_tx() const { return frames_missed_while_tx_; }
  /// Arrivals that found the receiver locked on another frame.
  [[nodiscard]] std::uint64_t frames_missed_while_locked() const {
    return frames_missed_while_locked_;
  }
  [[nodiscard]] std::uint64_t frames_below_plcp_threshold() const {
    return frames_below_plcp_threshold_;
  }
  [[nodiscard]] std::uint64_t frames_failed_plcp_sinr() const {
    return frames_failed_plcp_sinr_;
  }
  /// Strong arrivals that stole the receiver from a weaker lock.
  [[nodiscard]] std::uint64_t frames_captured_over_lock() const {
    return frames_captured_over_lock_;
  }
  /// Non-802.11 interference bursts whose energy reached this radio.
  [[nodiscard]] std::uint64_t noise_bursts_heard() const { return noise_bursts_heard_; }
  /// Arrivals (signals or noise) discarded because the radio was off.
  [[nodiscard]] std::uint64_t frames_missed_while_off() const { return frames_missed_while_off_; }
  /// Transmissions attempted while powered off (timed locally, never radiated).
  [[nodiscard]] std::uint64_t tx_while_disabled() const { return tx_while_disabled_; }
};

}  // namespace adhoc::phy
