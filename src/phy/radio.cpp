#include "phy/radio.hpp"

#include <algorithm>
#include <stdexcept>


namespace adhoc::phy {

Radio::Radio(sim::Simulator& simulator, Medium& medium, std::uint32_t id, PhyParams params,
             Position position)
    : sim_(simulator),
      medium_(medium),
      id_(id),
      params_(params),
      position_(position),
      mode_since_(simulator.now()) {
  medium_.attach(*this);
}

bool Radio::transmitting() const { return sim_.now() < tx_until_; }

Position Radio::position() const {
  if (mobility_ != nullptr) return mobility_->position_at(sim_.now());
  return position_;
}

// --------------------------------------------------------- energy accounting

Radio::Mode Radio::implied_mode() const {
  if (!enabled_) return Mode::kOff;
  if (transmitting()) return Mode::kTx;
  if (lock_.has_value()) return Mode::kRx;
  return Mode::kIdle;
}

void Radio::set_mode(Mode m) {
  const sim::Time now = sim_.now();
  mode_time_[static_cast<std::size_t>(mode_)] += now - mode_since_;
  mode_since_ = now;
  mode_ = m;
}

sim::Time Radio::time_in_mode(Mode m) const {
  sim::Time t = mode_time_[static_cast<std::size_t>(m)];
  if (m == mode_) t += sim_.now() - mode_since_;
  return t;
}

double Radio::energy_consumed_j() const {
  // Time spent in Mode::kOff draws no power.
  return time_in_mode(Mode::kIdle).to_sec() * params_.power_idle_w +
         time_in_mode(Mode::kRx).to_sec() * params_.power_rx_w +
         time_in_mode(Mode::kTx).to_sec() * params_.power_tx_w;
}

double Radio::total_signal_dbm() const {
  double total_mw = 0.0;
  for (const ActiveSignal& sig : signals_) total_mw += sig.power_mw;
  return mw_to_dbm(total_mw);  // -inf when no signal is on the air
}

bool Radio::cca_busy() const {
  // A powered-off radio reports busy: the MAC above freezes (cancels
  // access timers, defers) instead of blind-transmitting into a dead
  // front end, and resumes deterministically on the idle edge at
  // power-on.
  if (!enabled_) return true;
  if (transmitting() || lock_.has_value()) return true;
  // Energy detect compares the aggregate *signal* power to the CS
  // threshold (ns-2 style). The thermal noise floor is excluded here —
  // it only enters SINR — so calibrated PCS ranges below the noise floor
  // remain meaningful.
  double total_mw = 0.0;
  for (const ActiveSignal& sig : signals_) total_mw += sig.power_mw;
  return total_mw >= dbm_to_mw(params_.cs_threshold_dbm);
}

void Radio::update_cca() {
  // Every radio state change funnels through here; settle the energy
  // account before evaluating carrier sense.
  set_mode(implied_mode());
  const bool busy = cca_busy();
  if (busy != last_cca_busy_) {
    last_cca_busy_ = busy;
    if (listener_ != nullptr) listener_->on_cca(busy);
  }
}

double Radio::interference_mw(SignalId excluding) const {
  double total = dbm_to_mw(params_.noise_floor_dbm);
  for (const ActiveSignal& sig : signals_) {
    if (sig.sid != excluding) total += sig.power_mw;
  }
  return total;
}

std::vector<Radio::ActiveSignal>::iterator Radio::signal_pos(SignalId sid) {
  return std::lower_bound(
      signals_.begin(), signals_.end(), sid,
      [](const ActiveSignal& sig, SignalId key) { return sig.sid < key; });
}

void Radio::add_signal(SignalId sid, double power_mw) {
  const auto it = signal_pos(sid);
  if (it != signals_.end() && it->sid == sid) return;
  signals_.insert(it, ActiveSignal{sid, power_mw});
}

sim::Time Radio::start_tx(const TxDescriptor& desc) {
  if (transmitting()) throw std::logic_error("Radio: start_tx while transmitting");
  // Half duplex: abandoning an in-progress reception loses that frame
  // silently (the preamble's frame never completes at this receiver).
  if (lock_.has_value()) {
    lock_.reset();
    ++frames_missed_while_tx_;
  }
  const sim::Time duration = params_.timing.frame_duration(desc.psdu_bits, desc.rate,
                                                           desc.preamble);
  tx_until_ = sim_.now() + duration;
  if (enabled_) {
    medium_.begin_transmission(*this, desc, duration);
    if (trace_ != nullptr) {
      trace_->span(sim_.now(), duration, obs::Layer::kPhy, id_, obs::EventKind::kPhyTx,
                   rate_mbps(desc.rate), static_cast<double>(desc.psdu_bits));
    }
  } else {
    // Powered off: keep the MAC's timing (tx_end still fires, so RTS/
    // data/response sequences complete locally) but radiate nothing.
    ++tx_while_disabled_;
  }
  sim_.at(tx_until_, [this] {
    if (listener_ != nullptr) listener_->on_tx_end();
    update_cca();
  }, "phy.tx_end");
  update_cca();
  return duration;
}

void Radio::signal_start(SignalId sid, double rx_dbm, const TxDescriptor& desc) {
  if (!enabled_) {
    // Dead front end: the energy is simply not observed. The medium's
    // already-scheduled signal_end for this sid becomes a no-op erase.
    ++frames_missed_while_off_;
    return;
  }
  add_signal(sid, dbm_to_mw(rx_dbm));

  if (transmitting()) {
    ++frames_missed_while_tx_;
    update_cca();
    return;
  }

  if (!lock_.has_value()) {
    // Try to lock: the PLCP (1 Mbps) must be above sensitivity and clear
    // of interference at arrival.
    const bool plcp_power_ok = rx_dbm >= params_.sensitivity(Rate::kR1);
    const double sinr_db = rx_dbm - mw_to_dbm(interference_mw(sid));
    const bool plcp_sinr_ok = sinr_db >= params_.sinr_threshold(Rate::kR1);
    if (plcp_power_ok && plcp_sinr_ok) {
      const bool payload_ok = rx_dbm >= params_.sensitivity(desc.rate) &&
                              sinr_db >= params_.sinr_threshold(desc.rate);
      lock_ = Lock{sid, dbm_to_mw(rx_dbm), desc, payload_ok, false};
    } else if (!plcp_power_ok) {
      ++frames_below_plcp_threshold_;
    } else {
      ++frames_failed_plcp_sinr_;
    }
  } else if (params_.preamble_capture &&
             dbm_to_mw(rx_dbm) >=
                 lock_->power_mw * dbm_to_mw(params_.capture_switch_margin_db) &&
             rx_dbm >= params_.sensitivity(Rate::kR1)) {
    // Capture: the new arrival overwhelms the locked frame; re-sync.
    const double sinr_db = rx_dbm - mw_to_dbm(interference_mw(sid));
    if (sinr_db >= params_.sinr_threshold(Rate::kR1)) {
      ++frames_captured_over_lock_;
      if (trace_ != nullptr) {
        trace_->instant(sim_.now(), obs::Layer::kPhy, id_, obs::EventKind::kPhyCapture, rx_dbm,
                        sinr_db);
      }
      const bool payload_ok = rx_dbm >= params_.sensitivity(desc.rate) &&
                              sinr_db >= params_.sinr_threshold(desc.rate);
      lock_ = Lock{sid, dbm_to_mw(rx_dbm), desc, payload_ok, false};
    } else {
      ++frames_missed_while_locked_;
      update_lock_sinr();
    }
  } else {
    ++frames_missed_while_locked_;
    update_lock_sinr();
  }
  update_cca();
}

void Radio::noise_start(SignalId sid, double rx_dbm) {
  if (!enabled_) {
    ++frames_missed_while_off_;
    return;
  }
  // Tracked like any signal for energy purposes, but with no descriptor:
  // noise is never a lock candidate, only interference. It can corrupt
  // the frame currently locked and raise carrier sense.
  add_signal(sid, dbm_to_mw(rx_dbm));
  ++noise_bursts_heard_;
  update_lock_sinr();
  update_cca();
}

void Radio::set_enabled(bool on) {
  if (on == enabled_) return;
  enabled_ = on;
  if (!on) {
    // Going down: drop the lock and all tracked energy instantly. An
    // in-flight own transmission is truncated locally (its already-
    // scheduled energy at the receivers completes — the wavefront has
    // left the antenna; the documented crash approximation).
    lock_.reset();
    signals_.clear();
    if (tx_until_ > sim_.now()) tx_until_ = sim_.now();
  }
  // Off -> CCA busy edge freezes the MAC; on -> the idle edge (no
  // signals are tracked yet) lets it resume access deterministically.
  update_cca();
}

void Radio::update_lock_sinr() {
  if (!lock_.has_value() || lock_->corrupted) return;
  const double sinr_db =
      mw_to_dbm(lock_->power_mw) - mw_to_dbm(interference_mw(lock_->sid));
  // The whole frame must clear the payload rate's threshold; the PLCP
  // portion only the 1 Mbps threshold. We conservatively apply the
  // payload threshold when the payload is decodable, else the PLCP one.
  const Rate gate_rate = lock_->payload_decodable ? lock_->desc.rate : Rate::kR1;
  if (sinr_db < params_.sinr_threshold(gate_rate)) {
    lock_->corrupted = true;
    if (trace_ != nullptr) {
      trace_->instant(sim_.now(), obs::Layer::kPhy, id_, obs::EventKind::kPhyCollision,
                      mw_to_dbm(lock_->power_mw), sinr_db);
    }
  }
}

void Radio::signal_end(SignalId sid) {
  const bool was_locked = lock_.has_value() && lock_->sid == sid;
  if (was_locked) {
    const bool ok = lock_->payload_decodable && !lock_->corrupted;
    auto payload = lock_->desc.payload;
    const Rate rate = lock_->desc.rate;
    const double rx_dbm = mw_to_dbm(lock_->power_mw);
    lock_.reset();
    if (ok) {
      ++frames_decoded_;
      if (trace_ != nullptr) {
        trace_->instant(sim_.now(), obs::Layer::kPhy, id_, obs::EventKind::kPhyRxOk,
                        rate_mbps(rate), rx_dbm);
      }
      if (listener_ != nullptr) listener_->on_rx_ok(std::move(payload), rate, rx_dbm);
    } else {
      ++frames_errored_;
      if (trace_ != nullptr) {
        trace_->instant(sim_.now(), obs::Layer::kPhy, id_, obs::EventKind::kPhyRxError,
                        rate_mbps(rate), rx_dbm);
      }
      if (listener_ != nullptr) listener_->on_rx_error();
    }
  }
  const auto it = signal_pos(sid);
  if (it != signals_.end() && it->sid == sid) signals_.erase(it);
  if (!was_locked) update_lock_sinr();
  update_cca();
}

}  // namespace adhoc::phy
