#include "mac/dcf.hpp"

#include <algorithm>


namespace adhoc::mac {

namespace {
/// Margin added to CTS/ACK timeouts to absorb propagation delays.
const sim::Time kTimeoutMargin = sim::Time::us(5);
}  // namespace

void Dcf::trace(obs::EventKind kind, const Frame& f) {
  if (obs_sink_ == nullptr) return;
  obs_sink_->instant(sim_.now(), obs::Layer::kMac, radio_.id(), kind, static_cast<double>(f.seq),
                     static_cast<double>(f.sdu_bytes));
}

void Dcf::trace_queue_head(obs::EventKind kind) {
  if (obs_sink_ == nullptr) return;
  const bool have_item = !queue_.empty();
  obs_sink_->instant(sim_.now(), obs::Layer::kMac, radio_.id(), kind,
                     have_item ? static_cast<double>(queue_.front().seq) : 0.0,
                     have_item ? static_cast<double>(queue_.front().bytes) : 0.0);
}

Dcf::Dcf(sim::Simulator& simulator, phy::Radio& radio, MacAddress address, MacParams params)
    : sim_(simulator),
      radio_(radio),
      address_(address),
      params_(params),
      rng_(simulator.rng_stream("mac").substream(radio.id())),
      cw_(params.cw_min) {
  radio_.set_listener(this);
}

// ----------------------------------------------------------------- queueing

bool Dcf::enqueue(MacAddress dst, std::shared_ptr<const void> sdu, std::uint32_t bytes,
                  std::uint64_t journey) {
  if (queue_.size() >= params_.queue_limit) {
    ++counters_.msdu_queue_drops;
    trace_queue_head(obs::EventKind::kMacQueueDrop);
    return false;  // the caller attributes the tagged journey's drop
  }
  ++counters_.msdu_enqueued;
  queue_.push_back(QueueItem{dst, std::move(sdu), bytes, false, 0, 0, 0, journey});
  counters_.queue_high_water = std::max<std::uint64_t>(counters_.queue_high_water, queue_.size());
  if (journeys_ != nullptr && journey != 0) {
    journeys_->on_mac_enqueue(journey, radio_.id(), sim_.now());
    // Contention (or the pending post-backoff) starts now for a new head.
    if (queue_.size() == 1) journeys_->on_head_of_queue(journey, sim_.now());
  }
  if (state_ == State::kIdle) try_begin_access();
  return true;
}

// ------------------------------------------------------------ channel state

bool Dcf::medium_busy() const { return radio_.cca_busy() || sim_.now() < nav_until_; }

void Dcf::set_nav(sim::Time until) {
  if (until <= nav_until_) return;
  ++counters_.nav_updates;
  nav_until_ = until;
  // A NAV expiry is not a radio edge; arrange our own wake-up.
  sim_.cancel(nav_timer_);
  nav_timer_ = sim_.after(until - sim_.now(), [this] {
    nav_timer_ = sim::kInvalidEvent;
    try_begin_access();
  }, "mac.nav");
  // Virtual carrier sense interrupts any DIFS wait / backoff countdown.
  cancel_access_timers(/*count_boundary_slot=*/false);
}

// ------------------------------------------------------------ access engine

int Dcf::slots_elapsed(bool count_boundary_slot) const {
  const std::int64_t elapsed = (sim_.now() - countdown_start_).count_ns();
  // Without the boundary slot, an instant exactly on boundary k still
  // lies in slot k; elsewhere both rules agree.
  return static_cast<int>((count_boundary_slot ? elapsed : elapsed - 1) /
                          params_.timing.slot.count_ns());
}

int Dcf::backoff_slots() const {
  return slot_timer_ == sim::kInvalidEvent ? backoff_slots_
                                           : backoff_slots_ - slots_elapsed(true);
}

void Dcf::cancel_access_timers(bool count_boundary_slot) {
  sim_.cancel(defer_timer_);
  defer_timer_ = sim::kInvalidEvent;
  if (sim_.cancel(slot_timer_)) backoff_slots_ -= slots_elapsed(count_boundary_slot);
  slot_timer_ = sim::kInvalidEvent;
}

void Dcf::try_begin_access() {
  if (state_ != State::kIdle && state_ != State::kContending) return;
  if (response_timer_ != sim::kInvalidEvent) return;  // SIFS response owns the radio next
  if (queue_.empty() && backoff_slots_ <= 0) {
    state_ = State::kIdle;
    return;
  }
  state_ = State::kContending;
  if (medium_busy()) {
    cancel_access_timers(/*count_boundary_slot=*/true);
    return;  // resumed by the CCA-idle edge or the NAV timer
  }
  if (defer_timer_ != sim::kInvalidEvent || slot_timer_ != sim::kInvalidEvent) return;
  const sim::Time wait = eifs_pending_ ? eifs(params_.timing, params_.preamble)
                                       : params_.timing.difs;
  defer_timer_ = sim_.after(wait, [this] {
    defer_timer_ = sim::kInvalidEvent;
    on_defer_end();
  }, "mac.defer");
}

void Dcf::on_defer_end() {
  eifs_pending_ = false;
  if (medium_busy()) return;  // raced with a busy edge; that edge re-arms us
  if (backoff_slots_ <= 0) {
    // The countdown is done, or the medium was idle for a full DIFS with
    // no backoff pending: the standard allows immediate transmission.
    transmit_current();
    return;
  }
  // One event for the whole countdown; a freeze on the way cancels it
  // and keeps the slots that elapsed idle (cancel_access_timers).
  countdown_start_ = sim_.now();
  slot_timer_ = sim_.after(params_.timing.slot * backoff_slots_, [this] {
    slot_timer_ = sim::kInvalidEvent;
    transmit_current();
  }, "mac.slot");
}

void Dcf::draw_backoff() {
  backoff_slots_ = static_cast<int>(rng_.uniform_int(0, static_cast<std::int64_t>(cw_) - 1));
  ++counters_.backoff_draws;
  counters_.backoff_slots_total += static_cast<std::uint64_t>(backoff_slots_);
}

void Dcf::transmit_current() {
  if (queue_.empty()) {
    // Only the post-backoff finished; nothing to send.
    backoff_slots_ = -1;
    state_ = State::kIdle;
    return;
  }
  backoff_slots_ = -1;  // consumed
  QueueItem& item = queue_.front();
  if (!item.seq_assigned) {
    item.seq = static_cast<std::uint16_t>(next_seq_++ & 0x0fff);
    item.seq_assigned = true;
  }
  if (journeys_ != nullptr && item.journey != 0) {
    journeys_->on_attempt_start(item.journey, sim_.now());
  }

  const bool group = item.dst.is_group();
  if (!group && params_.use_rts(item.bytes)) {
    const phy::Rate data_rate =
        rate_selector_ ? rate_selector_(item.dst) : params_.data_rate;
    auto rts = std::make_shared<Frame>();
    rts->type = FrameType::kRts;
    rts->dst = item.dst;
    rts->src = address_;
    rts->duration = nav_for_rts(params_.timing, item.bytes, data_rate, params_.control_rate,
                                params_.preamble);
    ++counters_.tx_rts;
    trace(obs::EventKind::kMacTxStart, *rts);
    state_ = State::kTxRts;
    radio_.start_tx(
        phy::TxDescriptor{params_.control_rate, rts->psdu_bits(), params_.preamble, rts});
    return;
  }
  send_data_frame();
}

void Dcf::send_data_frame() {
  QueueItem& item = queue_.front();
  const bool group = item.dst.is_group();

  auto data = std::make_shared<Frame>();
  data->type = FrameType::kData;
  data->dst = item.dst;
  data->src = address_;
  data->seq = item.seq;
  data->retry = item.retries > 0;
  data->sdu = item.sdu;
  data->sdu_bytes = item.bytes;
  data->duration = group ? sim::Time::zero()
                         : nav_for_data(params_.timing, params_.control_rate, params_.preamble);
  ++counters_.tx_data;
  ++item.transmissions;
  trace(obs::EventKind::kMacTxStart, *data);
  state_ = State::kTxData;
  const phy::Rate rate = group ? params_.broadcast_rate
                               : (rate_selector_ ? rate_selector_(item.dst)
                                                 : params_.data_rate);
  radio_.start_tx(phy::TxDescriptor{rate, data->psdu_bits(), params_.preamble, data});
}

// --------------------------------------------------------- exchange control

sim::Time Dcf::cts_timeout() const {
  return params_.timing.sifs + params_.timing.slot +
         cts_airtime(params_.timing, params_.control_rate, params_.preamble) + kTimeoutMargin;
}

sim::Time Dcf::ack_timeout() const {
  return params_.timing.sifs + params_.timing.slot +
         ack_airtime(params_.timing, params_.control_rate, params_.preamble) + kTimeoutMargin;
}

void Dcf::start_exchange_timeout(sim::Time timeout) {
  sim_.cancel(timeout_timer_);
  timeout_timer_ = sim_.after(timeout, [this] {
    timeout_timer_ = sim::kInvalidEvent;
    on_exchange_timeout();
  }, "mac.timeout");
}

void Dcf::on_exchange_timeout() {
  if (state_ == State::kWaitCts) {
    ++counters_.cts_timeouts;
    trace_queue_head(obs::EventKind::kMacCtsTimeout);
    exchange_failed(/*used_rts=*/true);
  } else if (state_ == State::kWaitAck) {
    ++counters_.ack_timeouts;
    trace_queue_head(obs::EventKind::kMacAckTimeout);
    exchange_failed(params_.use_rts(queue_.front().bytes));
  }
}

void Dcf::exchange_failed(bool used_rts) {
  QueueItem& item = queue_.front();
  if (attempt_handler_) attempt_handler_(item.dst, false);
  if (journeys_ != nullptr && item.journey != 0) {
    journeys_->on_attempt_fail(item.journey, sim_.now());
  }
  ++item.retries;
  const std::uint32_t limit =
      used_rts ? params_.long_retry_limit : params_.short_retry_limit;
  if (item.retries >= limit) {
    ++counters_.tx_retry_drops;
    trace_queue_head(obs::EventKind::kMacDrop);
    finish_current(/*success=*/false);
    return;
  }
  cw_ = std::min(cw_ * 2, params_.cw_max);
  draw_backoff();
  state_ = State::kContending;
  try_begin_access();
}

void Dcf::exchange_succeeded() {
  sim_.cancel(timeout_timer_);
  timeout_timer_ = sim::kInvalidEvent;
  finish_current(/*success=*/true);
}

void Dcf::finish_current(bool success) {
  const QueueItem item = std::move(queue_.front());
  if (journeys_ != nullptr && item.journey != 0) {
    if (success) {
      journeys_->on_hop_success(item.journey, radio_.id(), sim_.now());
    } else {
      journeys_->on_retry_drop(item.journey, radio_.id(),
                               journey_peer_ ? journey_peer_(item.dst) : -1, sim_.now());
    }
  }
  queue_.pop_front();
  if (success) ++counters_.tx_success;
  cw_ = params_.cw_min;
  draw_backoff();  // post-backoff, per the standard
  if (const std::uint64_t next = head_journey(); next != 0) {
    journeys_->on_head_of_queue(next, sim_.now());
  }
  if (tx_status_handler_) {
    tx_status_handler_(TxStatus{item.dst, item.bytes, success, item.transmissions});
  }
  state_ = State::kContending;
  try_begin_access();
}

// -------------------------------------------------------------- radio edges

void Dcf::on_cca(bool busy) {
  if (busy) {
    // A propagated edge counts the slot it lands on; a power-off does not.
    cancel_access_timers(/*count_boundary_slot=*/radio_.enabled());
  } else {
    try_begin_access();
  }
}

void Dcf::on_tx_end() {
  switch (state_) {
    case State::kTxRts:
      state_ = State::kWaitCts;
      start_exchange_timeout(cts_timeout());
      break;
    case State::kTxData: {
      const QueueItem& item = queue_.front();
      if (item.dst.is_group()) {
        finish_current(/*success=*/true);
      } else {
        state_ = State::kWaitAck;
        start_exchange_timeout(ack_timeout());
      }
      break;
    }
    case State::kResponding:
      state_ = State::kIdle;
      try_begin_access();
      break;
    default:
      // TX end in an unexpected state: treat as spurious (can happen if a
      // timeout already advanced the state machine).
      break;
  }
}

void Dcf::on_rx_error() {
  ++counters_.rx_errors;
  if (obs_sink_ != nullptr) {
    obs_sink_->instant(sim_.now(), obs::Layer::kMac, radio_.id(), obs::EventKind::kMacRxError);
  }
  // EIFS: the frame was detected but not understood; a SIFS response to it
  // may follow, which we must not trample (standard 9.2.3.4).
  eifs_pending_ = true;
  cancel_access_timers(/*count_boundary_slot=*/false);
  try_begin_access();
}

void Dcf::on_rx_ok(std::shared_ptr<const void> payload, phy::Rate /*rate*/, double /*rx_dbm*/) {
  // Correct reception resynchronizes us; EIFS no longer applies.
  eifs_pending_ = false;
  const auto frame = std::static_pointer_cast<const Frame>(std::move(payload));
  trace(obs::EventKind::kMacRxOk, *frame);
  switch (frame->type) {
    case FrameType::kData: handle_data(*frame); break;
    case FrameType::kRts: handle_rts(*frame); break;
    case FrameType::kCts: handle_cts(*frame); break;
    case FrameType::kAck: handle_ack(*frame); break;
  }
}

// ------------------------------------------------------------- receive path

void Dcf::handle_data(const Frame& f) {
  const bool for_me = f.dst == address_ || f.dst.is_group();
  if (!for_me) {
    set_nav(sim_.now() + f.duration);
    return;
  }
  if (!f.dst.is_group()) {
    // ACK policy: the standard transmits the ACK a SIFS after the data
    // unconditionally; the measured cards withhold it while the medium is
    // sensed busy (paper §3.3). The check happens at the SIFS instant.
    Frame ack;
    ack.type = FrameType::kAck;
    ack.dst = f.src;
    ack.src = address_;
    ack.duration = sim::Time::zero();
    schedule_response(ack);
  }
  if (!f.dst.is_group()) {
    const auto it = last_rx_seq_.find(f.src);
    if (f.retry && it != last_rx_seq_.end() && it->second == f.seq) {
      ++counters_.rx_duplicates;
      return;
    }
    last_rx_seq_[f.src] = f.seq;
  }
  ++counters_.msdu_delivered_up;
  if (rx_handler_) rx_handler_(f.sdu, f.sdu_bytes, f.src, f.dst);
}

void Dcf::handle_rts(const Frame& f) {
  if (f.dst != address_) {
    set_nav(sim_.now() + f.duration);
    return;
  }
  // Standard rule: respond with CTS only if our NAV indicates idle. This
  // is the mechanism behind the paper's RTS/CTS starvation analysis.
  if (sim_.now() < nav_until_) {
    ++counters_.cts_withheld_nav;
    return;
  }
  Frame cts;
  cts.type = FrameType::kCts;
  cts.dst = f.src;
  cts.src = address_;
  cts.duration =
      nav_for_cts_reply(f.duration, params_.timing, params_.control_rate, params_.preamble);
  schedule_response(cts);
}

void Dcf::handle_cts(const Frame& f) {
  if (f.dst != address_) {
    set_nav(sim_.now() + f.duration);
    return;
  }
  if (state_ != State::kWaitCts) return;  // stale CTS
  sim_.cancel(timeout_timer_);
  timeout_timer_ = sim::kInvalidEvent;
  state_ = State::kSifsToData;
  sifs_data_timer_ = sim_.after(params_.timing.sifs, [this] {
    sifs_data_timer_ = sim::kInvalidEvent;
    send_data_frame();
  }, "mac.sifs");
}

void Dcf::handle_ack(const Frame& f) {
  if (f.dst != address_) {
    set_nav(sim_.now() + f.duration);
    return;
  }
  if (state_ != State::kWaitAck) return;  // stale ACK
  if (attempt_handler_) attempt_handler_(queue_.front().dst, true);
  exchange_succeeded();
}

void Dcf::schedule_response(const Frame& response) {
  // A station mid-exchange (waiting for its own CTS/ACK, or already
  // responding) cannot turn around a second SIFS response.
  if (state_ != State::kIdle && state_ != State::kContending) {
    ++counters_.responses_suppressed;
    return;
  }
  if (response_timer_ != sim::kInvalidEvent) {
    ++counters_.responses_suppressed;
    return;
  }
  cancel_access_timers(/*count_boundary_slot=*/false);
  response_ = response;
  auto fire = [this] {
    response_timer_ = sim::kInvalidEvent;
    send_response();
  };
  static_assert(sizeof(fire) <= sim::Scheduler::kInlineBytes);
  response_timer_ = sim_.after(params_.timing.sifs, fire, "mac.response");
}

void Dcf::send_response() {
  const bool is_ack = response_.type == FrameType::kAck;
  if (radio_.transmitting()) {
    ++counters_.responses_suppressed;
    try_begin_access();
    return;
  }
  if (is_ack && params_.ack_requires_idle_medium && radio_.cca_busy()) {
    ++counters_.acks_suppressed_busy;
    try_begin_access();
    return;
  }
  auto wire = std::make_shared<Frame>(response_);
  if (is_ack) {
    ++counters_.tx_ack;
  } else {
    ++counters_.tx_cts;
  }
  trace(obs::EventKind::kMacTxStart, *wire);
  state_ = State::kResponding;
  radio_.start_tx(
      phy::TxDescriptor{params_.control_rate, wire->psdu_bits(), params_.preamble, wire});
}

std::ostream& operator<<(std::ostream& os, const MacCounters& c) {
  os << "enq=" << c.msdu_enqueued << " qdrop=" << c.msdu_queue_drops
     << " up=" << c.msdu_delivered_up << " dup=" << c.rx_duplicates << " txD=" << c.tx_data
     << " txR=" << c.tx_rts << " txC=" << c.tx_cts << " txA=" << c.tx_ack
     << " ok=" << c.tx_success << " rdrop=" << c.tx_retry_drops << " aTO=" << c.ack_timeouts
     << " cTO=" << c.cts_timeouts << " aSup=" << c.acks_suppressed_busy
     << " cNav=" << c.cts_withheld_nav << " rSup=" << c.responses_suppressed
     << " rxE=" << c.rx_errors;
  return os;
}

}  // namespace adhoc::mac
