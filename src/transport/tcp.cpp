#include "transport/tcp.hpp"

#include <algorithm>


namespace adhoc::transport {

namespace {
constexpr bool seq_lt(std::uint32_t a, std::uint32_t b) { return a < b; }
constexpr bool seq_le(std::uint32_t a, std::uint32_t b) { return a <= b; }
}  // namespace

std::string_view TcpConnection::state_name(State s) {
  switch (s) {
    case State::kClosed: return "CLOSED";
    case State::kSynSent: return "SYN_SENT";
    case State::kSynRcvd: return "SYN_RCVD";
    case State::kEstablished: return "ESTABLISHED";
  }
  return "?";
}

TcpConnection::TcpConnection(TcpStack& stack, std::uint16_t local_port,
                             net::Ipv4Address remote_ip, std::uint16_t remote_port,
                             TcpParams params)
    : stack_(stack),
      sim_(stack.simulator()),
      params_(params),
      local_port_(local_port),
      remote_ip_(remote_ip),
      remote_port_(remote_port),
      rto_(params.initial_rto) {
  cwnd_ = static_cast<double>(params_.initial_cwnd_segments) * params_.mss;
  ssthresh_ = params_.rwnd_bytes;  // effectively "unset": cap at the window
}

void TcpConnection::trace_event(obs::EventKind kind, double a, double b) {
  obs::TraceSink* t = stack_.trace_sink();
  if (t == nullptr) return;
  t->instant(sim_.now(), obs::Layer::kTransport, stack_.trace_track(), kind, a, b);
}

void TcpConnection::trace_cwnd() {
  trace_event(obs::EventKind::kTcpCwnd, cwnd_, static_cast<double>(ssthresh_));
}

std::uint64_t TcpConnection::bytes_acked() const {
  // Exclude the SYN from the count.
  std::uint64_t raw = snd_una_ - iss_;
  if (raw > 0) raw -= 1;
  return raw;
}

// ------------------------------------------------------------- application

void TcpConnection::connect() {
  if (state_ != State::kClosed) return;
  iss_ = 1000;  // deterministic ISN: reproducible traces
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  state_ = State::kSynSent;
  net::TcpFlags f;
  f.syn = true;
  send_segment(iss_, 0, f, false);
  arm_rto();
}

void TcpConnection::send(std::uint64_t bytes) {
  app_queued_ += bytes;
  if (state_ == State::kEstablished) try_send();
}

void TcpConnection::set_infinite_source(bool on) {
  infinite_source_ = on;
  if (on && state_ == State::kEstablished) try_send();
}

// -------------------------------------------------------------- established

void TcpConnection::enter_established() {
  state_ = State::kEstablished;
  trace_cwnd();  // opening point of the cwnd counter track
  if (on_established_) on_established_();
  try_send();
}

void TcpConnection::become_closed() {
  cancel_rto();
  sim_.cancel(delack_timer_);
  delack_timer_ = sim::kInvalidEvent;
  state_ = State::kClosed;
  if (on_closed_) on_closed_();
}

// ------------------------------------------------------------------ sending

std::uint32_t TcpConnection::app_limit_seq() const {
  if (infinite_source_) return snd_una_ + 0x20000000u;  // always a full window ahead
  // Stream bytes start right after the SYN.
  return iss_ + 1 + static_cast<std::uint32_t>(app_queued_);
}

std::uint64_t TcpConnection::journey_for_segment(std::uint32_t seq, std::uint32_t len,
                                                 bool retransmit) {
  obs::JourneyRecorder* journeys = stack_.node().journeys();
  if (journeys == nullptr || len == 0) return 0;
  if (!retransmit) {
    const std::uint64_t journey =
        journeys->mint(stack_.node().id(), net::Node::station_for(remote_ip_), net::kProtoTcp,
                       len, remote_port_, sim_.now());
    if (journey != 0) seg_journeys_[seq + len] = SegJourney{seq, journey};
    return journey;
  }
  // Retransmission: find the tracked segment covering `seq`, if any (the
  // original may have been sampled out, or the map trimmed by an ACK that
  // raced the retransmit).
  const auto it = seg_journeys_.upper_bound(seq);
  if (it == seg_journeys_.end() || seq_lt(seq, it->second.start)) return 0;
  journeys->on_retransmit(it->second.journey, sim_.now());
  return it->second.journey;
}

void TcpConnection::journey_delivered(std::uint64_t journey) {
  if (journey == 0) return;
  if (obs::JourneyRecorder* journeys = stack_.node().journeys()) {
    journeys->on_delivered(journey, stack_.node().id(), sim_.now());
  }
}

void TcpConnection::send_segment(std::uint32_t seq, std::uint32_t len, net::TcpFlags flags,
                                 bool retransmit) {
  pending_tx_journey_ = journey_for_segment(seq, len, retransmit);
  net::TcpHeader h;
  h.src_port = local_port_;
  h.dst_port = remote_port_;
  h.seq = seq;
  h.ack = flags.ack ? rcv_nxt_ : 0;
  h.flags = flags;
  h.window = static_cast<std::uint16_t>(std::min<std::uint32_t>(params_.rwnd_bytes, 0xffff));
  ++counters_.segments_tx;
  if (len > 0) ++counters_.data_segments_tx;
  if (retransmit) ++counters_.retransmits;
  if (flags.ack && len == 0) ++counters_.acks_tx;
  // Any ACK we emit satisfies a pending delayed ACK.
  if (flags.ack) {
    pending_ack_segments_ = 0;
    sim_.cancel(delack_timer_);
    delack_timer_ = sim::kInvalidEvent;
  }
  stack_.transmit(*this, h, len);
}

void TcpConnection::try_send() {
  if (state_ != State::kEstablished) return;
  const std::uint32_t wnd = static_cast<std::uint32_t>(
      std::min(cwnd_, static_cast<double>(peer_rwnd_)));
  const std::uint32_t send_limit = snd_una_ + wnd;
  const std::uint32_t data_limit = app_limit_seq();
  while (seq_lt(snd_nxt_, send_limit) && seq_lt(snd_nxt_, data_limit)) {
    const std::uint32_t len = std::min({params_.mss, data_limit - snd_nxt_,
                                        send_limit - snd_nxt_});
    if (len == 0) break;
    net::TcpFlags f;
    f.ack = true;
    send_segment(snd_nxt_, len, f, false);
    if (!rtt_probe_) rtt_probe_ = {{snd_nxt_ + len, sim_.now()}};
    snd_nxt_ += len;
    arm_rto();
  }
}

void TcpConnection::retransmit_front() {
  if (snd_una_ == snd_nxt_) return;
  const std::uint32_t data_limit = app_limit_seq();
  const std::uint32_t len =
      std::min({params_.mss, snd_nxt_ - snd_una_,
                seq_lt(snd_una_, data_limit) ? data_limit - snd_una_ : 0u});
  if (len == 0) return;
  net::TcpFlags f;
  f.ack = true;
  trace_event(obs::EventKind::kTcpRetransmit, static_cast<double>(snd_una_ - iss_),
              static_cast<double>(len));
  send_segment(snd_una_, len, f, true);
  // Karn: never time a retransmitted segment.
  rtt_probe_.reset();
}

void TcpConnection::arm_rto() {
  cancel_rto();
  rto_timer_ = sim_.after(rto_, [this] {
    rto_timer_ = sim::kInvalidEvent;
    on_rto();
  }, "tcp.rto");
}

void TcpConnection::cancel_rto() {
  sim_.cancel(rto_timer_);
  rto_timer_ = sim::kInvalidEvent;
}

void TcpConnection::on_rto() {
  ++counters_.rto_fires;
  if (state_ == State::kSynSent || state_ == State::kSynRcvd) {
    if (++syn_retries_ > params_.syn_retry_limit) {
      become_closed();
      return;
    }
    rto_ = std::min(rto_ * 2, params_.max_rto);
    net::TcpFlags f;
    f.syn = true;
    f.ack = (state_ == State::kSynRcvd);
    send_segment(iss_, 0, f, true);
    arm_rto();
    return;
  }
  if (snd_una_ == snd_nxt_) return;  // nothing outstanding

  trace_event(obs::EventKind::kTcpRto, rto_.to_sec() * 1e3,
              static_cast<double>(flight_size()));
  // Loss response: collapse to one segment and go back to snd_una.
  ssthresh_ = std::max(flight_size() / 2, 2 * params_.mss);
  cwnd_ = params_.mss;
  trace_cwnd();
  dupacks_ = 0;
  in_recovery_ = false;
  snd_nxt_ = snd_una_;
  rto_ = std::min(rto_ * 2, params_.max_rto);
  rtt_probe_.reset();
  retransmit_front();
  arm_rto();
}

void TcpConnection::update_rtt(sim::Time sample) {
  if (!srtt_) {
    srtt_ = sample;
    rttvar_ = sim::Time::ns(sample.count_ns() / 2);
  } else {
    const auto err_ns = std::abs(srtt_->count_ns() - sample.count_ns());
    rttvar_ = sim::Time::ns((3 * rttvar_.count_ns() + err_ns) / 4);
    srtt_ = sim::Time::ns((7 * srtt_->count_ns() + sample.count_ns()) / 8);
  }
  const sim::Time candidate = *srtt_ + 4 * rttvar_;
  rto_ = std::clamp(candidate, params_.min_rto, params_.max_rto);
}

void TcpConnection::handle_ack(const net::TcpHeader& h, std::uint32_t payload_len) {
  peer_rwnd_ = h.window;
  const std::uint32_t ack = h.ack;

  if (seq_lt(snd_una_, ack) && seq_le(ack, snd_nxt_)) {
    // New data acknowledged.
    if (rtt_probe_ && seq_le(rtt_probe_->first, ack)) {
      update_rtt(sim_.now() - rtt_probe_->second);
      rtt_probe_.reset();
    }
    const std::uint32_t newly = ack - snd_una_;
    snd_una_ = ack;
    // Fully-acked segments no longer need retransmit->journey linkage.
    seg_journeys_.erase(seg_journeys_.begin(), seg_journeys_.upper_bound(snd_una_));

    if (in_recovery_) {
      if (seq_le(recover_, ack)) {
        // Full recovery: deflate.
        in_recovery_ = false;
        cwnd_ = ssthresh_;
        dupacks_ = 0;
      } else {
        // NewReno partial ACK: the next hole is lost too.
        retransmit_front();
        cwnd_ = std::max(cwnd_ - newly + params_.mss, static_cast<double>(params_.mss));
      }
    } else {
      dupacks_ = 0;
      if (cwnd_ < ssthresh_) {
        cwnd_ += params_.mss;  // slow start
      } else {
        cwnd_ += static_cast<double>(params_.mss) * params_.mss / cwnd_;  // AIMD
      }
    }
    trace_cwnd();

    if (snd_una_ == snd_nxt_) {
      cancel_rto();
      rto_ = std::clamp(srtt_ ? *srtt_ + 4 * rttvar_ : params_.initial_rto, params_.min_rto,
                        params_.max_rto);
    } else {
      arm_rto();
    }
    try_send();
    return;
  }

  if (ack == snd_una_ && seq_lt(snd_una_, snd_nxt_) && payload_len == 0) {
    // Duplicate ACK.
    ++counters_.dup_acks_rx;
    ++dupacks_;
    if (!in_recovery_ && dupacks_ == params_.dupack_threshold) {
      ssthresh_ = std::max(flight_size() / 2, 2 * params_.mss);
      recover_ = snd_nxt_;
      in_recovery_ = true;
      ++counters_.fast_retransmits;
      trace_event(obs::EventKind::kTcpFastRetransmit, static_cast<double>(snd_una_ - iss_),
                  static_cast<double>(flight_size()));
      retransmit_front();
      cwnd_ = static_cast<double>(ssthresh_) +
              static_cast<double>(params_.dupack_threshold) * params_.mss;
      trace_cwnd();
      arm_rto();
    } else if (in_recovery_) {
      cwnd_ += params_.mss;  // window inflation
      trace_cwnd();
      try_send();
    }
  }
}

// ---------------------------------------------------------------- receiving

void TcpConnection::deliver(std::uint32_t bytes) {
  delivered_total_ += bytes;
  if (on_delivered_) on_delivered_(bytes);
}

void TcpConnection::schedule_ack() {
  ++pending_ack_segments_;
  if (!params_.delayed_ack || pending_ack_segments_ >= 2) {
    send_ack_now();
    return;
  }
  if (delack_timer_ == sim::kInvalidEvent) {
    delack_timer_ = sim_.after(params_.delack_timeout, [this] {
      delack_timer_ = sim::kInvalidEvent;
      send_ack_now();
    }, "tcp.delack");
  }
}

void TcpConnection::send_ack_now() {
  net::TcpFlags f;
  f.ack = true;
  send_segment(snd_nxt_, 0, f, false);
}

void TcpConnection::handle_data(std::uint32_t seq, std::uint32_t len) {
  if (seq == rcv_nxt_) {
    rcv_nxt_ += len;
    deliver(len);
    journey_delivered(rx_journey_);
  } else if (seq_lt(rcv_nxt_, seq)) {
    // Out of order: stash (journey included) and dup-ACK.
    auto [it, inserted] = ooo_.emplace(seq, OooSeg{len, rx_journey_});
    if (!inserted) it->second.len = std::max(it->second.len, len);
    send_ack_now();
    return;
  } else if (seq_lt(rcv_nxt_, seq + len)) {
    // Partial overlap with already-received data.
    const std::uint32_t fresh = seq + len - rcv_nxt_;
    rcv_nxt_ += fresh;
    deliver(fresh);
    journey_delivered(rx_journey_);
  } else {
    // Entirely old: re-ACK immediately (the peer retransmitted).
    send_ack_now();
    return;
  }
  // Absorb any now-contiguous out-of-order segments.
  for (auto it = ooo_.begin(); it != ooo_.end();) {
    if (seq_lt(rcv_nxt_, it->first)) break;
    if (seq_lt(rcv_nxt_, it->first + it->second.len)) {
      const std::uint32_t fresh = it->first + it->second.len - rcv_nxt_;
      rcv_nxt_ += fresh;
      deliver(fresh);
      journey_delivered(it->second.journey);
    }
    it = ooo_.erase(it);
  }
  // When data past a hole is still out of order, ACK immediately; otherwise
  // use the delayed-ACK policy.
  if (!ooo_.empty()) {
    send_ack_now();
  } else {
    schedule_ack();
  }
}

void TcpConnection::accept_syn(const net::TcpHeader& syn) {
  irs_ = syn.seq;
  rcv_nxt_ = syn.seq + 1;
  peer_rwnd_ = syn.window;
  iss_ = 5000;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  state_ = State::kSynRcvd;
  net::TcpFlags f;
  f.syn = true;
  f.ack = true;
  send_segment(iss_, 0, f, false);
  arm_rto();
}

void TcpConnection::on_segment(const net::TcpHeader& h, std::uint32_t payload_len) {
  ++counters_.segments_rx;

  switch (state_) {
    case State::kClosed:
      return;
    case State::kSynSent:
      if (h.flags.syn && h.flags.ack && h.ack == iss_ + 1) {
        irs_ = h.seq;
        rcv_nxt_ = h.seq + 1;
        snd_una_ = h.ack;
        peer_rwnd_ = h.window;
        cancel_rto();
        rto_ = params_.initial_rto;
        syn_retries_ = 0;
        send_ack_now();
        enter_established();
      }
      return;
    case State::kSynRcvd:
      if (h.flags.ack && h.ack == iss_ + 1) {
        snd_una_ = h.ack;
        peer_rwnd_ = h.window;
        cancel_rto();
        rto_ = params_.initial_rto;
        syn_retries_ = 0;
        enter_established();
        // Fall through to normal processing of any piggybacked data.
        if (payload_len > 0) handle_data(h.seq, payload_len);
      } else if (h.flags.syn && !h.flags.ack) {
        // Duplicate SYN: re-send the SYN-ACK.
        net::TcpFlags f;
        f.syn = true;
        f.ack = true;
        send_segment(iss_, 0, f, true);
      }
      return;
    default:
      break;
  }

  // Established.
  if (h.flags.syn) return;  // stray SYN
  if (h.flags.ack) handle_ack(h, payload_len);
  if (payload_len > 0) handle_data(h.seq, payload_len);
}

// -------------------------------------------------------------------- stack

TcpStack::TcpStack(net::Node& node, TcpParams default_params)
    : node_(node), default_params_(default_params) {
  node_.register_protocol(net::kProtoTcp, [this](net::PacketPtr p, const net::Ipv4Header& ip) {
    on_ip(std::move(p), ip);
  });
}

std::uint16_t TcpStack::next_ephemeral_port() {
  return next_port_++;
}

TcpConnection& TcpStack::connect(net::Ipv4Address dst, std::uint16_t dst_port,
                                 std::optional<TcpParams> params) {
  auto conn = std::make_unique<TcpConnection>(*this, next_ephemeral_port(), dst, dst_port,
                                              params.value_or(default_params_));
  TcpConnection& ref = *conn;
  flows_[FlowKey{ref.local_port(), dst.value(), dst_port}] = &ref;
  connections_.push_back(std::move(conn));
  ref.connect();
  return ref;
}

void TcpStack::listen(std::uint16_t port, AcceptHandler handler) {
  listeners_[port] = std::move(handler);
}

TcpCounters TcpStack::aggregate_counters() const {
  TcpCounters total;
  for (const auto& conn : connections_) {
    const TcpCounters& c = conn->counters();
    total.segments_tx += c.segments_tx;
    total.segments_rx += c.segments_rx;
    total.data_segments_tx += c.data_segments_tx;
    total.retransmits += c.retransmits;
    total.rto_fires += c.rto_fires;
    total.fast_retransmits += c.fast_retransmits;
    total.dup_acks_rx += c.dup_acks_rx;
    total.acks_tx += c.acks_tx;
  }
  return total;
}

bool TcpStack::transmit(const TcpConnection& c, const net::TcpHeader& h,
                        std::uint32_t payload_len) {
  auto packet = net::Packet::make(payload_len);
  packet->push(h);
  packet->created_at = simulator().now();
  packet->journey = c.pending_tx_journey();
  return node_.send_ip(std::move(packet), c.remote_ip(), net::kProtoTcp);
}

void TcpStack::on_ip(net::PacketPtr packet, const net::Ipv4Header& ip) {
  const auto copy = packet->clone();
  copy->pop<net::Ipv4Header>();
  const net::TcpHeader* h = copy->top<net::TcpHeader>();
  if (h == nullptr) return;

  const FlowKey key{h->dst_port, ip.src.value(), h->src_port};
  if (const auto it = flows_.find(key); it != flows_.end()) {
    it->second->set_rx_journey(packet->journey);
    it->second->on_segment(*h, copy->payload_bytes());
    return;
  }

  // New flow: a listener may accept a SYN.
  if (h->flags.syn && !h->flags.ack) {
    if (const auto lit = listeners_.find(h->dst_port); lit != listeners_.end()) {
      auto conn = std::make_unique<TcpConnection>(*this, h->dst_port, ip.src, h->src_port,
                                                  default_params_);
      TcpConnection& ref = *conn;
      flows_[key] = &ref;
      connections_.push_back(std::move(conn));
      if (lit->second) lit->second(ref);
      ref.accept_syn(*h);
    }
  }
}

}  // namespace adhoc::transport
