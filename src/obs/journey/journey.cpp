#include "obs/journey/journey.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace adhoc::obs {

namespace {
// IP protocol numbers (mirrored from net/ to keep obs below net in the
// layer order). TCP journeys survive MAC-level loss — the transport
// retransmits — so only UDP journeys terminate on pre-air or retry
// drops.
constexpr std::uint8_t kProtoTcp = 6;

std::string proto_name(std::uint8_t protocol) {
  if (protocol == kProtoTcp) return "tcp";
  if (protocol == 17) return "udp";
  return std::to_string(protocol);
}
}  // namespace

std::string_view journey_terminal_name(JourneyTerminal t) {
  switch (t) {
    case JourneyTerminal::kInFlight: return "in_flight";
    case JourneyTerminal::kDelivered: return "delivered";
    case JourneyTerminal::kDroppedRetryLimit: return "dropped_retry_limit";
    case JourneyTerminal::kDroppedBuffer: return "dropped_buffer";
    case JourneyTerminal::kDroppedRadioOff: return "dropped_radio_off";
    case JourneyTerminal::kDroppedBlackout: return "dropped_blackout";
  }
  return "?";
}

JourneyRecorder::JourneyRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  // Like TraceSink, the ring grows lazily up to capacity.
}

JourneyRecorder::Active* JourneyRecorder::find(std::uint64_t id) {
  if (id == 0) return nullptr;
  const auto it = open_.find(id);
  return it == open_.end() ? nullptr : &it->second;
}

std::uint64_t JourneyRecorder::mint(std::uint32_t src, std::uint32_t dst, std::uint8_t protocol,
                                    std::uint32_t bytes, std::uint16_t flow_port, sim::Time now) {
  if ((candidates_++ % sample_every_) != 0) return 0;
  Active j;
  j.id = next_id_++;
  j.protocol = protocol;
  j.flow_port = flow_port;
  j.src = src;
  j.dst = dst;
  j.bytes = bytes;
  j.minted_at = now;
  j.last_transition = now;
  j.holder = src;
  ++ledger_.minted;
  const std::uint64_t id = j.id;
  open_.emplace(id, std::move(j));
  return id;
}

void JourneyRecorder::on_retransmit(std::uint64_t id, sim::Time now) {
  Active* j = find(id);
  if (j == nullptr || j->terminal != JourneyTerminal::kInFlight) return;
  ++j->retransmits;
  // The retransmitted copy restarts the send path at the source.
  j->last_transition = now;
  j->attempt_open = false;
  j->first_attempt_of_hop = true;
}

void JourneyRecorder::on_mac_enqueue(std::uint64_t id, std::uint32_t node, sim::Time now) {
  Active* j = find(id);
  if (j == nullptr) return;
  if (j->terminal == JourneyTerminal::kInFlight) {
    j->buffer += now - j->last_transition;
    j->last_transition = now;
  }
  j->holder = node;
  j->first_attempt_of_hop = true;
  j->attempt_open = false;
}

void JourneyRecorder::on_head_of_queue(std::uint64_t id, sim::Time now) {
  Active* j = find(id);
  if (j == nullptr || j->terminal != JourneyTerminal::kInFlight) return;
  j->queue += now - j->last_transition;
  j->last_transition = now;
}

void JourneyRecorder::on_attempt_start(std::uint64_t id, sim::Time now) {
  Active* j = find(id);
  if (j == nullptr) return;
  if (j->terminal == JourneyTerminal::kInFlight) {
    if (j->first_attempt_of_hop) {
      j->contend += now - j->last_transition;
      j->first_attempt_of_hop = false;
    } else {
      j->retry += now - j->last_transition;
    }
    j->last_transition = now;
    ++j->attempts;
  }
  j->attempt_start = now;
  j->attempt_open = true;
}

void JourneyRecorder::close_attempt(Active& j, sim::Time now) {
  if (!j.attempt_open) return;
  if (j.terminal == JourneyTerminal::kInFlight) {
    j.airtime += now - j.attempt_start;
    j.last_transition = now;
  }
  j.attempt_open = false;
}

void JourneyRecorder::on_attempt_fail(std::uint64_t id, sim::Time now) {
  Active* j = find(id);
  if (j == nullptr) return;
  close_attempt(*j, now);
}

void JourneyRecorder::on_hop_success(std::uint64_t id, std::uint32_t node, sim::Time now) {
  Active* j = find(id);
  if (j == nullptr) return;
  const sim::Time hop_started = j->attempt_open ? j->attempt_start : now;
  close_attempt(*j, now);
  if (trace_ != nullptr) {
    trace_->span(hop_started, now - hop_started, Layer::kMac, node, EventKind::kJourneyHop,
                 static_cast<double>(j->id), static_cast<double>(j->hops));
  }
  ++j->hops;
  // A journey already delivered at the receiver stays open only so the
  // sender's final ACK can close this hop's slice: retire it now.
  if (j->terminal != JourneyTerminal::kInFlight) {
    retire(*j);
    return;
  }
  j->last_transition = now;
}

void JourneyRecorder::on_pre_air_drop(std::uint64_t id, sim::Time now) {
  Active* j = find(id);
  if (j == nullptr || j->terminal != JourneyTerminal::kInFlight) return;
  if (j->protocol == kProtoTcp) return;  // the transport retransmits
  // A crashed carrier overflows its own queue: those drops belong to
  // the radio, not to ordinary saturation.
  const JourneyTerminal term = probe_radio_off(j->holder) ? JourneyTerminal::kDroppedRadioOff
                                                          : JourneyTerminal::kDroppedBuffer;
  settle(*j, term, now, /*trace_drop=*/true);
  retire(*j);
}

void JourneyRecorder::on_retry_drop(std::uint64_t id, std::uint32_t node, int peer,
                                    sim::Time now) {
  Active* j = find(id);
  if (j == nullptr) return;
  close_attempt(*j, now);
  if (j->terminal != JourneyTerminal::kInFlight) {
    // Delivered, but the final ACK never made it back: the hop closes
    // by exhaustion instead of success.
    retire(*j);
    return;
  }
  if (j->protocol == kProtoTcp) return;  // the transport retransmits
  JourneyTerminal term = JourneyTerminal::kDroppedRetryLimit;
  const bool peer_known = peer >= 0;
  const auto peer_id = peer_known ? static_cast<std::uint32_t>(peer) : 0u;
  if (probe_radio_off(node) || (peer_known && probe_radio_off(peer_id))) {
    term = JourneyTerminal::kDroppedRadioOff;
  } else if (peer_known && probe_link_blocked(node, peer_id)) {
    term = JourneyTerminal::kDroppedBlackout;
  }
  settle(*j, term, now, /*trace_drop=*/true);
  retire(*j);
}

void JourneyRecorder::on_delivered(std::uint64_t id, std::uint32_t node, sim::Time now) {
  Active* j = find(id);
  if (j == nullptr || j->terminal != JourneyTerminal::kInFlight) return;
  if (trace_ != nullptr) {
    trace_->span(now, sim::Time::zero(), Layer::kTransport, node, EventKind::kJourneyDeliver,
                 static_cast<double>(j->id), static_cast<double>(j->hops + 1));
  }
  // Fold the final attempt's partial airtime (the data frame is still
  // on the air from the sender's point of view) so phases sum to e2e.
  if (j->attempt_open) j->airtime += now - j->attempt_start;
  fold_flow(*j, now);
  // Settle the ledger now, but keep the journey open until the sender's
  // ACK (or retry exhaustion) closes the final hop's slice — delivery
  // at the receiver happens before the sender learns the outcome.
  settle(*j, JourneyTerminal::kDelivered, now, /*trace_drop=*/false);
}

void JourneyRecorder::fold_flow(const Active& j, sim::Time now) {
  if (metrics_ == nullptr) return;
  const std::uint64_t key = (static_cast<std::uint64_t>(j.protocol) << 42) |
                            (static_cast<std::uint64_t>(j.src) << 21) |
                            static_cast<std::uint64_t>(j.dst);
  FlowDists& d = flows_[key];
  if (d.e2e == nullptr) {
    const std::string component = "journey." + proto_name(j.protocol) + "." +
                                  std::to_string(j.src) + "to" + std::to_string(j.dst);
    d.e2e = &metrics_->distribution(component, "e2e_us");
    d.buffer = &metrics_->distribution(component, "buffer_us");
    d.queue = &metrics_->distribution(component, "queue_us");
    d.contend = &metrics_->distribution(component, "contend_us");
    d.airtime = &metrics_->distribution(component, "airtime_us");
    d.retry = &metrics_->distribution(component, "retry_us");
  }
  d.e2e->add((now - j.minted_at).to_us());
  d.buffer->add(j.buffer.to_us());
  d.queue->add(j.queue.to_us());
  d.contend->add(j.contend.to_us());
  d.airtime->add(j.airtime.to_us());
  d.retry->add(j.retry.to_us());
}

void JourneyRecorder::bump(JourneyTerminal t) {
  switch (t) {
    case JourneyTerminal::kInFlight: ++ledger_.in_flight; break;
    case JourneyTerminal::kDelivered: ++ledger_.delivered; break;
    case JourneyTerminal::kDroppedRetryLimit: ++ledger_.dropped_retry_limit; break;
    case JourneyTerminal::kDroppedBuffer: ++ledger_.dropped_buffer; break;
    case JourneyTerminal::kDroppedRadioOff: ++ledger_.dropped_radio_off; break;
    case JourneyTerminal::kDroppedBlackout: ++ledger_.dropped_blackout; break;
  }
}

void JourneyRecorder::settle(Active& j, JourneyTerminal t, sim::Time now, bool trace_drop) {
  j.terminal = t;
  j.terminal_at = now;
  bump(t);
  if (trace_drop && trace_ != nullptr) {
    trace_->instant(now, Layer::kMac, j.holder, EventKind::kJourneyDrop,
                    static_cast<double>(j.id), static_cast<double>(t));
  }
}

void JourneyRecorder::retire(Active& j) {
  push_record(j);
  open_.erase(j.id);  // invalidates j
}

void JourneyRecorder::push_record(const JourneyRecord& r) {
  ++completed_;
  if (!full_) {
    ring_.push_back(r);
    if (ring_.size() == capacity_) {
      full_ = true;
      head_ = 0;
    }
    return;
  }
  ring_[head_] = r;
  head_ = (head_ + 1) % capacity_;
}

void JourneyRecorder::finalize(sim::Time now) {
  if (finalized_) return;
  finalized_ = true;
  // Close in-flight journeys in mint order. The probes run now, while
  // the simulation objects behind them are still alive, so a radio that
  // died mid-flight attributes its stranded journeys to the fault.
  while (!open_.empty()) {
    Active& j = open_.begin()->second;
    close_attempt(j, now);
    if (j.terminal == JourneyTerminal::kInFlight) {
      JourneyTerminal term = JourneyTerminal::kInFlight;
      if (probe_radio_off(j.holder) || probe_radio_off(j.dst)) {
        term = JourneyTerminal::kDroppedRadioOff;
      } else if (probe_link_blocked(j.holder, j.dst)) {
        term = JourneyTerminal::kDroppedBlackout;
      }
      settle(j, term, now, /*trace_drop=*/false);
    }
    // Journeys already settled (delivered, awaiting the final ACK) keep
    // their bucket; only the detail record still needs flushing.
    retire(j);
  }
}

void JourneyRecorder::fold_into(MetricsRegistry& registry) const {
  registry.set_gauge("journey", "minted", static_cast<double>(ledger_.minted));
  registry.set_gauge("journey", "delivered", static_cast<double>(ledger_.delivered));
  registry.set_gauge("journey", "dropped_retry_limit",
                     static_cast<double>(ledger_.dropped_retry_limit));
  registry.set_gauge("journey", "dropped_buffer", static_cast<double>(ledger_.dropped_buffer));
  registry.set_gauge("journey", "dropped_radio_off",
                     static_cast<double>(ledger_.dropped_radio_off));
  registry.set_gauge("journey", "dropped_blackout",
                     static_cast<double>(ledger_.dropped_blackout));
  registry.set_gauge("journey", "in_flight", static_cast<double>(ledger_.in_flight));
  registry.set_gauge("journey", "balanced", ledger_.balanced() ? 1.0 : 0.0);
  registry.set_gauge("journey", "retained", static_cast<double>(retained()));
  registry.set_gauge("journey", "capacity", static_cast<double>(capacity_));
  registry.set_gauge("journey", "sample_every", static_cast<double>(sample_every_));
  // Ring overwrites, named so service-level aggregation can pick the
  // flattened "journey.journey_dropped" key out of run metrics.
  registry.set_gauge("journey", "journey_dropped", static_cast<double>(dropped()));
}

std::vector<JourneyRecord> JourneyRecorder::records() const {
  std::vector<JourneyRecord> out;
  out.reserve(retained());
  if (full_) {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  } else {
    out = ring_;
  }
  std::sort(out.begin(), out.end(),
            [](const JourneyRecord& x, const JourneyRecord& y) { return x.id < y.id; });
  return out;
}

void JourneyRecorder::write_csv(std::ostream& out) const {
  out << "journey_id,proto,flow_port,src,dst,bytes,minted_ns,terminal,terminal_ns,"
         "hops,attempts,retransmits,buffer_ns,queue_ns,contend_ns,airtime_ns,retry_ns,"
         "other_ns\n";
  for (const JourneyRecord& r : records()) {
    const std::int64_t elapsed = (r.terminal_at - r.minted_at).count_ns();
    const std::int64_t accounted = r.buffer.count_ns() + r.queue.count_ns() +
                                   r.contend.count_ns() + r.airtime.count_ns() +
                                   r.retry.count_ns();
    out << r.id << ',' << proto_name(r.protocol) << ',' << r.flow_port << ',' << r.src << ','
        << r.dst << ',' << r.bytes << ',' << r.minted_at.count_ns() << ','
        << journey_terminal_name(r.terminal) << ',' << r.terminal_at.count_ns() << ',' << r.hops
        << ',' << r.attempts << ',' << r.retransmits << ',' << r.buffer.count_ns() << ','
        << r.queue.count_ns() << ',' << r.contend.count_ns() << ',' << r.airtime.count_ns()
        << ',' << r.retry.count_ns() << ',' << (elapsed - accounted) << '\n';
  }
}

void JourneyRecorder::write_csv(const std::string& path) const {
  std::ofstream out{path, std::ios::trunc};
  if (!out) throw std::runtime_error("JourneyRecorder: cannot open " + path);
  write_csv(out);
  if (!out) throw std::runtime_error("JourneyRecorder: write failed for " + path);
}

}  // namespace adhoc::obs
