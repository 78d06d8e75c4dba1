#include "net/aodv.hpp"


namespace adhoc::net {

Aodv::Aodv(Node& node, AodvParams params)
    : node_(node),
      params_(params),
      rng_(node.simulator().rng_stream("aodv").substream(node.id())) {
  node_.set_forwarding(true);
  if (params_.match_broadcast_to_data_rate) {
    node_.dcf().set_broadcast_rate(node_.dcf().params().data_rate);
  }
  node_.register_protocol(kProtoAodv, [this](PacketPtr p, const Ipv4Header& ip) {
    on_control(std::move(p), ip);
  });
  node_.dcf().set_tx_status_handler(
      [this](const mac::TxStatus& s) { on_tx_status(s); });
}

// ------------------------------------------------------------------- sending

bool Aodv::send(std::shared_ptr<Packet> packet, Ipv4Address dst, std::uint8_t protocol) {
  if (has_route(dst)) {
    // Deliberately NOT refreshing the lifetime on use: if the path broke
    // downstream and the RERR was lost, a use-refreshed route would
    // black-hole traffic forever; letting it age out bounds the outage
    // to one lifetime before rediscovery.
    return node_.send_ip(std::move(packet), dst, protocol);
  }
  PendingDiscovery& pending = pending_[dst];
  if (pending.buffered.size() >= params_.buffer_limit) {
    journey_drop(packet->journey);
    return false;
  }
  pending.buffered.emplace_back(std::move(packet), protocol);
  ++counters_.packets_buffered;
  if (pending.timer == sim::kInvalidEvent) start_discovery(dst);
  return true;
}

bool Aodv::has_route(Ipv4Address dst) const {
  const auto it = routes_.find(dst);
  return it != routes_.end() && it->second.valid &&
         node_.simulator().now() < it->second.expires;
}

std::optional<Ipv4Address> Aodv::next_hop(Ipv4Address dst) const {
  if (!has_route(dst)) return std::nullopt;
  return routes_.at(dst).next_hop;
}

std::optional<std::uint8_t> Aodv::hop_count(Ipv4Address dst) const {
  if (!has_route(dst)) return std::nullopt;
  return routes_.at(dst).hops;
}

// ----------------------------------------------------------------- discovery

void Aodv::start_discovery(Ipv4Address dst) {
  PendingDiscovery& pending = pending_[dst];
  pending.attempts = 1;
  send_rreq(dst);
  pending.timer = node_.simulator().after(params_.discovery_timeout,
                                          [this, dst] { on_discovery_timeout(dst); });
}

void Aodv::send_rreq(Ipv4Address dst) {
  ++own_seq_;
  AodvHeader h;
  h.type = AodvType::kRreq;
  h.hop_count = 0;
  h.rreq_id = next_rreq_id_++;
  h.originator = node_.ip();
  h.originator_seq = own_seq_;
  h.target = dst;
  const auto it = routes_.find(dst);
  h.target_seq = it != routes_.end() ? it->second.seq : 0;
  seen_floods_.insert(FloodKey{h.originator.value(), h.rreq_id});
  ++counters_.rreq_originated;
  transmit_control(h, Ipv4Address::broadcast());
}

void Aodv::on_discovery_timeout(Ipv4Address dst) {
  const auto it = pending_.find(dst);
  if (it == pending_.end()) return;
  PendingDiscovery& pending = it->second;
  pending.timer = sim::kInvalidEvent;
  if (has_route(dst)) {
    flush_buffered(dst);
    return;
  }
  if (pending.attempts <= params_.discovery_retries) {
    ++pending.attempts;
    send_rreq(dst);
    pending.timer = node_.simulator().after(params_.discovery_timeout,
                                            [this, dst] { on_discovery_timeout(dst); });
    return;
  }
  counters_.packets_dropped_no_route += pending.buffered.size();
  for (const auto& [packet, protocol] : pending.buffered) journey_drop(packet->journey);
  pending_.erase(it);
}

void Aodv::journey_drop(std::uint64_t journey) {
  if (journey == 0) return;
  if (obs::JourneyRecorder* journeys = node_.journeys(); journeys != nullptr) {
    journeys->on_pre_air_drop(journey, node_.simulator().now());
  }
}

void Aodv::flush_buffered(Ipv4Address dst) {
  const auto it = pending_.find(dst);
  if (it == pending_.end()) return;
  auto buffered = std::move(it->second.buffered);
  node_.simulator().cancel(it->second.timer);
  pending_.erase(it);
  for (auto& [packet, protocol] : buffered) {
    ++counters_.packets_flushed;
    node_.send_ip(std::move(packet), dst, protocol);
  }
}

// -------------------------------------------------------------------- routes

void Aodv::install_route(Ipv4Address dst, Ipv4Address via, std::uint8_t hops,
                         std::uint32_t seq) {
  if (dst == node_.ip()) return;
  Route& r = routes_[dst];
  const bool fresher = !r.valid || seq > r.seq || (seq == r.seq && hops < r.hops);
  if (!fresher) {
    // Refresh lifetime of an equally good route.
    if (r.valid && r.next_hop == via) {
      r.expires = node_.simulator().now() + params_.active_route_lifetime;
    }
    return;
  }
  r.next_hop = via;
  r.hops = hops;
  r.seq = seq;
  r.valid = true;
  r.expires = node_.simulator().now() + params_.active_route_lifetime;
  node_.routes().add_route(dst, via);
  ++counters_.routes_installed;
}

void Aodv::invalidate_routes_via(Ipv4Address via, std::vector<Ipv4Address>& broken_out) {
  for (auto& [dst, route] : routes_) {
    if (route.valid && route.next_hop == via) {
      route.valid = false;
      node_.routes().remove_route(dst);
      ++counters_.routes_invalidated;
      broken_out.push_back(dst);
    }
  }
}

// ------------------------------------------------------------------- control

void Aodv::transmit_control(const AodvHeader& h, Ipv4Address ip_dst) {
  auto packet = Packet::make(0);
  packet->push(h);
  node_.send_ip(std::move(packet), ip_dst, kProtoAodv);
}

void Aodv::on_control(PacketPtr packet, const Ipv4Header& ip) {
  const auto copy = packet->clone();
  copy->pop<Ipv4Header>();
  const AodvHeader* h = copy->top<AodvHeader>();
  if (h == nullptr) return;
  if (ip.src == node_.ip()) return;  // our own broadcast echoed back

  switch (h->type) {
    case AodvType::kRreq: handle_rreq(*h, ip.src); break;
    case AodvType::kRrep: handle_rrep(*h, ip.src, ip.dst); break;
    case AodvType::kRerr: handle_rerr(*h, ip.src); break;
  }
}

void Aodv::handle_rreq(const AodvHeader& h, Ipv4Address prev_hop) {
  const FloodKey key{h.originator.value(), h.rreq_id};
  if (!seen_floods_.insert(key).second) {
    ++counters_.rreq_duplicates;
    return;
  }
  // Reverse route toward the originator (and to the previous hop itself).
  install_route(prev_hop, prev_hop, 1, 0);
  install_route(h.originator, prev_hop, static_cast<std::uint8_t>(h.hop_count + 1),
                h.originator_seq);

  if (h.target == node_.ip()) {
    own_seq_ = std::max(own_seq_, h.target_seq) + 1;
    AodvHeader reply;
    reply.type = AodvType::kRrep;
    reply.hop_count = 0;
    reply.originator = h.originator;
    reply.target = node_.ip();
    reply.target_seq = own_seq_;
    ++counters_.rrep_originated;
    transmit_control(reply, prev_hop);
    return;
  }

  // Intermediate node with a route at least as fresh as requested.
  const auto it = routes_.find(h.target);
  if (it != routes_.end() && it->second.valid && it->second.seq >= h.target_seq &&
      h.target_seq > 0) {
    AodvHeader reply;
    reply.type = AodvType::kRrep;
    reply.hop_count = it->second.hops;
    reply.originator = h.originator;
    reply.target = h.target;
    reply.target_seq = it->second.seq;
    ++counters_.rrep_originated;
    transmit_control(reply, prev_hop);
    return;
  }

  // Propagate the flood, jittered so neighbouring rebroadcasts do not
  // land in the same slot (broadcast-storm mitigation).
  AodvHeader fwd = h;
  fwd.hop_count = static_cast<std::uint8_t>(fwd.hop_count + 1);
  ++counters_.rreq_forwarded;
  const auto jitter_ns = params_.flood_jitter.count_ns() > 0
                             ? rng_.uniform_int(0, params_.flood_jitter.count_ns() - 1)
                             : 0;
  node_.simulator().after(sim::Time::ns(jitter_ns),
                          [this, fwd] { transmit_control(fwd, Ipv4Address::broadcast()); });
}

void Aodv::handle_rrep(const AodvHeader& h, Ipv4Address prev_hop, Ipv4Address /*ip_dst*/) {
  install_route(prev_hop, prev_hop, 1, 0);
  install_route(h.target, prev_hop, static_cast<std::uint8_t>(h.hop_count + 1), h.target_seq);

  if (h.originator == node_.ip()) {
    flush_buffered(h.target);
    return;
  }
  // Relay toward the originator along the reverse route.
  const auto it = routes_.find(h.originator);
  if (it == routes_.end() || !it->second.valid) return;
  AodvHeader fwd = h;
  fwd.hop_count = static_cast<std::uint8_t>(fwd.hop_count + 1);
  ++counters_.rrep_forwarded;
  transmit_control(fwd, it->second.next_hop);
}

void Aodv::handle_rerr(const AodvHeader& h, Ipv4Address prev_hop) {
  const auto it = routes_.find(h.target);
  if (it != routes_.end() && it->second.valid && it->second.next_hop == prev_hop) {
    it->second.valid = false;
    node_.routes().remove_route(h.target);
    ++counters_.routes_invalidated;
    // Propagate so upstream users of this route learn about the break.
    AodvHeader fwd = h;
    ++counters_.rerr_sent;
    transmit_control(fwd, Ipv4Address::broadcast());
  }
}

void Aodv::on_tx_status(const mac::TxStatus& status) {
  if (status.success || status.dst.is_group()) return;
  const Ipv4Address neighbor = Node::address_for(status.dst.station_index());
  std::vector<Ipv4Address> broken;
  invalidate_routes_via(neighbor, broken);
  for (const Ipv4Address dst : broken) {
    AodvHeader err;
    err.type = AodvType::kRerr;
    err.target = dst;
    err.target_seq = routes_[dst].seq + 1;
    ++counters_.rerr_sent;
    transmit_control(err, Ipv4Address::broadcast());
  }
}

}  // namespace adhoc::net
