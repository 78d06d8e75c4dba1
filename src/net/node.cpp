#include "net/node.hpp"


namespace adhoc::net {

Node::Node(sim::Simulator& simulator, phy::Medium& medium, std::uint32_t id,
           phy::Position position, const phy::PhyParams& phy_params,
           const mac::MacParams& mac_params)
    : sim_(simulator),
      id_(id),
      ip_(address_for(id)),
      radio_(std::make_unique<phy::Radio>(simulator, medium, id, phy_params, position)),
      mac_(std::make_unique<mac::Dcf>(simulator, *radio_,
                                      mac::MacAddress::from_station(static_cast<std::uint16_t>(id)),
                                      mac_params)) {
  mac_->set_rx_handler([this](std::shared_ptr<const void> sdu, std::uint32_t bytes,
                              mac::MacAddress src, mac::MacAddress dst) {
    on_mac_rx(std::move(sdu), bytes, src, dst);
  });
}

void Node::register_protocol(std::uint8_t protocol, ProtocolHandler handler) {
  protocols_[protocol] = std::move(handler);
}

bool Node::send_ip(std::shared_ptr<Packet> packet, Ipv4Address dst, std::uint8_t protocol) {
  Ipv4Header ip;
  ip.src = ip_;
  ip.dst = dst;
  ip.protocol = protocol;
  ip.identification = next_ip_id_++;
  ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kBytes + packet->size_bytes());
  packet->push(ip);
  ++ip_tx_;
  return transmit_routed(std::move(packet), ip);
}

bool Node::transmit_routed(std::shared_ptr<const Packet> packet, const Ipv4Header& ip) {
  const std::uint64_t journey = packet->journey;
  mac::MacAddress next_mac;
  if (ip.dst.is_broadcast()) {
    next_mac = mac::MacAddress::broadcast();
  } else {
    const Ipv4Address hop = routes_.next_hop(ip.dst);
    if (!resolver_) {
      ++ip_drops_;
      journey_drop(journey);
      return false;
    }
    const auto resolved = resolver_(hop);
    if (!resolved) {
      ++ip_drops_;
      journey_drop(journey);
      return false;
    }
    next_mac = *resolved;
  }
  const std::uint32_t bytes = packet->size_bytes();
  if (!mac_->enqueue(next_mac, std::move(packet), bytes, journey)) {
    journey_drop(journey);
    return false;
  }
  return true;
}

void Node::journey_drop(std::uint64_t journey) {
  if (journeys_ != nullptr && journey != 0) journeys_->on_pre_air_drop(journey, sim_.now());
}

void Node::on_mac_rx(std::shared_ptr<const void> sdu, std::uint32_t /*bytes*/,
                     mac::MacAddress /*src*/, mac::MacAddress /*dst*/) {
  const auto packet = std::static_pointer_cast<const Packet>(std::move(sdu));
  const Ipv4Header* ip = packet->top<Ipv4Header>();
  if (ip == nullptr) return;  // not an IP packet

  if (ip->dst == ip_ || ip->dst.is_broadcast()) {
    const auto it = protocols_.find(ip->protocol);
    if (it == protocols_.end()) {
      ++ip_drops_;
      journey_drop(packet->journey);
      return;
    }
    ++ip_rx_delivered_;
    it->second(packet, *ip);
    return;
  }

  if (!forwarding_) {
    ++ip_drops_;
    journey_drop(packet->journey);
    return;
  }
  // Forward: decrement TTL on a copy and re-route.
  if (ip->ttl <= 1) {
    ++ip_drops_;
    journey_drop(packet->journey);
    return;
  }
  auto copy = packet->clone();
  Ipv4Header fwd = copy->pop<Ipv4Header>();
  fwd.ttl = static_cast<std::uint8_t>(fwd.ttl - 1);
  copy->push(fwd);
  ++ip_forwarded_;
  transmit_routed(std::move(copy), fwd);
}

}  // namespace adhoc::net
