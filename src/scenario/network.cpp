#include "scenario/network.hpp"

#include <stdexcept>
#include <string>

namespace adhoc::scenario {

namespace {

// Probe tables: name -> accessor, so every per-station counter struct is
// re-exposed through the metrics registry without double bookkeeping
// (probes are evaluated lazily, at snapshot time only).

struct MacField {
  const char* name;
  std::uint64_t mac::MacCounters::*field;
};
constexpr MacField kMacFields[] = {
    {"msdu_enqueued", &mac::MacCounters::msdu_enqueued},
    {"msdu_queue_drops", &mac::MacCounters::msdu_queue_drops},
    {"msdu_delivered_up", &mac::MacCounters::msdu_delivered_up},
    {"rx_duplicates", &mac::MacCounters::rx_duplicates},
    {"tx_data", &mac::MacCounters::tx_data},
    {"tx_rts", &mac::MacCounters::tx_rts},
    {"tx_cts", &mac::MacCounters::tx_cts},
    {"tx_ack", &mac::MacCounters::tx_ack},
    {"tx_success", &mac::MacCounters::tx_success},
    {"tx_retry_drops", &mac::MacCounters::tx_retry_drops},
    {"ack_timeouts", &mac::MacCounters::ack_timeouts},
    {"cts_timeouts", &mac::MacCounters::cts_timeouts},
    {"acks_suppressed_busy", &mac::MacCounters::acks_suppressed_busy},
    {"cts_withheld_nav", &mac::MacCounters::cts_withheld_nav},
    {"responses_suppressed", &mac::MacCounters::responses_suppressed},
    {"rx_errors", &mac::MacCounters::rx_errors},
    {"nav_updates", &mac::MacCounters::nav_updates},
    {"backoff_draws", &mac::MacCounters::backoff_draws},
    {"backoff_slots_total", &mac::MacCounters::backoff_slots_total},
    {"queue_high_water", &mac::MacCounters::queue_high_water},
};

struct PhyField {
  const char* name;
  std::uint64_t (phy::Radio::*getter)() const;
};
constexpr PhyField kPhyFields[] = {
    {"frames_decoded", &phy::Radio::frames_decoded},
    {"frames_errored", &phy::Radio::frames_errored},
    {"frames_missed_while_tx", &phy::Radio::frames_missed_while_tx},
    {"frames_missed_while_locked", &phy::Radio::frames_missed_while_locked},
    {"frames_below_plcp_threshold", &phy::Radio::frames_below_plcp_threshold},
    {"frames_failed_plcp_sinr", &phy::Radio::frames_failed_plcp_sinr},
    {"frames_captured_over_lock", &phy::Radio::frames_captured_over_lock},
};

struct NetField {
  const char* name;
  std::uint64_t (net::Node::*getter)() const;
};
constexpr NetField kNetFields[] = {
    {"ip_tx", &net::Node::ip_tx},
    {"ip_rx_delivered", &net::Node::ip_rx_delivered},
    {"ip_forwarded", &net::Node::ip_forwarded},
    {"ip_drops", &net::Node::ip_drops},
};

struct TcpField {
  const char* name;
  std::uint64_t transport::TcpCounters::*field;
};
constexpr TcpField kTcpFields[] = {
    {"segments_tx", &transport::TcpCounters::segments_tx},
    {"segments_rx", &transport::TcpCounters::segments_rx},
    {"data_segments_tx", &transport::TcpCounters::data_segments_tx},
    {"retransmits", &transport::TcpCounters::retransmits},
    {"rto_fires", &transport::TcpCounters::rto_fires},
    {"fast_retransmits", &transport::TcpCounters::fast_retransmits},
    {"dup_acks_rx", &transport::TcpCounters::dup_acks_rx},
    {"acks_tx", &transport::TcpCounters::acks_tx},
};

}  // namespace

Network::Network(sim::Simulator& simulator, NetworkConfig config)
    : sim_(simulator),
      cfg_(std::move(config)),
      base_model_(cfg_.model),
      shadowed_(cfg_.shadowing
                    ? std::optional<phy::ShadowedPropagation>(std::in_place, base_model_,
                                                              *cfg_.shadowing,
                                                              simulator.rng_stream("shadowing"))
                    : std::nullopt),
      active_model_(shadowed_ ? static_cast<const phy::PropagationModel*>(&*shadowed_)
                              : &base_model_),
      phy_params_(cfg_.phy_override
                      ? *cfg_.phy_override
                      : phy::paper_calibrated_params(base_model_, cfg_.tx_power_dbm)),
      medium_(simulator, *active_model_) {}

net::Node& Network::add_node(phy::Position pos, std::optional<mac::MacParams> mac_override) {
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  auto node = std::make_unique<net::Node>(sim_, medium_, id, pos, phy_params_,
                                          mac_override.value_or(cfg_.mac));
  node->set_resolver([this](net::Ipv4Address ip) -> std::optional<mac::MacAddress> {
    for (const auto& n : nodes_) {
      if (n->ip() == ip) return n->mac_address();
    }
    return std::nullopt;
  });
  nodes_.push_back(std::move(node));
  udp_.push_back(nullptr);
  tcp_.push_back(nullptr);
  if (obs_ != nullptr) wire_node_observer(nodes_.size() - 1);
  return *nodes_.back();
}

void Network::attach_observer(obs::RunObserver& observer) {
  obs_ = &observer;
  if (observer.profiler() != nullptr) sim_.scheduler().set_probe(observer.profiler());
  if (obs::JourneyRecorder* journeys = observer.journeys(); journeys != nullptr) {
    // Fault-plan-aware drop attribution: consulted when a tracked packet
    // dies, so a retry-limit drop against a crashed peer lands in
    // dropped_radio_off and one across a blackout link in
    // dropped_blackout rather than the generic retry bucket.
    journeys->set_radio_off_probe([this](std::uint32_t id) {
      return id < nodes_.size() && !nodes_[id]->radio().enabled();
    });
    journeys->set_link_blocked_probe([this](std::uint32_t a, std::uint32_t b) {
      return medium_.link_blocked(a, b) || medium_.link_blocked(b, a);
    });
  }
  if (obs::MetricsRegistry* reg = observer.registry(); reg != nullptr) {
    // Shared-medium probes: fan-out volume and how much of it the
    // spatial index culled (the O(neighbors) evidence at large N).
    const phy::Medium* med = &medium_;
    reg->add_probe("phy.medium", "transmissions",
                   [med] { return static_cast<double>(med->transmissions()); });
    reg->add_probe("phy.medium", "interference_bursts",
                   [med] { return static_cast<double>(med->interference_bursts()); });
    reg->add_probe("phy.medium", "deliveries_scheduled",
                   [med] { return static_cast<double>(med->deliveries_scheduled()); });
    reg->add_probe("phy.medium", "deliveries_culled",
                   [med] { return static_cast<double>(med->deliveries_culled()); });
    reg->add_probe("phy.medium", "deliveries_blocked",
                   [med] { return static_cast<double>(med->deliveries_blocked()); });
    reg->add_probe("phy.medium", "cell_high_water",
                   [med] { return static_cast<double>(med->cell_high_water()); });
    reg->add_probe("phy.medium", "cells_in_use",
                   [med] { return static_cast<double>(med->cells_in_use()); });
    reg->add_probe("phy.medium", "cs_cutoff_m", [med] { return med->cs_cutoff_m(); });
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) wire_node_observer(i);
  for (std::size_t i = 0; i < tcp_.size(); ++i) {
    if (tcp_[i]) wire_tcp_observer(i);
  }
}

void Network::wire_node_observer(std::size_t i) {
  net::Node& n = *nodes_.at(i);
  if (obs::TraceSink* sink = obs_->trace_sink(); sink != nullptr) {
    n.radio().set_trace_sink(sink);
    n.dcf().set_trace_sink(sink);
  }
  if (obs::JourneyRecorder* journeys = obs_->journeys(); journeys != nullptr) {
    n.set_journey_recorder(journeys);
    n.dcf().set_journey_recorder(journeys, [](mac::MacAddress dst) -> int {
      return dst.is_group() ? -1 : static_cast<int>(dst.station_index());
    });
  }
  obs::MetricsRegistry* reg = obs_->registry();
  if (reg == nullptr) return;
  const std::string suffix = "sta" + std::to_string(i);
  const mac::Dcf* dcf = &n.dcf();
  for (const auto& f : kMacFields) {
    reg->add_probe("mac." + suffix, f.name,
                   [dcf, field = f.field] { return static_cast<double>(dcf->counters().*field); });
  }
  const phy::Radio* radio = &n.radio();
  for (const auto& f : kPhyFields) {
    reg->add_probe("phy." + suffix, f.name,
                   [radio, getter = f.getter] { return static_cast<double>((radio->*getter)()); });
  }
  reg->add_probe("phy." + suffix, "energy_j", [radio] { return radio->energy_consumed_j(); });
  const net::Node* node = &n;
  for (const auto& f : kNetFields) {
    reg->add_probe("net." + suffix, f.name,
                   [node, getter = f.getter] { return static_cast<double>((node->*getter)()); });
  }
}

void Network::wire_tcp_observer(std::size_t i) {
  transport::TcpStack& stack = *tcp_.at(i);
  if (obs::TraceSink* sink = obs_->trace_sink(); sink != nullptr) {
    stack.set_trace_sink(sink, nodes_.at(i)->id());
  }
  obs::MetricsRegistry* reg = obs_->registry();
  if (reg == nullptr) return;
  const std::string component = "tcp.sta" + std::to_string(i);
  const transport::TcpStack* s = &stack;
  for (const auto& f : kTcpFields) {
    reg->add_probe(component, f.name, [s, field = f.field] {
      return static_cast<double>(s->aggregate_counters().*field);
    });
  }
}

faults::FaultInjector& Network::install_faults(const faults::FaultPlan& plan) {
  if (fault_injector_ != nullptr) {
    throw std::logic_error("Network: install_faults called twice");
  }
  faults::FaultTargets targets;
  targets.sim = &sim_;
  targets.medium = &medium_;
  for (const auto& n : nodes_) targets.radios.push_back(&n->radio());
  targets.shadowing = shadowed_propagation();
  if (obs_ != nullptr) {
    targets.trace = obs_->trace_sink();
    targets.metrics = obs_->registry();
  }
  fault_injector_ = std::make_unique<faults::FaultInjector>(std::move(targets), plan);
  fault_injector_->arm();
  return *fault_injector_;
}

transport::UdpStack& Network::udp(std::size_t i) {
  if (!udp_.at(i)) udp_[i] = std::make_unique<transport::UdpStack>(*nodes_.at(i));
  return *udp_[i];
}

transport::TcpStack& Network::tcp(std::size_t i) {
  if (!tcp_.at(i)) {
    tcp_[i] = std::make_unique<transport::TcpStack>(*nodes_.at(i));
    if (obs_ != nullptr) wire_tcp_observer(i);
  }
  return *tcp_[i];
}

}  // namespace adhoc::scenario
