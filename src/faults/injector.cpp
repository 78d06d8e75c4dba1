#include "faults/injector.hpp"

#include <stdexcept>


namespace adhoc::faults {

FaultInjector::FaultInjector(FaultTargets targets, FaultPlan plan)
    : targets_(std::move(targets)), plan_(std::move(plan)) {
  if (targets_.sim == nullptr || targets_.medium == nullptr) {
    throw std::invalid_argument("FaultInjector: simulator and medium are required");
  }
  plan_.validate(targets_.radios.size());
  for (const FaultEvent& e : plan_.events()) {
    if (e.kind == FaultKind::kDayOffset && targets_.shadowing == nullptr) {
      throw std::logic_error(
          "FaultInjector: dayoffset event needs a shadowed channel "
          "(the scenario runs a deterministic propagation model)");
    }
  }
  if (targets_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *targets_.metrics;
    reg.add_probe("faults", "events_scheduled",
                  [this] { return static_cast<double>(acct_.events_scheduled); });
    reg.add_probe("faults", "interference_bursts",
                  [this] { return static_cast<double>(accounting().interference_bursts); });
    reg.add_probe("faults", "interference_airtime_us",
                  [this] { return accounting().interference_airtime.to_us(); });
    reg.add_probe("faults", "node_off", [this] { return static_cast<double>(acct_.node_off); });
    reg.add_probe("faults", "node_on", [this] { return static_cast<double>(acct_.node_on); });
    reg.add_probe("faults", "tx_power_steps",
                  [this] { return static_cast<double>(acct_.tx_power_steps); });
    reg.add_probe("faults", "day_offset_steps",
                  [this] { return static_cast<double>(acct_.day_offset_steps); });
    reg.add_probe("faults", "blackouts", [this] { return static_cast<double>(acct_.blackouts); });
  }
}

void FaultInjector::trace_instant(obs::EventKind kind, std::uint32_t track, double a, double b) {
  if (targets_.trace != nullptr) {
    targets_.trace->instant(targets_.sim->now(), obs::Layer::kFault, track, kind, a, b);
  }
}

void FaultInjector::arm() {
  if (armed_) throw std::logic_error("FaultInjector: arm() called twice");
  armed_ = true;
  sim::Simulator& sim = *targets_.sim;
  for (const FaultEvent& e : plan_.events()) {
    ++acct_.events_scheduled;
    switch (e.kind) {
      case FaultKind::kInterference: {
        InterferenceSource::Config c;
        c.position = e.position;
        c.power_dbm = e.value;
        c.window_start = e.at;
        c.window_end = e.until;
        c.period = e.period;
        c.duty = e.duty;
        c.jitter = e.jitter;
        const auto ordinal = static_cast<std::uint32_t>(emitters_.size());
        emitters_.push_back(std::make_unique<InterferenceSource>(
            sim, *targets_.medium, kEmitterIdBase + ordinal, ordinal, c,
            sim.rng_stream("faults").substream(ordinal), targets_.trace));
        emitters_.back()->arm();
        break;
      }
      case FaultKind::kNodeOff:
        sim.at(e.at, [this, node = e.node] {
          targets_.radios[node]->set_enabled(false);
          ++acct_.node_off;
          trace_instant(obs::EventKind::kFaultNodeOff, node, static_cast<double>(node), 0.0);
        }, "fault.node_off");
        break;
      case FaultKind::kNodeOn:
        sim.at(e.at, [this, node = e.node] {
          targets_.radios[node]->set_enabled(true);
          ++acct_.node_on;
          trace_instant(obs::EventKind::kFaultNodeOn, node, static_cast<double>(node), 0.0);
        }, "fault.node_on");
        break;
      case FaultKind::kTxPower:
        sim.at(e.at, [this, node = e.node, dbm = e.value] {
          const double prev = targets_.radios[node]->params().tx_power_dbm;
          targets_.radios[node]->set_tx_power_dbm(dbm);
          ++acct_.tx_power_steps;
          trace_instant(obs::EventKind::kFaultTxPower, node, dbm, prev);
        }, "fault.tx_power");
        break;
      case FaultKind::kDayOffset:
        sim.at(e.at, [this, db = e.value] {
          const double prev = targets_.shadowing->params().day_offset_db;
          targets_.shadowing->set_day_offset_db(db);
          ++acct_.day_offset_steps;
          trace_instant(obs::EventKind::kFaultDayOffset, 0, db, prev);
        }, "fault.day_offset");
        break;
      case FaultKind::kLinkBlackout: {
        const auto a = e.node;
        const auto b = e.peer;
        const bool bidi = e.bidirectional;
        sim.at(e.at, [this, a, b, bidi] {
          targets_.medium->set_link_blocked(a, b, true);
          if (bidi) targets_.medium->set_link_blocked(b, a, true);
          ++acct_.blackouts;
          trace_instant(obs::EventKind::kFaultBlackoutStart, a, static_cast<double>(a),
                        static_cast<double>(b));
        }, "fault.blackout_on");
        sim.at(e.until, [this, a, b, bidi] {
          targets_.medium->set_link_blocked(a, b, false);
          if (bidi) targets_.medium->set_link_blocked(b, a, false);
          trace_instant(obs::EventKind::kFaultBlackoutEnd, a, static_cast<double>(a),
                        static_cast<double>(b));
        }, "fault.blackout_off");
        break;
      }
    }
  }
}

FaultAccounting FaultInjector::accounting() const {
  FaultAccounting out = acct_;
  for (const auto& emitter : emitters_) {
    out.interference_bursts += emitter->stats().bursts;
    out.interference_airtime += emitter->stats().airtime;
  }
  return out;
}

}  // namespace adhoc::faults
