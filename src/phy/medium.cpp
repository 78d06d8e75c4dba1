#include "phy/medium.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "phy/radio.hpp"

namespace adhoc::phy {

namespace {

/// Allowance (dB) below a radio's weakest energy floor at which a single
/// signal is still considered relevant: many sub-floor signals can sum
/// past CCA, so a lone signal this far under the floor is still
/// delivered. Larger = more conservative, less culling.
constexpr double kAggregationMarginDb = 10.0;
/// Mobile-position slack as a fraction of the carrier-sense cutoff. The
/// index widens queries by this slack and refreshes a mobile radio's
/// cached position only after it could have drifted that far.
constexpr double kSlackFrac = 0.25;

}  // namespace

Medium::Medium(sim::Simulator& simulator, const PropagationModel& propagation, MediumConfig config)
    : sim_(simulator), propagation_(propagation), cfg_(config) {}

void Medium::attach(Radio& radio) {
  if (!by_id_.emplace(radio.id(), &radio).second) {
    throw std::invalid_argument("Medium: duplicate radio id");
  }
  // Keep radios_ sorted by id: both delivery paths iterate it (directly
  // or via the index's sorted queries), so delivery order is by id no
  // matter the attach order.
  const auto at = std::lower_bound(radios_.begin(), radios_.end(), &radio,
                                   [](const Radio* a, const Radio* b) { return a->id() < b->id(); });
  radios_.insert(at, &radio);
  // The new radio may lower the relevance floor or raise the power
  // budget; rebuild the index lazily at the next delivery.
  grid_.reset();
}

void Medium::ensure_index() {
  if (grid_) return;
  double max_tx_dbm = -std::numeric_limits<double>::infinity();
  double floor_dbm = std::numeric_limits<double>::infinity();
  for (const Radio* r : radios_) {
    max_tx_dbm = std::max(max_tx_dbm, r->params().tx_power_dbm);
    floor_dbm =
        std::min(floor_dbm, std::min(r->params().cs_threshold_dbm, r->params().noise_floor_dbm));
  }
  floor_dbm_ = floor_dbm - kAggregationMarginDb;
  const double margin_db = propagation_.stochastic_margin_db();
  const double budget_db = max_tx_dbm - floor_dbm_ + margin_db;
  cs_cutoff_m_ = budget_db > 0.0 ? propagation_.distance_for_loss(budget_db) : 0.0;
  spatial::UniformGrid::Config gc;
  gc.slack_m = kSlackFrac * cs_cutoff_m_;
  gc.cell_m = std::max(cs_cutoff_m_ + gc.slack_m, 1.0);
  grid_.emplace(gc);
  const sim::Time now = sim_.now();
  for (Radio* r : radios_) {
    grid_->insert(r->id(), [r] { return r->position(); }, r->max_speed_bound(), now);
  }
}

std::uint64_t Medium::collect_targets(const Position& pos, double power_dbm, const Radio* self) {
  targets_.clear();
  const std::uint64_t others = radios_.size() - (self != nullptr ? 1 : 0);
  if (!cfg_.spatial_index || radios_.size() <= 1) {
    for (Radio* rx : radios_) {
      if (rx != self) targets_.push_back(rx);
    }
    return 0;
  }
  ensure_index();
  grid_->refresh(sim_.now());
  // Per-source delivery radius: the distance at which this source's
  // power fades to the relevance floor (stochastic margin included, so
  // a lucky fade cannot out-range the cull).
  const double budget_db = power_dbm - floor_dbm_ + propagation_.stochastic_margin_db();
  const double radius_m = budget_db > 0.0 ? propagation_.distance_for_loss(budget_db) : 0.0;
  grid_->query(pos, radius_m, query_ids_);
  for (const std::uint32_t id : query_ids_) {
    if (self != nullptr && id == self->id()) continue;
    targets_.push_back(by_id_.find(id)->second);
  }
  return others - targets_.size();
}

void Medium::begin_transmission(const Radio& tx, const TxDescriptor& desc, sim::Time duration) {
  ++transmissions_;
  const SignalId sid = next_signal_id_++;
  const sim::Time now = sim_.now();
  const Position tx_pos = tx.position();
  deliveries_culled_ += collect_targets(tx_pos, tx.params().tx_power_dbm, &tx);
  for (Radio* rx : targets_) {
    if (!blocked_links_.empty() && blocked_links_.contains(LinkId{tx.id(), rx->id()})) {
      ++deliveries_blocked_;
      continue;
    }
    const Position rx_pos = rx->position();
    const double dist_m = distance(tx_pos, rx_pos);
    const auto delay_ns = static_cast<std::int64_t>(dist_m / kSpeedOfLight * 1e9);
    const sim::Time delay = sim::Time::ns(std::max<std::int64_t>(delay_ns, 1));
    const LinkId link{tx.id(), rx->id()};
    const double rx_dbm =
        propagation_.rx_power_dbm(tx.params().tx_power_dbm, tx_pos, rx_pos, now, link);
    const sim::Time start_at = now + delay;
    const sim::Time end_at = start_at + duration;
    ++deliveries_scheduled_;
    if (delivery_probe_) {
      delivery_probe_(DeliveryRecord{tx.id(), rx->id(), rx_dbm, start_at, end_at, false});
    }
    sim_.at(start_at, [rx, sid, rx_dbm, desc] { rx->signal_start(sid, rx_dbm, desc); },
            "phy.signal_start");
    sim_.at(end_at, [rx, sid] { rx->signal_end(sid); }, "phy.signal_end");
  }
}

void Medium::begin_interference(std::uint32_t emitter_id, const Position& pos, double power_dbm,
                                sim::Time duration) {
  ++interference_bursts_;
  const SignalId sid = next_signal_id_++;
  const sim::Time now = sim_.now();
  deliveries_culled_ += collect_targets(pos, power_dbm, nullptr);
  for (Radio* rx : targets_) {
    const Position rx_pos = rx->position();
    const double dist_m = distance(pos, rx_pos);
    const auto delay_ns = static_cast<std::int64_t>(dist_m / kSpeedOfLight * 1e9);
    const sim::Time delay = sim::Time::ns(std::max<std::int64_t>(delay_ns, 1));
    const LinkId link{emitter_id, rx->id()};
    const double rx_dbm = propagation_.rx_power_dbm(power_dbm, pos, rx_pos, now, link);
    const sim::Time start_at = now + delay;
    const sim::Time end_at = start_at + duration;
    ++deliveries_scheduled_;
    if (delivery_probe_) {
      delivery_probe_(DeliveryRecord{emitter_id, rx->id(), rx_dbm, start_at, end_at, true});
    }
    sim_.at(start_at, [rx, sid, rx_dbm] { rx->noise_start(sid, rx_dbm); }, "phy.noise_start");
    sim_.at(end_at, [rx, sid] { rx->signal_end(sid); }, "phy.signal_end");
  }
}

void Medium::notify_moved(const Radio& radio) {
  if (grid_) grid_->touch(radio.id(), sim_.now());
}

void Medium::notify_mobility_changed(const Radio& radio) {
  if (grid_) grid_->set_max_speed(radio.id(), radio.max_speed_bound(), sim_.now());
}

void Medium::set_link_blocked(std::uint32_t tx_id, std::uint32_t rx_id, bool blocked) {
  if (blocked) {
    blocked_links_.insert(LinkId{tx_id, rx_id});
  } else {
    blocked_links_.erase(LinkId{tx_id, rx_id});
  }
}

}  // namespace adhoc::phy
