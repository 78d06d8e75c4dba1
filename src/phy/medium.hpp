#pragma once
// The shared wireless medium.
//
// Tracks attached radios and, for every transmission, computes the
// per-receiver received power (through the propagation model, so it can
// be time-varying and asymmetric) and schedules signal start/end events
// at each receiver after the propagation delay. The medium itself has no
// protocol knowledge: a transmission is a burst of energy with an opaque
// payload; all decode decisions live in Radio.
//
// Delivery is spatially culled: radios are kept in a uniform-grid index
// (spatial::UniformGrid) keyed off the maximum carrier-sense range — the
// distance at which the strongest attached transmitter can still deliver
// energy that matters (raise CCA or perturb SINR), derived through
// PropagationModel::distance_for_loss with an aggregation allowance for
// sub-threshold signals summing, plus the model's stochastic margin when
// the channel fades. Radios beyond that cutoff receive nothing and cost
// nothing: per-transmission work is O(neighbors), not O(N). Neighbor
// queries return radios sorted by id — the same order the legacy
// all-pairs loop used (radios attach in id order) — so event sequences
// are bit-identical to the unculled medium whenever nothing is actually
// out of range (all paper-scale scenarios). `MediumConfig::spatial_index
// = false` restores the all-pairs loop, which the differential tests use
// as an oracle.
//
// The emitter interface is generalized beyond radios: any point source
// can inject undecodable energy with begin_interference (the faults
// subsystem's jammers / LOS-crossing bursts), which raises carrier sense
// and corrupts receptions exactly like a too-weak 802.11 frame would.
// Interference bursts carry their own power, so their delivery radius is
// derived per burst. Directed links can also be administratively blocked
// (blackout faults).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "phy/propagation.hpp"
#include "phy/rates.hpp"
#include "phy/timing.hpp"
#include "sim/simulator.hpp"
#include "spatial/uniform_grid.hpp"

namespace adhoc::phy {

class Radio;

/// What the MAC hands to the PHY for one transmission.
struct TxDescriptor {
  Rate rate = Rate::kR1;
  std::uint32_t psdu_bits = 0;
  Preamble preamble = Preamble::kLong;
  /// Opaque upper-layer frame; the PHY never inspects it.
  std::shared_ptr<const void> payload;
};

/// Unique id per transmission, used to correlate start/end at receivers.
using SignalId = std::uint64_t;

struct MediumConfig {
  /// Deliver through the uniform-grid index (false: legacy all-pairs
  /// fan-out — the oracle for differential tests, and a micro-topology
  /// escape hatch).
  bool spatial_index = true;
};

class Medium {
 public:
  Medium(sim::Simulator& simulator, const PropagationModel& propagation, MediumConfig config = {});

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Register a radio. The radio must outlive the medium's use of it.
  /// Radio ids must be unique (constant-time check).
  void attach(Radio& radio);

  /// Called by a Radio that begins transmitting: fan the signal out to
  /// every attached radio within the carrier-sense cutoff. `duration` is
  /// the full frame airtime.
  void begin_transmission(const Radio& tx, const TxDescriptor& desc, sim::Time duration);

  /// Non-802.11 energy burst from a point source at `pos`: fans out to
  /// every radio in range as a noise signal (raises CCA, degrades SINR)
  /// that can never be locked onto. `emitter_id` keys the directed
  /// shadowing processes toward each receiver and must not collide with
  /// radio ids. The delivery radius is derived from `power_dbm`.
  void begin_interference(std::uint32_t emitter_id, const Position& pos, double power_dbm,
                          sim::Time duration);

  /// Administratively block (or unblock) the directed link tx -> rx:
  /// transmissions from `tx_id` are not fanned out to `rx_id` while
  /// blocked — a total per-link outage (fault blackout windows).
  void set_link_blocked(std::uint32_t tx_id, std::uint32_t rx_id, bool blocked);
  [[nodiscard]] bool link_blocked(std::uint32_t tx_id, std::uint32_t rx_id) const {
    return blocked_links_.contains(LinkId{tx_id, rx_id});
  }

  // --- Radio state-change notifications -------------------------------
  /// The radio teleported (set_position): refresh its index cell now.
  void notify_moved(const Radio& radio);
  /// The radio's mobility model changed: its speed bound (and hence its
  /// staleness deadline) must be re-derived.
  void notify_mobility_changed(const Radio& radio);

  [[nodiscard]] const PropagationModel& propagation() const { return propagation_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] std::size_t radio_count() const { return radios_.size(); }
  [[nodiscard]] const MediumConfig& config() const { return cfg_; }

  /// Total transmissions fanned out (for benchmarks/tests).
  [[nodiscard]] std::uint64_t transmissions() const { return transmissions_; }
  /// Total interference bursts fanned out.
  [[nodiscard]] std::uint64_t interference_bursts() const { return interference_bursts_; }
  /// Receiver deliveries suppressed by a blocked link.
  [[nodiscard]] std::uint64_t deliveries_blocked() const { return deliveries_blocked_; }
  /// Signal/noise deliveries actually scheduled at receivers.
  [[nodiscard]] std::uint64_t deliveries_scheduled() const { return deliveries_scheduled_; }
  /// Deliveries skipped because the receiver sat beyond the energy
  /// cutoff — the all-pairs work the spatial index saved.
  [[nodiscard]] std::uint64_t deliveries_culled() const { return deliveries_culled_; }

  /// Carrier-sense range cutoff (m) of the last index build; 0 before
  /// the first delivery (the index is built lazily).
  [[nodiscard]] double cs_cutoff_m() const { return cs_cutoff_m_; }
  /// Weakest rx power (dBm) still delivered: min over radios of
  /// min(cs_threshold, noise_floor) minus the aggregation margin.
  [[nodiscard]] double relevance_floor_dbm() const { return floor_dbm_; }
  /// Peak entries in one index cell (0 with the index disabled/unbuilt).
  [[nodiscard]] std::size_t cell_high_water() const {
    return grid_ ? grid_->cell_high_water() : 0;
  }
  [[nodiscard]] std::size_t cells_in_use() const { return grid_ ? grid_->cells_in_use() : 0; }

  // --- Test hook -------------------------------------------------------
  /// One scheduled delivery, observed synchronously at fan-out time.
  struct DeliveryRecord {
    std::uint32_t source = 0;  ///< transmitting radio or emitter id
    std::uint32_t rx = 0;
    double rx_dbm = 0.0;
    sim::Time start;
    sim::Time end;
    bool noise = false;
  };
  /// Invoked for every delivery begin_transmission / begin_interference
  /// schedules (differential tests; empty function disables).
  void set_delivery_probe(std::function<void(const DeliveryRecord&)> probe) {
    delivery_probe_ = std::move(probe);
  }

 private:
  /// (Re)build the index when absent or stale (new radio, hotter
  /// transmitter, larger stochastic margin).
  void ensure_index();
  /// Fill targets_ with the radios a source at `pos` emitting
  /// `power_dbm` can reach, sorted by id; `self` (the transmitter) is
  /// excluded. Returns the number of radios culled.
  std::uint64_t collect_targets(const Position& pos, double power_dbm, const Radio* self);

  sim::Simulator& sim_;
  const PropagationModel& propagation_;
  MediumConfig cfg_;
  std::vector<Radio*> radios_;  // sorted by id (attach keeps order)
  std::unordered_map<std::uint32_t, Radio*> by_id_;
  std::unordered_set<LinkId, LinkIdHash> blocked_links_;
  SignalId next_signal_id_ = 1;

  std::optional<spatial::UniformGrid> grid_;
  double cs_cutoff_m_ = 0.0;
  double floor_dbm_ = 0.0;
  std::vector<std::uint32_t> query_ids_;  // query scratch (no per-TX alloc)
  std::vector<Radio*> targets_;

  std::function<void(const DeliveryRecord&)> delivery_probe_;

  std::uint64_t transmissions_ = 0;
  std::uint64_t interference_bursts_ = 0;
  std::uint64_t deliveries_blocked_ = 0;
  std::uint64_t deliveries_scheduled_ = 0;
  std::uint64_t deliveries_culled_ = 0;
};

}  // namespace adhoc::phy
