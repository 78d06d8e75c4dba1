#pragma once
// Station mobility.
//
// The paper's testbed is static, but its motivation (and its warning
// that short real-world ranges mean frequent route recalculation for
// mobile stations) is mobility. A MobilityModel maps simulation time to
// a position; a Radio with a model attached reports a moving position to
// the medium, so every transmission is evaluated at the station's
// current location.

#include <cmath>
#include <limits>
#include <vector>

#include "phy/units.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace adhoc::phy {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  [[nodiscard]] virtual Position position_at(sim::Time t) const = 0;

  /// Upper bound on the station's ground speed (m/s), used by the
  /// medium's spatial index to decide how long a cached position stays
  /// trustworthy. The default — unbounded — is always safe: it forces a
  /// position re-read on every index refresh. Models that know their
  /// speed limit should override for cheap lazy refresh.
  [[nodiscard]] virtual double max_speed_mps() const {
    return std::numeric_limits<double>::infinity();
  }
};

/// Constant-velocity motion from a start position, optionally stopping.
class LinearMobility final : public MobilityModel {
 public:
  /// Moves from `start` with velocity (vx, vy) m/s beginning at `t0`;
  /// if `stop_at` is finite, the station halts there.
  LinearMobility(Position start, double vx_mps, double vy_mps,
                 sim::Time t0 = sim::Time::zero(), sim::Time stop_at = sim::Time::infinity());

  Position position_at(sim::Time t) const override;

  [[nodiscard]] double max_speed_mps() const override {
    return std::sqrt(vx_ * vx_ + vy_ * vy_);
  }

 private:
  Position start_;
  double vx_;
  double vy_;
  sim::Time t0_;
  sim::Time stop_at_;
};

/// Random waypoint model (the canonical MANET mobility model): pick a
/// uniform point in the field, walk there at a uniform-random speed,
/// pause, repeat. The trajectory is generated lazily but
/// deterministically from the seed, so queries at any time are
/// reproducible.
class RandomWaypointMobility final : public MobilityModel {
 public:
  struct Params {
    double width_m = 300.0;
    double height_m = 300.0;
    double min_speed_mps = 0.5;
    double max_speed_mps = 2.0;   // pedestrian, as the paper's use cases
    sim::Time pause = sim::Time::sec(2);
  };

  RandomWaypointMobility(Position start, Params params, sim::Rng rng);

  Position position_at(sim::Time t) const override;

  [[nodiscard]] double max_speed_mps() const override { return params_.max_speed_mps; }

 private:
  struct Leg {
    sim::Time depart;   // start of motion (after the pause)
    sim::Time arrive;   // reaches `to`
    Position from;
    Position to;
  };

  /// Extend the trajectory until it covers time t.
  void extend_to(sim::Time t) const;

  Params params_;
  mutable sim::Rng rng_;
  mutable std::vector<Leg> legs_;
};

/// Gauss-Markov mobility (Camp/Boleng/Davies survey, §2.5): speed and
/// direction are Ornstein-Uhlenbeck processes updated on a fixed tick,
///
///   s' = alpha s + (1 - alpha) mean_s + sqrt(1 - alpha^2) sigma_s N(0,1)
///   d' = alpha d + (1 - alpha) mean_d + sqrt(1 - alpha^2) sigma_d N(0,1)
///
/// so motion is temporally correlated (no random-waypoint zig-zag) with
/// tunable memory. Near a field edge the mean direction is steered back
/// toward the interior, the canonical edge treatment. Speed is clamped
/// to [0, max_speed_mps], which doubles as the hard bound the spatial
/// index relies on. The trajectory is extended lazily but
/// deterministically from the seed, like RandomWaypointMobility.
class GaussMarkovMobility final : public MobilityModel {
 public:
  struct Params {
    double width_m = 300.0;
    double height_m = 300.0;
    double mean_speed_mps = 1.5;
    double max_speed_mps = 3.0;        ///< hard clamp; must be >= mean
    double alpha = 0.75;               ///< memory in [0, 1)
    double sigma_speed_mps = 0.5;
    double sigma_direction_rad = 0.6;
    sim::Time update = sim::Time::sec(1);  ///< OU tick; must be > 0
    double edge_margin_m = 20.0;       ///< steer-back distance from edges
  };

  GaussMarkovMobility(Position start, Params params, sim::Rng rng);

  Position position_at(sim::Time t) const override;

  [[nodiscard]] double max_speed_mps() const override { return params_.max_speed_mps; }

 private:
  struct Step {
    sim::Time at;
    Position pos;
    double speed_mps = 0.0;
    double direction_rad = 0.0;
  };

  /// Extend the step sequence until it covers time t.
  void extend_to(sim::Time t) const;

  Params params_;
  mutable sim::Rng rng_;
  mutable std::vector<Step> steps_;
};

}  // namespace adhoc::phy
