#include "phy/mobility.hpp"

#include <algorithm>
#include <numbers>
#include <stdexcept>

namespace adhoc::phy {

LinearMobility::LinearMobility(Position start, double vx_mps, double vy_mps, sim::Time t0,
                               sim::Time stop_at)
    : start_(start), vx_(vx_mps), vy_(vy_mps), t0_(t0), stop_at_(stop_at) {}

Position LinearMobility::position_at(sim::Time t) const {
  if (t < t0_) return start_;
  const sim::Time effective = std::min(t, stop_at_);
  const double dt = (effective - t0_).to_sec();
  return Position{start_.x + vx_ * dt, start_.y + vy_ * dt};
}

RandomWaypointMobility::RandomWaypointMobility(Position start, Params params, sim::Rng rng)
    : params_(params), rng_(rng) {
  if (params_.width_m <= 0 || params_.height_m <= 0 ||
      params_.min_speed_mps <= 0 || params_.max_speed_mps < params_.min_speed_mps) {
    throw std::invalid_argument("RandomWaypointMobility: bad params");
  }
  legs_.push_back(Leg{sim::Time::zero(), sim::Time::zero(), start, start});
}

void RandomWaypointMobility::extend_to(sim::Time t) const {
  while (legs_.back().arrive + params_.pause < t) {
    const Leg& last = legs_.back();
    Leg next;
    next.from = last.to;
    next.to = Position{rng_.uniform(0.0, params_.width_m), rng_.uniform(0.0, params_.height_m)};
    next.depart = last.arrive + params_.pause;
    const double dist = distance(next.from, next.to);
    const double speed = rng_.uniform(params_.min_speed_mps, params_.max_speed_mps);
    next.arrive = next.depart + sim::Time::from_sec(dist / speed);
    legs_.push_back(next);
  }
}

Position RandomWaypointMobility::position_at(sim::Time t) const {
  extend_to(t);
  // Find the leg containing t (walk back from the end; queries are
  // usually near the frontier).
  for (auto it = legs_.rbegin(); it != legs_.rend(); ++it) {
    if (t >= it->depart) {
      if (t >= it->arrive) return it->to;  // pausing at the waypoint
      const double span = (it->arrive - it->depart).to_sec();
      if (span <= 0.0) return it->to;
      const double f = (t - it->depart).to_sec() / span;
      return Position{it->from.x + (it->to.x - it->from.x) * f,
                      it->from.y + (it->to.y - it->from.y) * f};
    }
  }
  return legs_.front().from;
}

GaussMarkovMobility::GaussMarkovMobility(Position start, Params params, sim::Rng rng)
    : params_(params), rng_(rng) {
  if (params_.width_m <= 0 || params_.height_m <= 0 || params_.mean_speed_mps < 0 ||
      params_.max_speed_mps < params_.mean_speed_mps || params_.max_speed_mps <= 0 ||
      params_.alpha < 0 || params_.alpha >= 1 || params_.sigma_speed_mps < 0 ||
      params_.sigma_direction_rad < 0 || params_.update <= sim::Time::zero() ||
      params_.edge_margin_m < 0) {
    throw std::invalid_argument("GaussMarkovMobility: bad params");
  }
  Step first;
  first.at = sim::Time::zero();
  first.pos = start;
  first.speed_mps = std::min(params_.mean_speed_mps, params_.max_speed_mps);
  first.direction_rad = rng_.uniform(0.0, 2.0 * std::numbers::pi);
  steps_.push_back(first);
}

void GaussMarkovMobility::extend_to(sim::Time t) const {
  const double dt = params_.update.to_sec();
  const double noise_gain = std::sqrt(1.0 - params_.alpha * params_.alpha);
  while (steps_.back().at < t) {
    const Step& cur = steps_.back();
    Step next;
    next.at = cur.at + params_.update;
    // Advance along the current heading first; the OU update below
    // yields the heading for the *next* interval.
    next.pos = Position{cur.pos.x + cur.speed_mps * std::cos(cur.direction_rad) * dt,
                        cur.pos.y + cur.speed_mps * std::sin(cur.direction_rad) * dt};
    // Reflect off the field boundary (and fold the heading) so the
    // walker never leaves [0, width] x [0, height].
    double dir = cur.direction_rad;
    if (next.pos.x < 0.0) { next.pos.x = -next.pos.x; dir = std::numbers::pi - dir; }
    if (next.pos.x > params_.width_m) {
      next.pos.x = 2.0 * params_.width_m - next.pos.x;
      dir = std::numbers::pi - dir;
    }
    if (next.pos.y < 0.0) { next.pos.y = -next.pos.y; dir = -dir; }
    if (next.pos.y > params_.height_m) {
      next.pos.y = 2.0 * params_.height_m - next.pos.y;
      dir = -dir;
    }
    // Near an edge, pull the mean heading toward the field center so the
    // process does not hug the boundary (standard Gauss-Markov edge
    // treatment); elsewhere the mean heading is the current one.
    double mean_dir = dir;
    const bool near_edge = next.pos.x < params_.edge_margin_m ||
                           next.pos.x > params_.width_m - params_.edge_margin_m ||
                           next.pos.y < params_.edge_margin_m ||
                           next.pos.y > params_.height_m - params_.edge_margin_m;
    if (near_edge) {
      mean_dir = std::atan2(params_.height_m / 2.0 - next.pos.y,
                            params_.width_m / 2.0 - next.pos.x);
      // Blend from the nearest representative of dir so the (1 - alpha)
      // pull acts on the short way around the circle.
      while (dir - mean_dir > std::numbers::pi) dir -= 2.0 * std::numbers::pi;
      while (mean_dir - dir > std::numbers::pi) dir += 2.0 * std::numbers::pi;
    }
    next.speed_mps = params_.alpha * cur.speed_mps +
                     (1.0 - params_.alpha) * params_.mean_speed_mps +
                     noise_gain * params_.sigma_speed_mps * rng_.normal();
    next.speed_mps = std::clamp(next.speed_mps, 0.0, params_.max_speed_mps);
    next.direction_rad = params_.alpha * dir + (1.0 - params_.alpha) * mean_dir +
                         noise_gain * params_.sigma_direction_rad * rng_.normal();
    steps_.push_back(next);
  }
}

Position GaussMarkovMobility::position_at(sim::Time t) const {
  if (t <= sim::Time::zero()) return steps_.front().pos;
  extend_to(t);
  // The step containing t (walk back from the frontier, like the
  // random-waypoint model: queries cluster near the end).
  for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
    if (t >= it->at) {
      const double dt = (t - it->at).to_sec();
      Position p{it->pos.x + it->speed_mps * std::cos(it->direction_rad) * dt,
                 it->pos.y + it->speed_mps * std::sin(it->direction_rad) * dt};
      // Mid-step reflection, consistent with the step generator.
      if (p.x < 0.0) p.x = -p.x;
      if (p.x > params_.width_m) p.x = 2.0 * params_.width_m - p.x;
      if (p.y < 0.0) p.y = -p.y;
      if (p.y > params_.height_m) p.y = 2.0 * params_.height_m - p.y;
      return p;
    }
  }
  return steps_.front().pos;
}

}  // namespace adhoc::phy
