#pragma once
// Simulator facade: scheduler + master RNG + run control.
//
// A Simulator owns the event queue and the root of the random-stream tree.
// Components hold a reference to it and interact through schedule/cancel
// and named RNG substreams.

#include <cstdint>
#include <utility>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace adhoc::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : master_rng_(seed), seed_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return sched_.now(); }
  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const Scheduler& scheduler() const { return sched_; }

  template <class F>
  EventId at(Time t, F&& fn, const char* label = nullptr) {
    return sched_.schedule_at(t, std::forward<F>(fn), label);
  }
  template <class F>
  EventId after(Time delay, F&& fn, const char* label = nullptr) {
    return sched_.schedule_in(delay, std::forward<F>(fn), label);
  }
  bool cancel(EventId id) { return sched_.cancel(id); }

  void run_until(Time horizon) { sched_.run_until(horizon); }
  void run() { sched_.run(); }

  /// The master seed this simulation was constructed with.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Named independent random stream (see Rng docs for the policy).
  [[nodiscard]] Rng rng_stream(std::string_view label) const {
    return master_rng_.substream(label);
  }
  [[nodiscard]] Rng rng_stream(std::uint64_t id) const { return master_rng_.substream(id); }

 private:
  Scheduler sched_;
  Rng master_rng_;
  std::uint64_t seed_;
};

}  // namespace adhoc::sim
