// Model-based scheduler test: drive the Scheduler with a long random
// sequence of schedule/cancel/run operations and check every execution,
// cancel result and counter against a trivially correct reference
// (sorted map) after each operation.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace adhoc::sim {
namespace {

TEST(SchedulerModel, RandomOpsMatchReference) {
  Scheduler sched;
  Rng rng{424242};

  // Reference: the pending events keyed by (time, op id). Op ids are
  // insertion-ordered, so key order is the required firing order.
  using Key = std::pair<std::int64_t, std::uint64_t>;
  std::map<Key, std::uint64_t> ref_pending;
  std::uint64_t ref_scheduled = 0;
  std::uint64_t ref_executed = 0;
  std::uint64_t ref_cancelled = 0;
  std::size_t ref_high_water = 0;
  // Every handle ever issued, so cancels also hit run and cancelled ones.
  std::vector<std::pair<EventId, Key>> handles;
  std::vector<std::uint64_t> fired;
  std::vector<std::uint64_t> expected;

  const auto fire_reference_until = [&](std::int64_t until_ns) {
    while (!ref_pending.empty() && ref_pending.begin()->first.first <= until_ns) {
      expected.push_back(ref_pending.begin()->second);
      ref_pending.erase(ref_pending.begin());
      ++ref_executed;
    }
  };
  const auto check = [&] {
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(sched.pending(), ref_pending.size());
    EXPECT_EQ(sched.total_scheduled(), ref_scheduled);
    EXPECT_EQ(sched.total_executed(), ref_executed);
    EXPECT_EQ(sched.total_cancelled(), ref_cancelled);
    EXPECT_EQ(sched.queue_high_water(), ref_high_water);
    for (const auto& [id, key] : handles) {
      EXPECT_EQ(sched.is_pending(id), ref_pending.contains(key));
    }
  };

  for (int round = 0; round < 2000 && !HasFailure(); ++round) {
    const auto action = rng.uniform_int(0, 9);
    if (action < 7 || handles.empty()) {
      // Schedule at a time >= now.
      const Time at = sched.now() + Time::ns(rng.uniform_int(0, 5000));
      const std::uint64_t op = ref_scheduled++;
      const EventId id = sched.schedule_at(at, [op, &fired] { fired.push_back(op); });
      const Key key{at.count_ns(), op};
      ref_pending.emplace(key, op);
      ref_high_water = std::max(ref_high_water, ref_pending.size());
      handles.emplace_back(id, key);
    } else if (action < 9) {
      // Cancel any handle ever issued: only a pending one may succeed.
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      const auto& [id, key] = handles[idx];
      const bool was_pending = ref_pending.erase(key) > 0;
      if (was_pending) ++ref_cancelled;
      EXPECT_EQ(sched.cancel(id), was_pending);
    } else {
      // Run a slice of time, consuming the reference front.
      const Time until = sched.now() + Time::ns(rng.uniform_int(0, 2000));
      sched.run_until(until);
      fire_reference_until(until.count_ns());
    }
    check();
  }
  sched.run();
  fire_reference_until(std::numeric_limits<std::int64_t>::max());
  check();
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(SchedulerModel, HeavyChurnKeepsStatsConsistent) {
  Scheduler sched;
  Rng rng{7};
  std::set<EventId> pending;
  for (int i = 0; i < 5000; ++i) {
    const EventId id = sched.schedule_at(sched.now() + Time::ns(rng.uniform_int(1, 1000)),
                                         [] {});
    pending.insert(id);
    if (rng.bernoulli(0.45) && !pending.empty()) {
      const EventId victim = *pending.begin();
      if (sched.cancel(victim)) pending.erase(victim);
    }
    if (rng.bernoulli(0.2)) sched.run_until(sched.now() + Time::ns(100));
  }
  sched.run();
  EXPECT_EQ(sched.total_scheduled(),
            sched.total_executed() + sched.total_cancelled());
}

}  // namespace
}  // namespace adhoc::sim
