#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

namespace adhoc::sim {
namespace {

TEST(Scheduler, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), Time::zero());
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time::us(30), [&] { order.push_back(3); });
  s.schedule_at(Time::us(10), [&] { order.push_back(1); });
  s.schedule_at(Time::us(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), Time::us(30));
}

TEST(Scheduler, SameTimeIsFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(Time::us(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ClockAdvancesToEventTime) {
  Scheduler s;
  Time seen;
  s.schedule_at(Time::ms(5), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, Time::ms(5));
}

TEST(Scheduler, RunUntilStopsAtHorizonAndSetsClock) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(Time::us(10), [&] { ++fired; });
  s.schedule_at(Time::us(100), [&] { ++fired; });
  s.run_until(Time::us(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), Time::us(50));
  s.run_until(Time::us(200));
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, EventAtHorizonRuns) {
  Scheduler s;
  bool fired = false;
  s.schedule_at(Time::us(50), [&] { fired = true; });
  s.run_until(Time::us(50));
  EXPECT_TRUE(fired);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.schedule_at(Time::us(10), [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.total_cancelled(), 1u);
}

TEST(Scheduler, CancelInvalidIsNoop) {
  Scheduler s;
  EXPECT_FALSE(s.cancel(kInvalidEvent));
  EXPECT_FALSE(s.cancel(9999));
}

TEST(Scheduler, CancelTwiceReturnsFalse) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::us(10), [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

TEST(Scheduler, CancelAfterExecutionReturnsFalse) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::us(10), [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));
}

TEST(Scheduler, IsPendingTracksLifecycle) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::us(10), [] {});
  EXPECT_TRUE(s.is_pending(id));
  s.run();
  EXPECT_FALSE(s.is_pending(id));
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler s;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(s.now().to_us());
    if (times.size() < 4) s.schedule_in(Time::us(10), chain);
  };
  s.schedule_at(Time::us(0), chain);
  s.run();
  EXPECT_EQ(times, (std::vector<double>{0, 10, 20, 30}));
}

TEST(Scheduler, EventCanCancelLaterEvent) {
  Scheduler s;
  bool fired = false;
  const EventId victim = s.schedule_at(Time::us(20), [&] { fired = true; });
  s.schedule_at(Time::us(10), [&] { s.cancel(victim); });
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler s;
  s.schedule_at(Time::us(10), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(Time::us(5), [] {}), std::invalid_argument);
}

TEST(Scheduler, EmptyCallbackThrows) {
  Scheduler s;
  EXPECT_THROW(s.schedule_at(Time::us(1), Scheduler::Callback{}), std::invalid_argument);
  void (*null_fn)() = nullptr;
  EXPECT_THROW(s.schedule_at(Time::us(1), null_fn), std::invalid_argument);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.total_scheduled(), 0u);
}

int g_counter = 0;
void bump_counter() { ++g_counter; }

TEST(Scheduler, AcceptsFunctionsAndFunctionPointers) {
  Scheduler s;
  g_counter = 0;
  s.schedule_at(Time::us(1), bump_counter);
  s.schedule_at(Time::us(2), &bump_counter);
  s.run();
  EXPECT_EQ(g_counter, 2);
}

TEST(Scheduler, StaleHandleCannotTouchSlotsNextOccupant) {
  Scheduler s;
  bool old_fired = false;
  bool new_fired = false;
  const EventId old_id = s.schedule_at(Time::us(10), [&] { old_fired = true; });
  ASSERT_TRUE(s.cancel(old_id));
  // The freed slot is reused by the next event (ABA).
  const EventId new_id = s.schedule_at(Time::us(10), [&] { new_fired = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(s.is_pending(old_id));
  EXPECT_FALSE(s.cancel(old_id));
  EXPECT_TRUE(s.is_pending(new_id));
  s.run();
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);

  // The same holds for a handle whose event already ran.
  const EventId next_id = s.schedule_at(Time::us(20), [] {});
  EXPECT_FALSE(s.is_pending(new_id));
  EXPECT_FALSE(s.cancel(new_id));
  EXPECT_TRUE(s.is_pending(next_id));
  EXPECT_EQ(s.total_cancelled(), 1u);
}

TEST(Scheduler, ForgedHandlesAreNotPending) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::us(1), [] {});
  EXPECT_FALSE(s.is_pending(kInvalidEvent));
  EXPECT_FALSE(s.cancel(kInvalidEvent));
  EXPECT_FALSE(s.is_pending(id + 1));             // a free slot
  EXPECT_FALSE(s.is_pending(id + (1ULL << 32)));  // the next generation
  EXPECT_FALSE(s.cancel(id + (1ULL << 32)));
  EXPECT_TRUE(s.is_pending(id));
}

TEST(Scheduler, SelfCancelWhileRunningIsANoOp) {
  Scheduler s;
  auto token = std::make_shared<int>(0);
  EventId self = kInvalidEvent;
  bool cancel_result = true;
  bool pending_inside = true;
  self = s.schedule_at(Time::us(1), [&, token] {
    pending_inside = s.is_pending(self);
    cancel_result = s.cancel(self);
    EXPECT_EQ(token.use_count(), 2);  // alive while running
  });
  s.run();
  EXPECT_FALSE(pending_inside);
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(s.total_executed(), 1u);
  EXPECT_EQ(s.total_cancelled(), 0u);
}

TEST(Scheduler, CapturesAreDestroyedOnceOnRunCancelAndDestruction) {
  auto token = std::make_shared<int>(0);
  {
    Scheduler s;
    s.schedule_at(Time::us(1), [token] {});
    const EventId cancelled = s.schedule_at(Time::us(2), [token] {});
    s.schedule_at(Time::us(3), [token] {});
    s.schedule_at(Time::us(4), [token] {});
    EXPECT_EQ(token.use_count(), 5);

    ASSERT_TRUE(s.cancel(cancelled));  // destroyed at cancel time
    EXPECT_EQ(token.use_count(), 4);

    ASSERT_TRUE(s.step());  // destroyed after running
    EXPECT_EQ(token.use_count(), 3);
  }  // two still pending: destroyed by ~Scheduler
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Scheduler, CaptureLargerThanInlineBufferRunsAndIsFreed) {
  struct Big {
    std::array<unsigned char, Scheduler::kInlineBytes * 2> bytes{};
    std::shared_ptr<int> token;
    int* out;
    void operator()() const { *out += bytes[0] + *token; }
  };
  static_assert(sizeof(Big) > Scheduler::kInlineBytes);
  auto token = std::make_shared<int>(5);
  int out = 0;
  {
    Scheduler s;
    Big big{{}, token, &out};
    big.bytes[0] = 2;
    s.schedule_at(Time::us(1), big);
    const EventId cancelled = s.schedule_at(Time::us(2), big);
    s.schedule_at(Time::us(3), big);
    EXPECT_EQ(token.use_count(), 5);  // three copies in the queue, plus `big`
    ASSERT_TRUE(s.cancel(cancelled));
    EXPECT_EQ(token.use_count(), 4);
    ASSERT_TRUE(s.step());
    EXPECT_EQ(out, 7);
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Scheduler, CallbackThatThrowsReleasesItsSlot) {
  Scheduler s;
  auto token = std::make_shared<int>(0);
  const EventId id = s.schedule_at(Time::us(1), [token] { throw std::runtime_error("boom"); });
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_FALSE(s.is_pending(id));
  EXPECT_EQ(token.use_count(), 1);
  bool fired = false;
  s.schedule_at(Time::us(2), [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, PoolGrowsAcrossBlocksWithoutMovingRunningEvents) {
  // A running event schedules enough new ones to grow the pool; its own
  // captures must stay intact while it runs.
  Scheduler s;
  const auto n = static_cast<int>(Scheduler::kBlockSlots * 3);
  int ran = 0;
  const std::vector<int> payload(4, 7);
  s.schedule_at(Time::us(1), [&, payload] {
    for (int i = 0; i < n; ++i) s.schedule_in(Time::us(1), [&] { ++ran; });
    EXPECT_EQ(payload, std::vector<int>(4, 7));
  });
  s.run();
  EXPECT_EQ(ran, n);
  EXPECT_EQ(s.queue_high_water(), static_cast<std::size_t>(n));
}

TEST(Scheduler, SchedulingAtNowRuns) {
  Scheduler s;
  bool inner = false;
  s.schedule_at(Time::us(10), [&] {
    s.schedule_at(s.now(), [&] { inner = true; });
  });
  s.run();
  EXPECT_TRUE(inner);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler s;
  int count = 0;
  s.schedule_at(Time::us(1), [&] { ++count; });
  s.schedule_at(Time::us(2), [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, StatsAreConsistent) {
  Scheduler s;
  const EventId a = s.schedule_at(Time::us(1), [] {});
  s.schedule_at(Time::us(2), [] {});
  s.cancel(a);
  s.run();
  EXPECT_EQ(s.total_scheduled(), 2u);
  EXPECT_EQ(s.total_executed(), 1u);
  EXPECT_EQ(s.total_cancelled(), 1u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  Time last = Time::zero();
  bool monotone = true;
  for (int i = 0; i < 10'000; ++i) {
    const auto at = Time::ns((i * 7919) % 100'000);
    s.schedule_at(at, [&, at] {
      if (s.now() < last) monotone = false;
      last = s.now();
    });
  }
  s.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(s.total_executed(), 10'000u);
}

}  // namespace
}  // namespace adhoc::sim
