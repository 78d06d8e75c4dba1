// RunObserver + SchedulerProfiler behaviour: level gating, scheduler
// profiling through the real scheduler probe hook, and finalize()
// freezing probe values so exports outlive the simulation.

#include "obs/observer.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "sim/simulator.hpp"

namespace adhoc::obs {
namespace {

TEST(ObsLevel, NamesRoundTrip) {
  for (const ObsLevel lv :
       {ObsLevel::kOff, ObsLevel::kMetrics, ObsLevel::kTrace, ObsLevel::kFull}) {
    const auto parsed = obs_level_from_string(obs_level_name(lv));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, lv);
  }
  EXPECT_FALSE(obs_level_from_string("verbose").has_value());
}

TEST(RunObserver, LevelGatesPillars) {
  RunObserver off{ObsLevel::kOff};
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.registry(), nullptr);
  EXPECT_EQ(off.trace_sink(), nullptr);
  EXPECT_EQ(off.profiler(), nullptr);

  RunObserver metrics{ObsLevel::kMetrics};
  EXPECT_NE(metrics.registry(), nullptr);
  EXPECT_EQ(metrics.trace_sink(), nullptr);

  RunObserver trace{ObsLevel::kTrace};
  EXPECT_NE(trace.registry(), nullptr);
  EXPECT_NE(trace.trace_sink(), nullptr);
  EXPECT_EQ(trace.profiler(), nullptr);

  RunObserver full{ObsLevel::kFull};
  EXPECT_NE(full.profiler(), nullptr);
}

TEST(RunObserver, ProfilerCollectsThroughSchedulerProbe) {
  RunObserver observer{ObsLevel::kFull};
  sim::Simulator sim{1};
  sim.scheduler().set_probe(observer.profiler());
  int fired = 0;
  sim.after(sim::Time::us(10), [&fired] { ++fired; }, "test.a");
  sim.after(sim::Time::us(20), [&fired] { ++fired; }, "test.a");
  sim.after(sim::Time::us(30), [&fired] { ++fired; }, "test.b");
  sim.run_until(sim::Time::ms(1));
  ASSERT_EQ(fired, 3);

  const SchedulerProfiler& prof = *observer.profiler();
  EXPECT_EQ(prof.events(), 3u);
  EXPECT_GE(prof.wall_seconds(), 0.0);

  observer.finalize(sim);
  const auto flat = observer.registry()->flatten();
  EXPECT_EQ(flat.at("scheduler.count_by_label.test.a"), 2.0);
  EXPECT_EQ(flat.at("scheduler.count_by_label.test.b"), 1.0);
  EXPECT_EQ(flat.at("scheduler.total_executed"), 3.0);
  EXPECT_GE(flat.at("scheduler.queue_high_water"), 1.0);
  EXPECT_EQ(observer.finalized_at(), sim::Time::ms(1));
}

TEST(RunObserver, ProfilerFoldsEqualLabelTextFromDistinctPointers) {
  // Two call sites may schedule the same label text from different
  // string literals; the profiler keys by pointer but exports by text.
  static const char kFirst[] = "test.same";
  static const char kSecond[] = "test.same";
  ASSERT_NE(static_cast<const void*>(kFirst), static_cast<const void*>(kSecond));
  RunObserver observer{ObsLevel::kFull};
  sim::Simulator sim{1};
  sim.scheduler().set_probe(observer.profiler());
  sim.after(sim::Time::us(10), [] {}, kFirst);
  sim.after(sim::Time::us(20), [] {}, kSecond);
  sim.after(sim::Time::us(30), [] {}, kFirst);
  sim.after(sim::Time::us(40), [] {});
  sim.run_until(sim::Time::ms(1));
  observer.finalize(sim);

  const auto flat = observer.registry()->flatten();
  EXPECT_EQ(flat.at("scheduler.count_by_label.test.same"), 3.0);
  EXPECT_EQ(flat.at("scheduler.count_by_label.(unlabeled)"), 1.0);
  EXPECT_EQ(flat.count("scheduler.wall_ms_by_label.test.same"), 1u);
  EXPECT_EQ(flat.at("scheduler.events"), 4.0);
}

TEST(RunObserver, OutcomeSnapshotKeepsCountsAndDropsHostTime) {
  RunObserver observer{ObsLevel::kFull};
  sim::Simulator sim{1};
  sim.scheduler().set_probe(observer.profiler());
  sim.after(sim::Time::us(10), [] {}, "test.a");
  sim.run_until(sim::Time::ms(1));
  observer.finalize(sim);

  const auto flat = observer.registry()->flatten();
  EXPECT_EQ(flat.count("scheduler.wall_ms"), 1u);
  EXPECT_EQ(flat.count("scheduler.events_per_sec"), 1u);
  EXPECT_EQ(flat.count("scheduler.wall_ms_by_label.test.a"), 1u);

  const auto snapshot = observer.outcome_snapshot();
  for (const auto& [key, value] : snapshot) {
    EXPECT_FALSE(SchedulerProfiler::is_host_time_key(key)) << key;
  }
  EXPECT_EQ(snapshot.size(), flat.size() - 3);
  EXPECT_EQ(snapshot.at("scheduler.events"), 1.0);
  EXPECT_EQ(snapshot.at("scheduler.count_by_label.test.a"), 1.0);
  EXPECT_EQ(snapshot.at("trace.dropped"), 0.0);

  EXPECT_TRUE(RunObserver{ObsLevel::kOff}.outcome_snapshot().empty());
}

TEST(RunObserver, FinalizeRecordsTraceHealthAndFreezesProbes) {
  RunObserver observer{ObsLevel::kTrace, /*trace_capacity=*/4};
  sim::Simulator sim{1};
  for (int i = 0; i < 6; ++i) {
    observer.trace_sink()->instant(sim::Time::us(i), Layer::kMac, 0, EventKind::kMacRxOk);
  }
  // Probe over a short-lived object: finalize must freeze its value.
  auto victim = std::make_unique<int>(17);
  observer.registry()->add_probe("mac.sta0", "queue",
                                 [p = victim.get()] { return static_cast<double>(*p); });
  observer.finalize(sim);
  victim.reset();  // dangling probe would now crash if still consulted

  const auto flat = observer.registry()->flatten();
  EXPECT_EQ(flat.at("trace.recorded"), 6.0);
  EXPECT_EQ(flat.at("trace.retained"), 4.0);
  EXPECT_EQ(flat.at("trace.dropped"), 2.0);
  EXPECT_EQ(flat.at("trace.capacity"), 4.0);
  EXPECT_EQ(flat.at("mac.sta0.queue"), 17.0);
}

TEST(RunObserver, ExportsNoOpWhenDisabled) {
  RunObserver off{ObsLevel::kOff};
  sim::Simulator sim{1};
  off.finalize(sim);
  // Must not throw or create files for disabled pillars.
  off.write_metrics_json("/nonexistent-dir/m.json");
  off.write_trace_json("/nonexistent-dir/t.json");
  off.write_trace_csv("/nonexistent-dir/t.csv");
}

}  // namespace
}  // namespace adhoc::obs
