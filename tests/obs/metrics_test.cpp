#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace adhoc::obs {
namespace {

TEST(MetricsRegistry, CountersAccumulateAndFlatten) {
  MetricsRegistry reg;
  Counter& c = reg.counter("mac.sta0", "tx_data");
  c.inc();
  c.inc(4);
  reg.counter("mac.sta1", "tx_data").inc(7);

  const auto flat = reg.flatten();
  EXPECT_EQ(flat.at("mac.sta0.tx_data"), 5.0);
  EXPECT_EQ(flat.at("mac.sta1.tx_data"), 7.0);
  EXPECT_EQ(reg.component_count(), 2u);
}

TEST(MetricsRegistry, HandleStaysValidAcrossInserts) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a", "x");
  for (int i = 0; i < 100; ++i) {
    reg.counter("comp" + std::to_string(i), "y").inc();
  }
  c.inc(3);
  EXPECT_EQ(reg.flatten().at("a.x"), 3.0);
}

TEST(MetricsRegistry, GaugesOverwrite) {
  MetricsRegistry reg;
  reg.set_gauge("scheduler", "queue_high_water", 5.0);
  reg.set_gauge("scheduler", "queue_high_water", 9.0);
  EXPECT_EQ(reg.flatten().at("scheduler.queue_high_water"), 9.0);
}

TEST(MetricsRegistry, ProbesEvaluateLazily) {
  MetricsRegistry reg;
  int source = 1;
  reg.add_probe("mac.sta0", "queue_depth", [&source] { return static_cast<double>(source); });
  source = 42;  // changed after registration, before snapshot
  EXPECT_EQ(reg.flatten().at("mac.sta0.queue_depth"), 42.0);
}

TEST(MetricsRegistry, MaterializeFreezesProbesAsGauges) {
  MetricsRegistry reg;
  int source = 10;
  reg.add_probe("phy", "energy", [&source] { return static_cast<double>(source); });
  reg.materialize_probes();
  source = 99;  // probe must no longer be consulted (it may dangle)
  EXPECT_EQ(reg.flatten().at("phy.energy"), 10.0);
}

TEST(MetricsRegistry, DistributionsExpandAtSnapshot) {
  MetricsRegistry reg;
  Distribution& d = reg.distribution("scheduler", "event_wall_us");
  for (int i = 1; i <= 100; ++i) d.add(static_cast<double>(i));
  const auto flat = reg.flatten();
  EXPECT_EQ(flat.at("scheduler.event_wall_us.count"), 100.0);
  EXPECT_EQ(flat.at("scheduler.event_wall_us.min"), 1.0);
  EXPECT_EQ(flat.at("scheduler.event_wall_us.p50"), 50.0);
  EXPECT_EQ(flat.at("scheduler.event_wall_us.p99"), 99.0);
  EXPECT_EQ(flat.at("scheduler.event_wall_us.max"), 100.0);
}

TEST(MetricsRegistry, EmptyDistributionOnlyEmitsCount) {
  MetricsRegistry reg;
  reg.distribution("x", "d");
  const auto flat = reg.flatten();
  EXPECT_EQ(flat.at("x.d.count"), 0.0);
  EXPECT_EQ(flat.count("x.d.mean"), 0u);
}

TEST(MetricsRegistry, KindConflictThrows) {
  MetricsRegistry reg;
  reg.counter("a", "x");
  EXPECT_THROW(reg.set_gauge("a", "x", 1.0), std::logic_error);
  EXPECT_THROW(reg.distribution("a", "x"), std::logic_error);
}

TEST(MetricsRegistry, SnapshotJsonGroupsByComponent) {
  MetricsRegistry reg;
  reg.counter("mac.sta0", "tx").inc(3);
  reg.set_gauge("scheduler", "events", 100.0);
  const std::string json = reg.snapshot_json();
  EXPECT_NE(json.find("\"mac.sta0\":{\"tx\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"scheduler\":{\"events\":100}"), std::string::npos);
}

TEST(MetricsRegistry, WriteJsonStampsTimeAndMetrics) {
  MetricsRegistry reg;
  reg.counter("mac", "tx").inc(2);

  const std::string path = ::testing::TempDir() + "metrics_test_snapshot.json";
  reg.write_json(path, sim::Time::ms(300));
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  EXPECT_EQ(doc, "{\"time_us\":300000,\"metrics\":" + reg.snapshot_json() + "}\n");
  EXPECT_NE(doc.find("\"mac\":{\"tx\":2}"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsRegistry, WriteJsonBadPathThrows) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.write_json("/nonexistent-dir/x.json", sim::Time::zero()),
               std::runtime_error);
}

// Determinism contract for snapshots: the JSON must be byte-identical
// regardless of metric registration order, so jobs=1 vs jobs=N campaign
// workers (which register probes in whatever order their layers attach)
// produce diffable artifacts across runs and libstdc++ versions.
TEST(MetricsRegistry, SnapshotJsonIsByteStableAcrossInsertionOrder) {
  MetricsRegistry forward;
  forward.counter("mac.sta0", "tx_data").inc(3);
  forward.counter("phy.sta1", "rx_ok").inc(9);
  forward.set_gauge("scheduler", "queue_high_water", 4.0);

  MetricsRegistry reversed;
  reversed.set_gauge("scheduler", "queue_high_water", 4.0);
  reversed.counter("phy.sta1", "rx_ok").inc(9);
  reversed.counter("mac.sta0", "tx_data").inc(3);

  EXPECT_EQ(forward.snapshot_json(), reversed.snapshot_json());
  EXPECT_EQ(forward.flatten(), reversed.flatten());
}

TEST(MetricsRegistry, SnapshotJsonKeysAreSorted) {
  MetricsRegistry reg;
  reg.counter("zeta", "late").inc();
  reg.counter("alpha", "early").inc();
  reg.counter("alpha", "another").inc();
  const std::string json = reg.snapshot_json();
  // Components and the names within a component appear in sorted order.
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  EXPECT_LT(json.find("\"another\""), json.find("\"early\""));
}

}  // namespace
}  // namespace adhoc::obs
