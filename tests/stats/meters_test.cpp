#include <gtest/gtest.h>

#include "stats/rate_meter.hpp"

namespace adhoc::stats {
namespace {

using sim::Time;

TEST(RateMeter, IgnoresBytesBeforeStart) {
  RateMeter m;
  m.on_bytes(1000, Time::sec(1));
  EXPECT_EQ(m.bytes(), 0u);
  m.start(Time::sec(2));
  m.on_bytes(1000, Time::sec(3));
  EXPECT_EQ(m.bytes(), 1000u);
}

TEST(RateMeter, ComputesBitsPerSecond) {
  RateMeter m;
  m.start(Time::zero());
  m.on_bytes(125'000, Time::sec(1));  // 1 Mbit over 1 s
  EXPECT_DOUBLE_EQ(m.bps(Time::sec(1)), 1e6);
  EXPECT_DOUBLE_EQ(m.mbps(Time::sec(1)), 1.0);
  EXPECT_DOUBLE_EQ(m.kbps(Time::sec(1)), 1000.0);
}

TEST(RateMeter, ZeroWindowIsZero) {
  RateMeter m;
  m.start(Time::sec(1));
  EXPECT_EQ(m.bps(Time::sec(1)), 0.0);
  EXPECT_EQ(m.bps(Time::ms(500)), 0.0);  // query before start
}

TEST(RateMeter, RestartResets) {
  RateMeter m;
  m.start(Time::zero());
  m.on_bytes(500, Time::ms(100));
  m.start(Time::sec(1));
  EXPECT_EQ(m.bytes(), 0u);
  EXPECT_EQ(m.packets(), 0u);
}

TEST(LossMeter, BasicAccounting) {
  LossMeter m;
  for (int i = 0; i < 10; ++i) m.on_sent();
  for (int i = 0; i < 7; ++i) m.on_received();
  EXPECT_EQ(m.lost(), 3u);
  EXPECT_DOUBLE_EQ(m.loss_rate(), 0.3);
}

TEST(LossMeter, NoTrafficIsZeroLoss) {
  LossMeter m;
  EXPECT_DOUBLE_EQ(m.loss_rate(), 0.0);
}

TEST(LossMeter, MoreReceivedThanSentClamps) {
  LossMeter m;
  m.on_sent();
  m.on_received();
  m.on_received();  // duplicate delivery
  EXPECT_EQ(m.lost(), 0u);
  EXPECT_DOUBLE_EQ(m.loss_rate(), 0.0);
}

}  // namespace
}  // namespace adhoc::stats
