#include <gtest/gtest.h>

#include "app/cbr.hpp"
#include "app/ftp.hpp"
#include "app/loss_probe.hpp"
#include "app/sink.hpp"
#include "scenario/network.hpp"

namespace adhoc::app {
namespace {

class AppTest : public ::testing::Test {
 protected:
  AppTest() {
    net_.add_node({0, 0});
    net_.add_node({20, 0});
  }
  sim::Simulator sim_{17};
  scenario::Network net_{sim_};
};

TEST_F(AppTest, CbrIntervalForRate) {
  // 512 B at 4096 bits / 1 Mbps = 4.096 ms per packet.
  EXPECT_EQ(CbrSource::interval_for_rate(512, 1e6), sim::Time::us(4096));
}

TEST_F(AppTest, CbrSendsAtConfiguredPace) {
  auto& sock = net_.udp(0).open(5000);
  UdpSink sink{sim_, net_.udp(1), 5000};
  CbrSource cbr{sim_, sock, net_.node(1).ip(), 5000, 512, sim::Time::ms(10)};
  cbr.start(sim::Time::zero());
  sim_.run_until(sim::Time::ms(105));
  cbr.stop();
  // Ticks at 0,10,...,100 -> 11 datagrams.
  EXPECT_EQ(cbr.sent(), 11u);
}

TEST_F(AppTest, CbrStopHalts) {
  auto& sock = net_.udp(0).open(5000);
  net_.udp(1).open(5000);
  CbrSource cbr{sim_, sock, net_.node(1).ip(), 5000, 512, sim::Time::ms(10)};
  cbr.start(sim::Time::zero());
  sim_.run_until(sim::Time::ms(50));
  const auto sent = cbr.sent();
  cbr.stop();
  sim_.run_until(sim::Time::ms(200));
  EXPECT_EQ(cbr.sent(), sent);
}

TEST_F(AppTest, UdpSinkMeasuresGoodputOverWindow) {
  auto& sock = net_.udp(0).open(5000);
  UdpSink sink{sim_, net_.udp(1), 5000};
  CbrSource cbr{sim_, sock, net_.node(1).ip(), 5000, 1000, sim::Time::ms(10)};
  cbr.start(sim::Time::zero());
  sim_.run_until(sim::Time::ms(500));
  sink.start_measuring();
  sim_.run_until(sim::Time::ms(1500));
  // 100 datagrams/s * 1000 B = 800 kbit/s.
  EXPECT_NEAR(sink.throughput_kbps(), 800.0, 40.0);
  EXPECT_GT(sink.datagrams(), 90u);
}

TEST_F(AppTest, UdpSinkTracksOneWayDelay) {
  auto& sock = net_.udp(0).open(5000);
  UdpSink sink{sim_, net_.udp(1), 5000};
  CbrSource cbr{sim_, sock, net_.node(1).ip(), 5000, 512, sim::Time::ms(10)};
  cbr.start(sim::Time::zero());
  sim_.run_until(sim::Time::sec(1));
  const auto& d = sink.delay_ms();
  ASSERT_GT(d.count(), 50u);
  // Unloaded 11 Mbps link: DIFS + data + queueing ~ sub-millisecond.
  EXPECT_GT(d.median(), 0.3);
  EXPECT_LT(d.median(), 5.0);
  EXPECT_GE(d.percentile(99), d.median());
  EXPECT_GE(d.max(), d.percentile(95));
}

TEST_F(AppTest, DelayGrowsUnderOverload) {
  // Offered load above capacity: the MAC queue fills and per-packet
  // delay climbs by orders of magnitude.
  auto& sock = net_.udp(0).open(5000);
  UdpSink sink{sim_, net_.udp(1), 5000};
  CbrSource cbr{sim_, sock, net_.node(1).ip(), 5000, 512,
                CbrSource::interval_for_rate(512, 8e6)};  // >> 3.3 Mbps capacity
  cbr.start(sim::Time::zero());
  sim_.run_until(sim::Time::sec(3));
  EXPECT_GT(sink.delay_ms().percentile(95), 20.0);  // queueing dominates
}

TEST_F(AppTest, FtpSourceStreamsToTcpSink) {
  TcpSink sink{sim_, net_.tcp(1), 6000};
  FtpSource ftp{sim_, net_.tcp(0), net_.node(1).ip(), 6000};
  ftp.start(sim::Time::ms(10));
  sim_.run_until(sim::Time::ms(500));
  sink.start_measuring();
  sim_.run_until(sim::Time::sec(3));
  EXPECT_TRUE(ftp.started());
  EXPECT_TRUE(sink.connected());
  EXPECT_GT(sink.bytes(), 100'000u);
  EXPECT_GT(sink.throughput_kbps(), 500.0);
}

TEST_F(AppTest, FtpSourceRedialsAfterSynRetriesRunOut) {
  // Nobody listens on the port: the SYN retries (RTO 1 s, doubling, 5
  // retries) run out after 63 s, the connection closes, and the source
  // dials again kReconnectDelay later.
  FtpSource ftp{sim_, net_.tcp(0), net_.node(1).ip(), 6000};
  ftp.start(sim::Time::zero());
  sim_.run_until(sim::Time::sec(62));
  EXPECT_EQ(ftp.connect_attempts(), 1u);
  sim_.run_until(sim::Time::sec(64));
  EXPECT_EQ(ftp.connect_attempts(), 2u);
  ASSERT_TRUE(ftp.started());
  EXPECT_EQ(ftp.connection()->state(), transport::TcpConnection::State::kSynSent);
}

TEST_F(AppTest, ProbeLossIsZeroWellWithinRange) {
  auto& sock = net_.udp(0).open(4000);
  ProbeSender sender{sim_, sock, 4001, 512, sim::Time::ms(20)};
  ProbeReceiver receiver{net_.udp(1), 4001};
  sender.start(sim::Time::zero());
  sim_.run_until(sim::Time::sec(2));
  sender.stop();
  sim_.run_until(sim_.now() + sim::Time::ms(50));
  EXPECT_GT(sender.sent(), 90u);
  EXPECT_DOUBLE_EQ(receiver.loss_rate(sender.sent()), 0.0);
}

TEST(ProbeOutOfRange, LossIsTotalBeyondRange) {
  sim::Simulator sim{19};
  scenario::Network net{sim};
  net.add_node({0, 0});
  net.add_node({300, 0});  // far beyond the 2 Mbps broadcast range
  auto& sock = net.udp(0).open(4000);
  ProbeSender sender{sim, sock, 4001, 512, sim::Time::ms(20)};
  ProbeReceiver receiver{net.udp(1), 4001};
  sender.start(sim::Time::zero());
  sim.run_until(sim::Time::sec(2));
  EXPECT_DOUBLE_EQ(receiver.loss_rate(sender.sent()), 1.0);
}

TEST(ProbeReceiverMath, LossRateEdgeCases) {
  sim::Simulator sim{21};
  scenario::Network net{sim};
  net.add_node({0, 0});
  net.add_node({10, 0});
  ProbeReceiver r{net.udp(1), 4001};
  EXPECT_DOUBLE_EQ(r.loss_rate(0), 0.0);
  EXPECT_DOUBLE_EQ(r.loss_rate(10), 1.0);
}

}  // namespace
}  // namespace adhoc::app
