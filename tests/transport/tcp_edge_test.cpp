// TCP edge cases beyond the main suite: window limiting, simultaneous
// traffic in both directions, independent connections between the same
// hosts, and MSS-controlled segmentation.

#include <gtest/gtest.h>

#include "scenario/network.hpp"
#include "transport/tcp.hpp"

namespace adhoc::transport {
namespace {

class TcpEdgeTest : public ::testing::Test {
 protected:
  TcpEdgeTest() {
    net_.add_node({0, 0});
    net_.add_node({15, 0});
  }
  sim::Simulator sim_{91};
  scenario::Network net_{sim_};
};

TEST_F(TcpEdgeTest, SmallReceiveWindowThrottlesSender) {
  // One-MSS window + delayed ACKs = the classic stall: a lone segment in
  // flight never triggers the every-2nd-segment immediate ACK, so each
  // round trips on the 40 ms delayed-ACK timer.
  TcpParams tight = TcpParams{};
  tight.rwnd_bytes = tight.mss;
  transport::TcpStack client_stack{net_.node(0), tight};
  transport::TcpStack server_stack{net_.node(1), tight};
  std::uint64_t delivered = 0;
  server_stack.listen(80, [&](TcpConnection& c) {
    c.set_delivered_handler([&](std::uint32_t b) { delivered += b; });
  });
  TcpConnection& client = client_stack.connect(net_.node(1).ip(), 80);
  client.set_infinite_source(true);
  sim_.run_until(sim::Time::sec(3));
  const double mbps = static_cast<double>(delivered) * 8.0 / 3.0 / 1e6;
  // ~512 B per 40 ms ~= 0.1 Mbps; far below the ~2.7 Mbps channel.
  EXPECT_GT(delivered, 10'000u);
  EXPECT_LT(mbps, 0.5);
}

TEST_F(TcpEdgeTest, BidirectionalTransfersShareTheLink) {
  transport::TcpStack& a = net_.tcp(0);
  transport::TcpStack& b = net_.tcp(1);
  std::uint64_t a_to_b = 0;
  std::uint64_t b_to_a = 0;
  b.listen(80, [&](TcpConnection& c) {
    c.set_delivered_handler([&](std::uint32_t n) { a_to_b += n; });
  });
  a.listen(81, [&](TcpConnection& c) {
    c.set_delivered_handler([&](std::uint32_t n) { b_to_a += n; });
  });
  TcpConnection& c1 = a.connect(net_.node(1).ip(), 80);
  c1.set_infinite_source(true);
  TcpConnection& c2 = b.connect(net_.node(0).ip(), 81);
  c2.set_infinite_source(true);
  sim_.run_until(sim::Time::sec(5));
  EXPECT_GT(a_to_b, 100'000u);
  EXPECT_GT(b_to_a, 100'000u);
  // Both directions make sustained progress. Exact shares are NOT
  // asserted: TCP-over-DCF exhibits the well-known capture effect where
  // one direction can hold a multi-x advantage for seconds at a time.
  const double ratio = static_cast<double>(a_to_b) / static_cast<double>(b_to_a);
  EXPECT_GT(ratio, 0.05);
  EXPECT_LT(ratio, 20.0);
}

TEST_F(TcpEdgeTest, TwoConnectionsBetweenSameHostsAreIndependent) {
  std::uint64_t d1 = 0;
  std::uint64_t d2 = 0;
  net_.tcp(1).listen(80, [&](TcpConnection& c) {
    c.set_delivered_handler([&](std::uint32_t b) { d1 += b; });
  });
  net_.tcp(1).listen(81, [&](TcpConnection& c) {
    c.set_delivered_handler([&](std::uint32_t b) { d2 += b; });
  });
  TcpConnection& c1 = net_.tcp(0).connect(net_.node(1).ip(), 80);
  TcpConnection& c2 = net_.tcp(0).connect(net_.node(1).ip(), 81);
  c1.send(30'000);
  c2.send(30'000);
  sim_.run_until(sim::Time::sec(5));
  EXPECT_EQ(d1, 30'000u);
  EXPECT_EQ(d2, 30'000u);
  EXPECT_NE(c1.local_port(), c2.local_port());
}

TEST_F(TcpEdgeTest, MssControlsSegmentation) {
  TcpParams big = TcpParams{};
  big.mss = 1024;
  transport::TcpStack client_stack{net_.node(0), big};
  std::uint64_t delivered = 0;
  net_.tcp(1).listen(80, [&](TcpConnection& c) {
    c.set_delivered_handler([&](std::uint32_t b) { delivered += b; });
  });
  TcpConnection& client = client_stack.connect(net_.node(1).ip(), 80);
  client.send(10 * 1024);
  sim_.run_until(sim::Time::sec(2));
  EXPECT_EQ(delivered, 10u * 1024u);
  EXPECT_EQ(client.counters().data_segments_tx, 10u);  // exactly MSS-sized
}

}  // namespace
}  // namespace adhoc::transport
