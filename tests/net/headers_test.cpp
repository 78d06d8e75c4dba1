#include "net/headers.hpp"

#include <gtest/gtest.h>

namespace adhoc::net {
namespace {

TEST(Ipv4Address, Construction) {
  const Ipv4Address a{10, 0, 0, 1};
  EXPECT_EQ(a.value(), 0x0A000001u);
  EXPECT_EQ(a.to_string(), "10.0.0.1");
}

TEST(Ipv4Address, Broadcast) {
  EXPECT_TRUE(Ipv4Address::broadcast().is_broadcast());
  EXPECT_FALSE((Ipv4Address{10, 0, 0, 1}).is_broadcast());
  EXPECT_EQ(Ipv4Address::broadcast().to_string(), "255.255.255.255");
}

TEST(Ipv4Address, Ordering) {
  EXPECT_LT((Ipv4Address{10, 0, 0, 1}), (Ipv4Address{10, 0, 0, 2}));
}

TEST(TcpFlags, Equality) {
  TcpFlags a;
  a.syn = true;
  TcpFlags b;
  b.syn = true;
  EXPECT_EQ(a, b);
  b.ack = true;
  EXPECT_NE(a, b);
}

TEST(Headers, SizesMatchRealProtocols) {
  EXPECT_EQ(Ipv4Header::kBytes, 20u);
  EXPECT_EQ(UdpHeader::kBytes, 8u);
  EXPECT_EQ(TcpHeader::kBytes, 20u);
}

}  // namespace
}  // namespace adhoc::net
