#include "stats/fairness.hpp"

#include <gtest/gtest.h>

namespace adhoc::stats {
namespace {

TEST(Imbalance, Values) {
  EXPECT_DOUBLE_EQ(imbalance(5.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(imbalance(10.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(imbalance(3.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(imbalance(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(imbalance(1.0, 3.0), imbalance(3.0, 1.0));  // symmetric
}

}  // namespace
}  // namespace adhoc::stats
