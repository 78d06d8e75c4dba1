#include "mac/frame.hpp"

#include <gtest/gtest.h>

namespace adhoc::mac {
namespace {

TEST(Frame, PsduBitsPerPaperTable1) {
  Frame f;
  f.type = FrameType::kRts;
  EXPECT_EQ(f.psdu_bits(), 160u);
  f.type = FrameType::kCts;
  EXPECT_EQ(f.psdu_bits(), 112u);
  f.type = FrameType::kAck;
  EXPECT_EQ(f.psdu_bits(), 112u);
  f.type = FrameType::kData;
  f.sdu_bytes = 512;
  EXPECT_EQ(f.psdu_bits(), 272u + 4096u);
}

}  // namespace
}  // namespace adhoc::mac
