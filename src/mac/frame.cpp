#include "mac/frame.hpp"

namespace adhoc::mac {

std::uint32_t Frame::psdu_bits() const {
  switch (type) {
    case FrameType::kData: return Frame::kDataHeaderBits + sdu_bytes * 8;
    case FrameType::kRts: return Frame::kRtsBits;
    case FrameType::kCts: return Frame::kCtsBits;
    case FrameType::kAck: return Frame::kAckBits;
  }
  return 0;
}

std::ostream& operator<<(std::ostream& os, const Frame& f) {
  os << frame_type_name(f.type) << ' ' << f.src << " -> " << f.dst << " seq=" << f.seq
     << " dur=" << f.duration.to_us() << "us";
  if (f.type == FrameType::kData) os << " bytes=" << f.sdu_bytes;
  return os;
}

}  // namespace adhoc::mac
