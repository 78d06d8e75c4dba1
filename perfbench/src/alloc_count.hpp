#pragma once
// Whole-process heap traffic, counted by the replaced global operator
// new in alloc_count.cpp. Only the benchmark binary links that file,
// so the simulator libraries themselves are unchanged.

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

/// Running totals since process start (all threads).
[[nodiscard]] AllocCount alloc_count();

}  // namespace perfbench
