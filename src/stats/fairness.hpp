#pragma once
// Fairness metric for two-session experiments.

#include <cmath>

namespace adhoc::stats {

/// Normalized throughput imbalance of two sessions: |a-b| / (a+b), in
/// [0, 1]. 0 = balanced, 1 = total starvation of one side.
[[nodiscard]] inline double imbalance(double a, double b) {
  const double total = a + b;
  if (total <= 0.0) return 0.0;
  return std::abs(a - b) / total;
}

}  // namespace adhoc::stats
