#pragma once
// Scheduler/run profiling: event counts and host wall time per event
// label, and events/sec, collected through the sim::SchedulerProbe hook.
// Attach via Scheduler::set_probe; detached (the default) the scheduler
// pays a single null-pointer test per event.
//
// Labels are string literals, so the per-event path keys its table by
// the label pointer and builds no string. register_in() folds the table
// by label text: two call sites scheduling the same text count as one
// label.

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/scheduler.hpp"

namespace adhoc::obs {

class MetricsRegistry;

class SchedulerProfiler final : public sim::SchedulerProbe {
 public:
  struct LabelStats {
    std::uint64_t count = 0;
    double wall_seconds = 0.0;
  };

  // sim::SchedulerProbe
  void event_executed(const char* label, double wall_seconds, std::size_t pending) override;

  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] double wall_seconds() const { return wall_seconds_; }
  [[nodiscard]] double events_per_sec() const {
    return wall_seconds_ > 0.0 ? static_cast<double>(events_) / wall_seconds_ : 0.0;
  }
  /// Fold the profile into `reg`: component "scheduler" for the totals,
  /// "scheduler.wall_ms_by_label" / "scheduler.count_by_label" for the
  /// per-event-type breakdown.
  void register_in(MetricsRegistry& reg) const;

  /// True for the flattened registry keys ("scheduler.wall_ms") that
  /// register_in() fills with host wall time rather than counts.
  [[nodiscard]] static bool is_host_time_key(std::string_view key);

 private:
  struct Entry {
    const char* label = nullptr;  // nullptr: unlabeled events
    LabelStats stats;
  };

  std::uint64_t events_ = 0;
  double wall_seconds_ = 0.0;
  /// One entry per distinct label pointer, in first-executed order.
  std::vector<Entry> by_label_;
};

}  // namespace adhoc::obs
