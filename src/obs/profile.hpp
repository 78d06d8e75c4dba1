#pragma once
// Scheduler/run profiling: event counts and host wall time per event
// label, and events/sec, collected through the sim::SchedulerProbe hook.
// Attach via Scheduler::set_probe; detached (the default) the scheduler
// pays a single null-pointer test per event.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

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
  [[nodiscard]] const std::map<std::string, LabelStats>& by_label() const { return by_label_; }

  /// Fold the profile into `reg`: component "scheduler" for the totals,
  /// "scheduler.wall_ms_by_label" / "scheduler.count_by_label" for the
  /// per-event-type breakdown.
  void register_in(MetricsRegistry& reg) const;

  /// True for the flattened registry keys ("scheduler.wall_ms") that
  /// register_in() fills with host wall time rather than counts.
  [[nodiscard]] static bool is_host_time_key(std::string_view key);

 private:
  std::uint64_t events_ = 0;
  double wall_seconds_ = 0.0;
  std::map<std::string, LabelStats> by_label_;
};

}  // namespace adhoc::obs
