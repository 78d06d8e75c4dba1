#include "obs/profile.hpp"

#include "obs/metrics.hpp"

namespace adhoc::obs {

void SchedulerProfiler::event_executed(const char* label, double wall_seconds,
                                       std::size_t /*pending*/) {
  ++events_;
  wall_seconds_ += wall_seconds;
  LabelStats& s = by_label_[label != nullptr ? label : "(unlabeled)"];
  ++s.count;
  s.wall_seconds += wall_seconds;
}

void SchedulerProfiler::register_in(MetricsRegistry& reg) const {
  reg.set_gauge("scheduler", "events", static_cast<double>(events_));
  reg.set_gauge("scheduler", "wall_ms", wall_seconds_ * 1e3);
  reg.set_gauge("scheduler", "events_per_sec", events_per_sec());
  for (const auto& [label, stats] : by_label_) {
    reg.set_gauge("scheduler.wall_ms_by_label", label, stats.wall_seconds * 1e3);
    reg.set_gauge("scheduler.count_by_label", label, static_cast<double>(stats.count));
  }
}

bool SchedulerProfiler::is_host_time_key(std::string_view key) {
  return key == "scheduler.wall_ms" || key == "scheduler.events_per_sec" ||
         key.starts_with("scheduler.wall_ms_by_label.");
}

}  // namespace adhoc::obs
