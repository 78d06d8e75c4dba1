#include "obs/profile.hpp"

#include <map>
#include <string>

#include "obs/metrics.hpp"

namespace adhoc::obs {

void SchedulerProfiler::event_executed(const char* label, double wall_seconds,
                                       std::size_t /*pending*/) {
  ++events_;
  wall_seconds_ += wall_seconds;
  // A run uses a few dozen distinct labels at most, so a linear scan
  // over pointers suffices; nothing is allocated once every label ran.
  Entry* entry = nullptr;
  for (Entry& e : by_label_) {
    if (e.label == label) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) entry = &by_label_.emplace_back(Entry{label, {}});
  ++entry->stats.count;
  entry->stats.wall_seconds += wall_seconds;
}

void SchedulerProfiler::register_in(MetricsRegistry& reg) const {
  reg.set_gauge("scheduler", "events", static_cast<double>(events_));
  reg.set_gauge("scheduler", "wall_ms", wall_seconds_ * 1e3);
  reg.set_gauge("scheduler", "events_per_sec", events_per_sec());
  std::map<std::string, LabelStats> by_text;
  for (const Entry& e : by_label_) {
    LabelStats& s = by_text[e.label != nullptr ? e.label : "(unlabeled)"];
    s.count += e.stats.count;
    s.wall_seconds += e.stats.wall_seconds;
  }
  for (const auto& [label, stats] : by_text) {
    reg.set_gauge("scheduler.wall_ms_by_label", label, stats.wall_seconds * 1e3);
    reg.set_gauge("scheduler.count_by_label", label, static_cast<double>(stats.count));
  }
}

bool SchedulerProfiler::is_host_time_key(std::string_view key) {
  return key == "scheduler.wall_ms" || key == "scheduler.events_per_sec" ||
         key.starts_with("scheduler.wall_ms_by_label.");
}

}  // namespace adhoc::obs
