#pragma once
// RunObserver: the per-run bundle of the three observability pillars —
// metrics registry, trace sink, scheduler profiler — gated by a level.
//
//   kOff      everything disabled (null pointers; zero hot-path cost)
//   kMetrics  metrics registry only
//   kTrace    + structured event tracing
//   kFull     + scheduler profiling (wall-clock timing per event)
//   kJourneys + causal packet-journey tracing (src/obs/journey)
//
// One observer per simulation run: campaign workers each build their own,
// so nothing here needs locking. Attach to a scenario with
// scenario::Network::attach_observer, then call finalize() after the run
// to fold profiler and trace-health numbers into the registry before
// exporting.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "obs/journey/journey.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace adhoc::obs {

enum class ObsLevel { kOff = 0, kMetrics = 1, kTrace = 2, kFull = 3, kJourneys = 4 };

[[nodiscard]] std::string_view obs_level_name(ObsLevel lv);
/// Parse "off" | "metrics" | "trace" | "full" | "journeys"; nullopt on
/// anything else.
[[nodiscard]] std::optional<ObsLevel> obs_level_from_string(std::string_view s);

class RunObserver {
 public:
  explicit RunObserver(ObsLevel level, std::size_t trace_capacity = TraceSink::kDefaultCapacity);

  RunObserver(const RunObserver&) = delete;
  RunObserver& operator=(const RunObserver&) = delete;

  [[nodiscard]] ObsLevel level() const { return level_; }
  [[nodiscard]] bool enabled() const { return level_ != ObsLevel::kOff; }

  /// Null when the level disables the pillar.
  [[nodiscard]] MetricsRegistry* registry() { return registry_.get(); }
  [[nodiscard]] TraceSink* trace_sink() { return trace_.get(); }
  [[nodiscard]] SchedulerProfiler* profiler() { return profiler_.get(); }
  [[nodiscard]] JourneyRecorder* journeys() { return journeys_.get(); }

  /// Fold end-of-run data into the registry: the scheduler profile and
  /// the trace-sink health ("trace": recorded/retained/dropped/capacity,
  /// so silently-truncated traces are visible in every export). Also
  /// records the sim clock so exports can be stamped after the simulator
  /// is gone.
  void finalize(const sim::Simulator& sim);
  [[nodiscard]] sim::Time finalized_at() const { return finalized_at_; }

  /// The registry flattened ("mac.sta0.tx_data": v) as a pure function
  /// of the run: the profiler's host wall times (wall_ms,
  /// events_per_sec, wall_ms_by_label.*) are left out, its counts kept.
  /// Campaign run records store this. Empty at kOff; finalize first.
  [[nodiscard]] std::map<std::string, double> outcome_snapshot() const;

  /// Registry export (finalize first). No-ops at kOff. The single-arg
  /// form stamps the document with the clock captured by finalize().
  void write_metrics_json(const std::string& path, sim::Time now) const;
  void write_metrics_json(const std::string& path) const {
    write_metrics_json(path, finalized_at_);
  }
  /// Trace export. No-ops below kTrace.
  void write_trace_json(const std::string& path) const;
  void write_trace_csv(const std::string& path) const;
  /// Journey CSV export (finalize first). No-ops below kJourneys.
  void write_journeys_csv(const std::string& path) const;

 private:
  ObsLevel level_;
  sim::Time finalized_at_ = sim::Time::zero();
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<TraceSink> trace_;
  std::unique_ptr<SchedulerProfiler> profiler_;
  std::unique_ptr<JourneyRecorder> journeys_;
};

}  // namespace adhoc::obs
