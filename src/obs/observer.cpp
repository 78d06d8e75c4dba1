#include "obs/observer.hpp"

namespace adhoc::obs {

std::string_view obs_level_name(ObsLevel lv) {
  switch (lv) {
    case ObsLevel::kOff: return "off";
    case ObsLevel::kMetrics: return "metrics";
    case ObsLevel::kTrace: return "trace";
    case ObsLevel::kFull: return "full";
    case ObsLevel::kJourneys: return "journeys";
  }
  return "?";
}

std::optional<ObsLevel> obs_level_from_string(std::string_view s) {
  if (s == "off") return ObsLevel::kOff;
  if (s == "metrics") return ObsLevel::kMetrics;
  if (s == "trace") return ObsLevel::kTrace;
  if (s == "full") return ObsLevel::kFull;
  if (s == "journeys") return ObsLevel::kJourneys;
  return std::nullopt;
}

RunObserver::RunObserver(ObsLevel level, std::size_t trace_capacity) : level_(level) {
  if (level_ >= ObsLevel::kMetrics) registry_ = std::make_unique<MetricsRegistry>();
  if (level_ >= ObsLevel::kTrace) trace_ = std::make_unique<TraceSink>(trace_capacity);
  if (level_ >= ObsLevel::kFull) profiler_ = std::make_unique<SchedulerProfiler>();
  if (level_ >= ObsLevel::kJourneys) {
    journeys_ = std::make_unique<JourneyRecorder>();
    journeys_->set_trace_sink(trace_.get());
    journeys_->set_metrics(registry_.get());
  }
}

void RunObserver::finalize(const sim::Simulator& sim) {
  finalized_at_ = sim.now();
  // Close in-flight journeys while the simulation (and the attribution
  // probes wired into it) is still alive; the ledger gauges then ride
  // the registry export below.
  if (journeys_) journeys_->finalize(sim.now());
  if (!registry_) return;
  if (profiler_) profiler_->register_in(*registry_);
  if (journeys_) journeys_->fold_into(*registry_);
  // The scheduler's own accounting, present at every level above off
  // (the profiler adds per-label counts and wall time only at kFull).
  const sim::Scheduler& sched = sim.scheduler();
  registry_->set_gauge("scheduler", "total_scheduled",
                       static_cast<double>(sched.total_scheduled()));
  registry_->set_gauge("scheduler", "total_executed",
                       static_cast<double>(sched.total_executed()));
  registry_->set_gauge("scheduler", "total_cancelled",
                       static_cast<double>(sched.total_cancelled()));
  registry_->set_gauge("scheduler", "queue_high_water",
                       static_cast<double>(sched.queue_high_water()));
  if (trace_) {
    registry_->set_gauge("trace", "recorded", static_cast<double>(trace_->total_recorded()));
    registry_->set_gauge("trace", "retained", static_cast<double>(trace_->size()));
    registry_->set_gauge("trace", "dropped", static_cast<double>(trace_->dropped()));
    registry_->set_gauge("trace", "capacity", static_cast<double>(trace_->capacity()));
  }
  // Freeze probe values while their targets (DCF, radios, TCP stacks)
  // are still alive; the registry can then outlive the simulation.
  registry_->materialize_probes();
}

std::map<std::string, double> RunObserver::outcome_snapshot() const {
  if (!registry_) return {};
  auto flat = registry_->flatten();
  std::erase_if(flat, [](const auto& kv) { return SchedulerProfiler::is_host_time_key(kv.first); });
  return flat;
}

void RunObserver::write_metrics_json(const std::string& path, sim::Time now) const {
  if (registry_) registry_->write_json(path, now);
}

void RunObserver::write_trace_json(const std::string& path) const {
  if (trace_) trace_->write_chrome_trace(path);
}

void RunObserver::write_trace_csv(const std::string& path) const {
  if (trace_) trace_->write_csv(path);
}

void RunObserver::write_journeys_csv(const std::string& path) const {
  if (journeys_) journeys_->write_csv(path);
}

}  // namespace adhoc::obs
