#pragma once
// Metrics registry: named counters / gauges / probes / distributions,
// registered per component ("mac.sta1", "phy.sta0", "tcp.sta2",
// "scheduler"), snapshotted to JSON at end of run.
//
// Metric kinds:
//  * Counter      — owned monotonically increasing u64 (hot-path inc).
//  * Gauge        — owned double, set explicitly.
//  * Probe        — callback evaluated lazily at snapshot time; the way
//                   existing per-layer counter structs (mac::MacCounters,
//                   transport::TcpCounters, phy::Radio counters) are
//                   re-exposed without double bookkeeping.
//  * Distribution — sample set (built on stats::Percentiles) expanded to
//                   count/mean/min/p50/p95/p99/max at snapshot time.
//
// Handles returned by counter()/distribution() stay valid for the
// registry's lifetime. Scheduler-context only — per-run registries on
// campaign workers are private to their worker.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "sim/time.hpp"
#include "stats/percentile.hpp"

namespace adhoc::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Distribution {
 public:
  void add(double x) { samples_.add(x); }
  [[nodiscard]] const stats::Percentiles& samples() const { return samples_; }

 private:
  stats::Percentiles samples_;
};

class MetricsRegistry {
 public:
  using ProbeFn = std::function<double()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create a counter. The reference stays valid for the
  /// registry's lifetime.
  Counter& counter(const std::string& component, const std::string& name);

  /// Set (creating if needed) a gauge value.
  void set_gauge(const std::string& component, const std::string& name, double value);

  /// Add `delta` to a gauge (creating it at 0 if needed) and return the
  /// new value. The read-modify-write form in-flight/queue-depth gauges
  /// need; callers requiring thread safety must serialize externally
  /// (obs::svc::ServiceMetrics does).
  double add_gauge(const std::string& component, const std::string& name, double delta);

  /// Register a lazy probe, evaluated at snapshot time. Re-registering
  /// the same (component, name) replaces the callback.
  void add_probe(const std::string& component, const std::string& name, ProbeFn fn);

  /// Evaluate every probe once and freeze the result as a gauge,
  /// releasing the callbacks. Probes close over simulation objects, so
  /// this must run while the simulation is alive (RunObserver::finalize
  /// does) — afterwards the registry is safe to export on its own.
  void materialize_probes();

  /// Find-or-create a distribution.
  Distribution& distribution(const std::string& component, const std::string& name);

  [[nodiscard]] std::size_t component_count() const { return components_.size(); }

  /// Flatten every metric to "component.name" -> value. Distributions
  /// expand into .count/.mean/.p50/.p95/.p99/.min/.max entries (empty
  /// distributions only emit .count = 0).
  [[nodiscard]] std::map<std::string, double> flatten() const;

  /// One JSON object: {"component":{"name":value,...},...}.
  [[nodiscard]] std::string snapshot_json() const;

  /// Prometheus text exposition format. Each metric becomes a family
  /// named `<prefix>_<component>_<name>` (characters outside
  /// [a-zA-Z0-9_:] become '_'); a metric name may carry a rendered
  /// label set (`requests_total{verb="submit"}`, see
  /// svc::ServiceMetrics::with_labels) which is preserved on the sample
  /// line, so label variants of one family share a single `# TYPE`
  /// line. Counters expose as counter, gauges and probes as gauge, and
  /// distributions as summary (quantile 0.5/0.95/0.99 samples plus
  /// _sum/_count). Families emit in sorted order — the output is
  /// byte-stable for equal metric values, like snapshot_json().
  [[nodiscard]] std::string prometheus_text(const std::string& prefix = "adhocsim") const;

  /// Write the full metrics document: {"time_us":T,"metrics":{...}}
  /// Throws std::runtime_error on I/O failure.
  void write_json(const std::string& path, sim::Time now) const;

 private:
  struct Metric {
    enum class Kind { kCounter, kGauge, kProbe, kDistribution } kind;
    Counter counter;
    double gauge = 0.0;
    ProbeFn probe;
    Distribution dist;
  };

  Metric& get_or_create(const std::string& component, const std::string& name,
                        Metric::Kind kind);
  void flatten_metric(const std::string& key, const Metric& m,
                      std::map<std::string, double>& out) const;

  // node-based maps: references into the structure survive inserts.
  // Deliberately std::map, not unordered: snapshot_json/flatten iterate
  // these into artifacts that must be byte-stable across insertion
  // order and libstdc++ versions (enforced by the lint unordered-iter
  // rule and MetricsRegistry.SnapshotJsonIsByteStable* tests).
  std::map<std::string, std::map<std::string, std::unique_ptr<Metric>>> components_;
};

}  // namespace adhoc::obs
