#pragma once
// Per-run and per-campaign result records shared by the engine, the
// telemetry sinks and the aggregation layer.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/grid.hpp"

namespace adhoc::campaign {

/// What a run function returns on success: named scalar metrics plus the
/// number of simulation events executed (for throughput telemetry).
/// std::map keeps metric iteration order deterministic.
struct RunMetrics {
  std::map<std::string, double> metrics;
  std::uint64_t events = 0;
  /// Flattened per-run observability snapshot ("mac.sta0.tx_data": v),
  /// present when the run was executed with an obs::RunObserver. Holds
  /// no host wall time (see obs::RunObserver::outcome_snapshot); trace
  /// ring losses ride it as "trace.dropped".
  std::map<std::string, double> obs;
};

/// Outcome of one RunSpec: success with metrics, or the message of the
/// exception that failed it.
struct RunRecord {
  RunSpec spec;
  bool ok = false;
  RunMetrics metrics;  // valid when ok
  std::string error;   // valid when !ok
  double wall_seconds = 0.0;
};

/// Outcome of a whole campaign. `runs` is in expansion order (run_index),
/// independent of worker count.
struct CampaignResult {
  std::string name;
  std::vector<RunRecord> runs;
  unsigned jobs = 1;
  double wall_seconds = 0.0;
  /// Runs that were collapsed onto an identical (params, seed) sibling
  /// instead of executing (see CampaignEngine dedupe). Their records are
  /// copies of the representative's, under their own run/point indices.
  std::size_t deduped = 0;

  [[nodiscard]] std::size_t ok_count() const {
    std::size_t n = 0;
    for (const RunRecord& r : runs) n += r.ok ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::size_t error_count() const { return runs.size() - ok_count(); }

  /// Total simulation events executed across successful runs —
  /// deterministic for a given plan+seed set, unlike wall_seconds.
  [[nodiscard]] std::uint64_t events_total() const {
    std::uint64_t n = 0;
    for (const RunRecord& r : runs) {
      if (r.ok) n += r.metrics.events;
    }
    return n;
  }
};

}  // namespace adhoc::campaign
