#pragma once
// Cache-aware campaign submission: the core of the serve daemon, kept
// socket-free so the hermetic tests and bench_campaign can drive it
// directly.
//
// submit() expands the named grid, derives one content-addressed
// cache::RunKey per run, partitions the expansion into cache hits
// (payload served verbatim) and misses (scheduled on a
// campaign::CampaignEngine via run_list, which also collapses
// duplicate specs before dispatch), stores every successful miss, and
// puts the result back in expansion order. Failed runs are never
// cached: a failure may come from the host (out of memory, say) rather
// than from the key, so the next submit recomputes it.
//
// Byte-identity contract: for a given key, out.payloads[i] is the same
// byte string whether run i was computed or served from the cache —
// the scorecard built from those records is therefore byte-identical
// warm vs cold, which serve_smoke asserts with tools/bench_check.py.

#include <cstddef>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "campaign/engine.hpp"
#include "obs/svc/request_trace.hpp"
#include "obs/svc/service_metrics.hpp"
#include "serve/protocol.hpp"

namespace adhoc::serve {

struct ServiceConfig {
  unsigned jobs = 0;  ///< engine workers; 0 = hardware concurrency
  /// Result cache; null disables memoization (every submit runs cold).
  /// Not owned. ResultCache is thread-safe, so one cache may back
  /// concurrent submits; identical concurrent misses may compute twice
  /// and store identical bytes (harmless, no cross-client
  /// single-flight).
  cache::ResultCache* cache = nullptr;
  /// Shared service metrics (component "serve": engine_* counters,
  /// queue_depth gauge, run_wall_ms summary, runs_served_total by
  /// source, trace-drop counters); null disables. Not owned.
  obs::svc::ServiceMetrics* metrics = nullptr;
};

/// Everything one submit produced, in expansion order.
struct SubmitOutcome {
  campaign::CampaignResult result;
  std::vector<std::string> payloads;  ///< record_json per run; cached bytes verbatim on hits
  std::vector<bool> cached;           ///< per-run provenance
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::string bench;            ///< scorecard name, "serve_<grid>"
  std::string scorecard_json;   ///< byte-stable fidelity document
};

/// Build the content-addressed key for one run of a request: scenario =
/// grid name, params = the resolved grid point, extras = every config
/// knob that changes results (warmup/measure windows in ns, obs level,
/// probe count, shadowing parameters), fault plan = the config
/// timeline's canonical text.
[[nodiscard]] cache::RunKey run_key(const SubmitRequest& req,
                                    const experiments::ExperimentConfig& cfg,
                                    const campaign::RunSpec& spec, const std::string& version);

class CampaignService {
 public:
  explicit CampaignService(ServiceConfig cfg) : cfg_(cfg) {
    // All-hit submits never touch the engine; create the gauge up
    // front so scrapes read 0 rather than finding no sample at all.
    // Same for the observability-loss counters, which only accrue on
    // lossy runs but should always expose a (possibly zero) sample.
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->set_gauge("serve", "queue_depth", 0.0);
      cfg_.metrics->inc("serve", "trace_dropped_total", 0);
      cfg_.metrics->inc("serve", "journey_dropped_total", 0);
    }
  }

  /// Execute one submit request. `telemetry` (optional) observes the
  /// miss sub-campaign only — cache hits emit no run telemetry. `trace`
  /// (optional) accrues per-phase wall time (cache_lookup, queue_wait,
  /// compute, serialize) for the request. Throws std::invalid_argument
  /// on an unknown grid or malformed request fields.
  [[nodiscard]] SubmitOutcome submit(const SubmitRequest& req,
                                     campaign::TelemetrySink* telemetry = nullptr,
                                     obs::svc::RequestTrace* trace = nullptr) const;

 private:
  ServiceConfig cfg_;
};

}  // namespace adhoc::serve
