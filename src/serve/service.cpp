#include "serve/service.hpp"

#include <cstdint>
#include <utility>

#include "cache/code_version.hpp"
#include "campaign/aggregate.hpp"
#include "experiments/campaigns.hpp"
#include "report/scorecard.hpp"

namespace adhoc::serve {

namespace {

/// Telemetry tee: forwards engine lifecycle events to the client-facing
/// sink while folding them into the shared service metrics —
/// queue_depth tracks scheduled-but-unfinished runs, run_end feeds the
/// engine counters and the run_wall_ms summary. Sinks must be
/// thread-safe; ServiceMetrics is, and `inner` (JsonlSink) serialises
/// internally.
class MetricsTee final : public campaign::TelemetrySink {
 public:
  MetricsTee(campaign::TelemetrySink* inner, obs::svc::ServiceMetrics* metrics)
      : inner_{inner}, metrics_{metrics} {}

  void campaign_start(const std::string& name, std::size_t runs, std::size_t points,
                      std::size_t seeds, unsigned jobs) override {
    if (metrics_ != nullptr) {
      metrics_->add_gauge("serve", "queue_depth", static_cast<double>(runs));
    }
    if (inner_ != nullptr) inner_->campaign_start(name, runs, points, seeds, jobs);
  }

  void run_start(const campaign::RunSpec& spec) override {
    if (inner_ != nullptr) inner_->run_start(spec);
  }

  void run_end(const campaign::RunRecord& record) override {
    if (metrics_ != nullptr) {
      metrics_->add_gauge("serve", "queue_depth", -1.0);
      metrics_->inc("serve", "engine_runs_total");
      if (!record.ok) metrics_->inc("serve", "engine_runs_failed_total");
      metrics_->observe("serve", "run_wall_ms", record.wall_seconds * 1e3);
    }
    if (inner_ != nullptr) inner_->run_end(record);
  }

  void campaign_end(const campaign::CampaignResult& result) override {
    if (metrics_ != nullptr) {
      // Deduped runs never reach run_end; retire their queue slots here.
      if (result.deduped > 0) {
        metrics_->add_gauge("serve", "queue_depth", -static_cast<double>(result.deduped));
        metrics_->inc("serve", "engine_deduped_total", result.deduped);
      }
    }
    if (inner_ != nullptr) inner_->campaign_end(result);
  }

 private:
  campaign::TelemetrySink* inner_;
  obs::svc::ServiceMetrics* metrics_;
};

}  // namespace

cache::RunKey run_key(const SubmitRequest& req, const experiments::ExperimentConfig& cfg,
                      const campaign::RunSpec& spec, const std::string& version) {
  cache::RunKey key;
  key.scenario = req.grid;
  key.params = spec.params;
  key.seed = spec.seed;
  // Every knob that reaches the run function. Some (probes, shadowing)
  // only affect a subset of grids; including them for all grids trades
  // a little hit rate for soundness that needs no per-grid knowledge.
  key.extras = std::vector<std::pair<std::string, double>>{
      {"measure_ns", static_cast<double>(cfg.measure.count_ns())},
      {"obs", static_cast<double>(static_cast<int>(cfg.obs_level))},
      {"probes", static_cast<double>(req.probes)},
      {"shadow_corr_ns", static_cast<double>(cfg.shadowing.correlation_time.count_ns())},
      {"shadow_offset_db", cfg.shadowing.day_offset_db},
      {"shadow_sigma_db", cfg.shadowing.sigma_db},
      {"warmup_ns", static_cast<double>(cfg.warmup.count_ns())},
  };
  key.fault_plan = cfg.faults.canonical_text();
  key.code_version = version;
  return key;
}

SubmitOutcome CampaignService::submit(const SubmitRequest& req,
                                      campaign::TelemetrySink* telemetry,
                                      obs::svc::RequestTrace* trace) const {
  using obs::svc::Phase;
  using obs::svc::PhaseScope;

  const auto cfg = req.to_config();
  const auto def = experiments::campaign_by_name(req.grid, cfg, req.probes);
  const auto specs = def.plan.expand();
  const std::string& version =
      cfg_.cache != nullptr ? cfg_.cache->version() : cache::code_version();

  SubmitOutcome out;
  out.bench = "serve_" + req.grid;
  out.result.name = def.plan.name;
  out.result.runs.resize(specs.size());
  out.result.jobs = 1;
  out.payloads.resize(specs.size());
  out.cached.assign(specs.size(), false);

  std::vector<cache::RunKey> keys;
  keys.reserve(specs.size());
  std::vector<std::size_t> miss_indices;
  std::vector<campaign::RunSpec> miss_specs;
  {
    const PhaseScope lookup_scope{trace, Phase::kCacheLookup};
    for (std::size_t i = 0; i < specs.size(); ++i) {
      keys.push_back(run_key(req, cfg, specs[i], version));
      auto payload = cfg_.cache != nullptr ? cfg_.cache->lookup(keys[i]) : std::nullopt;
      if (payload.has_value()) {
        out.result.runs[i] = parse_record_json(*payload);
        out.result.runs[i].spec = specs[i];
        out.payloads[i] = *std::move(payload);
        out.cached[i] = true;
        ++out.cache_hits;
      } else {
        miss_indices.push_back(i);
        miss_specs.push_back(specs[i]);
        ++out.cache_misses;
      }
    }
  }

  // queue_wait: from cache partitioning until the engine takes over.
  // Negligible today (the engine starts immediately) but the phase
  // keeps its histogram slot so admission queues can appear later
  // without a schema change.
  if (trace != nullptr) trace->start(Phase::kQueueWait);
  {
    MetricsTee tee{telemetry, cfg_.metrics};
    if (trace != nullptr) {
      trace->stop(Phase::kQueueWait);
      // compute is timed even for all-hit submits: histogram count per
      // phase then equals the submit count, which the hammer test pins.
      trace->start(Phase::kCompute);
    }
    if (!miss_specs.empty()) {
      campaign::EngineConfig ec;
      ec.jobs = cfg_.jobs;
      ec.telemetry = &tee;
      const campaign::CampaignEngine engine{ec};
      auto missed = engine.run_list(def.plan.name, std::move(miss_specs), def.run);
      if (trace != nullptr) trace->stop(Phase::kCompute);
      const PhaseScope serialize_scope{trace, Phase::kSerialize};
      for (std::size_t j = 0; j < miss_indices.size(); ++j) {
        const std::size_t i = miss_indices[j];
        out.payloads[i] = record_json(missed.runs[j]);
        if (cfg_.cache != nullptr && missed.runs[j].ok) {
          cfg_.cache->store(keys[i], out.payloads[i]);
        }
        out.result.runs[i] = std::move(missed.runs[j]);
      }
      out.result.jobs = missed.jobs;
      out.result.deduped = missed.deduped;
      out.result.wall_seconds = missed.wall_seconds;
    } else if (trace != nullptr) {
      trace->stop(Phase::kCompute);
    }
  }

  const PhaseScope serialize_scope{trace, Phase::kSerialize};
  report::Scorecard card{out.bench};
  card.set_seeds(req.seeds);
  card.add_points(campaign::aggregate_by_point(out.result));
  card.add_campaign(out.result);
  out.scorecard_json = card.to_json();

  if (cfg_.metrics != nullptr) {
    if (out.cache_hits > 0) {
      cfg_.metrics->inc("serve", "runs_served_total", out.cache_hits, {{"source", "cache"}});
    }
    if (out.cache_misses > 0) {
      cfg_.metrics->inc("serve", "runs_served_total", out.cache_misses, {{"source", "engine"}});
    }
    // Observability-loss counters, summed from each run's obs snapshot:
    // TraceSink ring drops ("trace.dropped") and journey-record ring
    // overwrites ("journey.journey_dropped").
    const auto obs_total = [&](const std::string& key) {
      std::uint64_t n = 0;
      for (const auto& record : out.result.runs) {
        if (const auto it = record.metrics.obs.find(key); it != record.metrics.obs.end()) {
          n += static_cast<std::uint64_t>(it->second);
        }
      }
      return n;
    };
    const std::uint64_t trace_dropped = obs_total("trace.dropped");
    const std::uint64_t journey_dropped = obs_total("journey.journey_dropped");
    if (trace_dropped > 0) {
      cfg_.metrics->inc("serve", "trace_dropped_total", trace_dropped);
    }
    if (journey_dropped > 0) {
      cfg_.metrics->inc("serve", "journey_dropped_total", journey_dropped);
    }
  }
  return out;
}

}  // namespace adhoc::serve
