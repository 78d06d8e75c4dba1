// Campaign-engine scalability: the same 16-run two-node grid executed at
// 1, 2 and hardware_concurrency workers. Reports wall time, speedup and
// events/sec, and verifies the determinism contract — per-run metrics
// and per-point aggregates must be bit-identical at every worker count.
//
// Expected on a 4-core host: >= 2x wall-clock speedup at 4 workers for
// this grid. On fewer cores the speedup degrades gracefully; the
// bit-identical check must hold everywhere.
//
// A second pass saturates the campaign-service result cache: one cold
// submit populates a fresh on-disk cache, then repeated warm submits
// must be served entirely from it with byte-identical payloads. The
// hit rates (exactly 0 cold, 1 warm) are fidelity cells; served
// requests/sec is perf-sidecar material.

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cache/result_cache.hpp"
#include "campaign/campaign.hpp"
#include "experiments/campaigns.hpp"
#include "experiments/experiments.hpp"
#include "obs/svc/telemetry.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "stats/table.hpp"

using namespace adhoc;

namespace {

experiments::ExperimentCampaign grid16(const experiments::ExperimentConfig& cfg) {
  // 4 points (rts × tcp) × the seed set = one run per (point, seed).
  auto def = experiments::fig2_campaign(cfg);
  def.plan.name = "scalability-16";
  return def;
}

bool identical(const campaign::CampaignResult& a, const campaign::CampaignResult& b) {
  if (a.runs.size() != b.runs.size()) return false;
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const auto& ra = a.runs[i];
    const auto& rb = b.runs[i];
    if (ra.ok != rb.ok || ra.metrics.events != rb.metrics.events) return false;
    if (ra.metrics.metrics != rb.metrics.metrics) return false;  // exact double ==
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_bench_options(argc, argv, {1, 2, 3, 4});
  const bench::WallTimer timer;

  experiments::ExperimentConfig cfg;
  cfg.seeds = opt.seeds;
  cfg.warmup = sim::Time::ms(500);
  cfg.measure = sim::Time::sec(4);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> job_counts{1, 2, 4};
  if (hw > 4) job_counts.push_back(hw);
  job_counts.erase(std::unique(job_counts.begin(), job_counts.end()), job_counts.end());

  std::cout << "=== Campaign engine scalability: 16-run grid, hardware_concurrency=" << hw
            << " ===\n\n";

  std::vector<campaign::CampaignResult> results;
  for (const unsigned jobs : job_counts) {
    const auto def = grid16(cfg);
    const campaign::CampaignEngine engine{{jobs, nullptr}};
    results.push_back(engine.run(def.plan, def.run));
  }

  const double base = results.front().wall_seconds;
  stats::Table t({"jobs", "wall (s)", "speedup", "M events/s", "bit-identical"});
  bool all_identical = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::uint64_t events = 0;
    for (const auto& run : r.runs) events += run.metrics.events;
    const bool same = identical(results.front(), r);
    all_identical = all_identical && same;
    t.add_row({std::to_string(r.jobs), stats::Table::fmt(r.wall_seconds, 2),
               stats::Table::fmt(base / r.wall_seconds, 2),
               stats::Table::fmt(static_cast<double>(events) / r.wall_seconds / 1e6, 2),
               same ? "yes" : "NO"});
  }
  std::cout << t.to_string();

  std::cout << "\nDeterminism contract (per-run metrics and event counts identical at\n"
               "every worker count): " << (all_identical ? "HOLDS" : "VIOLATED") << '\n';
  if (hw < 4) {
    std::cout << "note: only " << hw << " hardware thread(s) — speedup is expected to be\n"
                 "flat here; the >= 2x criterion applies on a 4-core host.\n";
  }
  if (!all_identical) return 1;

  // === Cache saturation pass ===============================================
  // Drive serve::CampaignService directly (socket-free): a cold fig2
  // submit on a fresh cache computes every run, then repeated warm
  // submits must be all hits with payloads and scorecard byte-identical
  // to the cold pass.
  namespace fs = std::filesystem;
  const fs::path cache_root = fs::temp_directory_path() / "bench_campaign_cache";
  fs::remove_all(cache_root);

  serve::SubmitRequest req;
  req.grid = "fig2";
  req.seeds = opt.seeds;
  req.seconds = 1.0;
  req.warmup_s = 0.2;

  constexpr std::size_t kWarmSubmits = 8;
  std::size_t cold_hits = 0, cold_total = 0, warm_hits = 0, warm_total = 0;
  bool warm_identical = true;
  double warm_wall_ms = 0.0;
  {
    cache::ResultCache cache{{cache_root.string(), "", 0, 0}};
    const serve::CampaignService service{{opt.jobs, &cache}};
    const auto cold = service.submit(req);
    cold_hits = cold.cache_hits;
    cold_total = cold.cache_hits + cold.cache_misses;

    const bench::WallTimer warm_timer;
    for (std::size_t i = 0; i < kWarmSubmits; ++i) {
      const auto warm = service.submit(req);
      warm_hits += warm.cache_hits;
      warm_total += warm.cache_hits + warm.cache_misses;
      warm_identical = warm_identical && warm.payloads == cold.payloads &&
                       warm.scorecard_json == cold.scorecard_json;
    }
    warm_wall_ms = warm_timer.elapsed_ms();
  }
  fs::remove_all(cache_root);

  // === Telemetry overhead pass =============================================
  // The same warm-serve loop with the full service-telemetry stack
  // attached — per-request phase tracing, counter/summary folds, and a
  // metrics exposition in both formats after every submit — prices the
  // observability layer against the plain loop above. Perf-sidecar
  // material only; the payloads must stay byte-identical.
  double telem_wall_ms = 0.0;
  bool telem_identical = true;
  {
    cache::ResultCache cache{{cache_root.string(), "", 0, 0}};
    obs::svc::ServiceTelemetry telemetry;
    telemetry.metrics.attach([&cache](obs::MetricsRegistry& reg) { cache.attach_metrics(reg); });
    serve::ServiceConfig scfg;
    scfg.jobs = opt.jobs;
    scfg.cache = &cache;
    scfg.metrics = &telemetry.metrics;
    const serve::CampaignService service{scfg};
    const auto cold = service.submit(req);
    const bench::WallTimer telem_timer;
    for (std::size_t i = 0; i < kWarmSubmits; ++i) {
      obs::svc::RequestTrace trace{telemetry.mint_request_id(), "submit"};
      const auto warm = service.submit(req, nullptr, &trace);
      telemetry.finish_request(trace);
      telem_identical = telem_identical && warm.payloads == cold.payloads;
      (void)telemetry.metrics.snapshot_json();
      (void)telemetry.metrics.prometheus_text();
    }
    telem_wall_ms = telem_timer.elapsed_ms();
  }
  fs::remove_all(cache_root);

  const double cold_rate =
      cold_total ? static_cast<double>(cold_hits) / static_cast<double>(cold_total) : 0.0;
  const double warm_rate =
      warm_total ? static_cast<double>(warm_hits) / static_cast<double>(warm_total) : 0.0;
  std::cout << "\n=== Result-cache saturation: fig2, " << cold_total << " runs/submit, "
            << kWarmSubmits << " warm submits ===\n"
            << "cold hit rate: " << cold_rate << "  warm hit rate: " << warm_rate
            << "  warm bytes identical to cold: " << (warm_identical ? "yes" : "NO") << '\n';
  std::cout << "telemetry-on warm pass: " << kWarmSubmits << " submits in " << telem_wall_ms
            << " ms, bytes identical: " << (telem_identical ? "yes" : "NO") << '\n';
  if (cold_hits != 0 || warm_hits != warm_total || !warm_identical || !telem_identical) {
    std::cout << "cache saturation contract VIOLATED\n";
    return 1;
  }

  // Scorecard: the jobs=1 grid aggregates are the fidelity record (they
  // are bit-identical at every worker count, as just verified); speedup,
  // per-worker wall times and served-request throughput are perf-sidecar
  // material. The cache hit rates are exact by construction, so they are
  // fidelity cells.
  report::Scorecard card{"campaign"};
  card.add_points(campaign::aggregate_by_point(results.front()), {{"kbps", "kbps"}});
  card.add_cell("determinism_contract_holds", 1.0);  // reaching here means it held
  card.add_cell("cache_cold_hit_rate", cold_rate);
  card.add_cell("cache_warm_hit_rate", warm_rate);
  card.add_cell("cache_warm_bytes_identical", 1.0);  // reaching here means they were
  for (const auto& r : results) card.add_campaign(r);
  card.set_perf("speedup_max_jobs", base / results.back().wall_seconds);
  if (warm_wall_ms > 0.0) {
    card.set_perf("served_requests_per_sec",
                  static_cast<double>(kWarmSubmits) / (warm_wall_ms / 1e3));
  }
  if (telem_wall_ms > 0.0) {
    card.set_perf("served_requests_per_sec_telemetry",
                  static_cast<double>(kWarmSubmits) / (telem_wall_ms / 1e3));
  }
  return bench::finish_bench(card, opt, timer);
}
