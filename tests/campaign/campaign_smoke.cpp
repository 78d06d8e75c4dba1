// Small 4-thread campaign used as a ctest smoke test. Built and run in
// every configuration; its real job is under -DSANITIZE=thread, where it
// puts the worker pool, the shared cursor, the JSONL sink and the
// per-run observability plumbing under ThreadSanitizer to guard against
// data races.

#include <iostream>
#include <sstream>
#include <stdexcept>

#include "campaign/campaign.hpp"
#include "experiments/campaigns.hpp"
#include "experiments/experiments.hpp"

using namespace adhoc;

int main() {
  experiments::ExperimentConfig cfg;
  cfg.seeds = {1, 2};
  cfg.warmup = sim::Time::ms(50);
  cfg.measure = sim::Time::ms(200);
  // Per-run observers on every worker: registry probes, trace sinks and
  // scheduler profilers all race-tested alongside the engine itself.
  cfg.obs_level = obs::ObsLevel::kFull;

  std::ostringstream telemetry;
  campaign::JsonlSink sink{telemetry};
  const campaign::CampaignEngine engine{{4, &sink}};

  // Real simulations on all workers, plus one induced failure to cover
  // the error path concurrently with successful runs. The hostile
  // message exercises the shared JSON escaper under concurrency too.
  auto def = experiments::fig2_campaign(cfg);
  const campaign::RunFn run = [&def](const campaign::RunSpec& spec) {
    if (spec.run_index == 3) throw std::runtime_error("induced \"failure\"\n\b");
    return def.run(spec);
  };
  const auto result = engine.run(def.plan, run);

  if (result.runs.size() != 8 || result.ok_count() != 7 || result.error_count() != 1) {
    std::cerr << "campaign_smoke: unexpected result shape: " << result.runs.size() << " runs, "
              << result.ok_count() << " ok\n";
    return 1;
  }
  if (telemetry.str().find("campaign_end") == std::string::npos) {
    std::cerr << "campaign_smoke: telemetry missing campaign_end\n";
    return 1;
  }
  // Observability payloads must ride the successful run_end records
  // (trace ring losses as an obs key), with the hostile error message
  // escaped onto a single line.
  const auto obs_at = telemetry.str().find("\"obs\":{");
  if (obs_at == std::string::npos ||
      telemetry.str().find("\"trace.dropped\":", obs_at) == std::string::npos) {
    std::cerr << "campaign_smoke: telemetry missing obs snapshot\n";
    return 1;
  }
  if (telemetry.str().find(R"(induced \"failure\"\n\b)") == std::string::npos) {
    std::cerr << "campaign_smoke: hostile error message not escaped\n";
    return 1;
  }
  std::cout << "campaign_smoke: 8 runs on 4 workers, 1 isolated failure, obs ok\n";
  return 0;
}
