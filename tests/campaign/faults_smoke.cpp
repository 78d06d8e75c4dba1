// Fault-axis campaign smoke: the fig7 fault grid (none / jam / crash)
// on 4 workers, compared run-for-run against a sequential execution.
// Built and run everywhere; under -DSANITIZE=thread it additionally
// races the fault injectors (emitters, radio power toggles, per-run
// "faults" metric probes) across the worker pool. Any divergence
// between jobs=1 and jobs=4 — metrics, obs snapshots, event counts —
// breaks the determinism contract and fails the test.

#include <iostream>

#include "campaign/campaign.hpp"
#include "experiments/campaigns.hpp"
#include "experiments/experiments.hpp"

using namespace adhoc;

int main() {
  experiments::ExperimentConfig cfg;
  cfg.seeds = {1, 2};
  cfg.warmup = sim::Time::ms(50);
  cfg.measure = sim::Time::ms(250);
  cfg.obs_level = obs::ObsLevel::kMetrics;  // includes the "faults" component

  const auto def = experiments::fig7_faults_campaign(cfg);
  const campaign::CampaignEngine sequential{{1, nullptr}};
  const campaign::CampaignEngine parallel{{4, nullptr}};
  const auto seq = sequential.run(def.plan, def.run);
  const auto par = parallel.run(def.plan, def.run);

  if (seq.runs.size() != 6 || par.runs.size() != 6 || seq.ok_count() != 6 ||
      par.ok_count() != 6) {
    std::cerr << "faults_smoke: unexpected shape: " << seq.runs.size() << "/" << par.runs.size()
              << " runs, " << seq.ok_count() << "/" << par.ok_count() << " ok\n";
    return 1;
  }

  for (std::size_t i = 0; i < seq.runs.size(); ++i) {
    const auto& a = seq.runs[i].metrics;
    const auto& b = par.runs[i].metrics;
    if (a.metrics != b.metrics || a.events != b.events || a.obs != b.obs) {
      std::cerr << "faults_smoke: run " << i << " diverges between jobs=1 and jobs=4\n";
      return 1;
    }
  }

  // Fault points 1 (jam) and 2 (crash) must install an injector and
  // publish the "faults" metrics component; the no-fault point installs
  // nothing at all (that is the bit-identity guarantee).
  for (const auto& r : seq.runs) {
    const auto it = r.metrics.obs.find("faults.events_scheduled");
    if (r.spec.point_index == 0) {
      if (it != r.metrics.obs.end()) {
        std::cerr << "faults_smoke: no-fault point unexpectedly installed an injector\n";
        return 1;
      }
    } else if (it == r.metrics.obs.end() || it->second <= 0.0) {
      std::cerr << "faults_smoke: point " << r.spec.point_index
                << " missing scheduled fault events\n";
      return 1;
    }
  }

  const auto agg_a = campaign::aggregate_by_point(seq);
  if (agg_a.size() != 3) {
    std::cerr << "faults_smoke: expected 3 grid points, got " << agg_a.size() << '\n';
    return 1;
  }
  const auto agg_b = campaign::aggregate_by_point(par);
  for (std::size_t p = 0; p < agg_a.size(); ++p) {
    for (const auto& [name, summary] : agg_a[p].metrics) {
      const auto it = agg_b[p].metrics.find(name);
      if (it == agg_b[p].metrics.end() || it->second.mean() != summary.mean()) {
        std::cerr << "faults_smoke: aggregate '" << name << "' diverges at point " << p << '\n';
        return 1;
      }
    }
  }

  std::cout << "faults_smoke: 6 runs x 2 engines bit-identical across the fault axis\n";
  return 0;
}
