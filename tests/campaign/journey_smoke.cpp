// Journey-recorder campaign smoke: the fig7 fault grid (none / jam /
// crash) at the journeys obs level on 4 workers vs sequential. Built
// and run everywhere; under -DSANITIZE=thread/address it races one
// recorder per run (span bookkeeping, ledger, per-flow fold) across
// the worker pool. Contracts checked per run: the conservation ledger
// balances, the crash point attributes drops to the powered-off radio,
// and the whole obs snapshot — journey ledger gauges, per-flow phase
// histograms and scheduler profile counts included — is bit-identical
// between jobs=1 and jobs=4.

#include <iostream>

#include "campaign/campaign.hpp"
#include "experiments/campaigns.hpp"
#include "experiments/experiments.hpp"

using namespace adhoc;

int main() {
  experiments::ExperimentConfig cfg;
  cfg.seeds = {1, 2};
  cfg.warmup = sim::Time::ms(50);
  // Long enough to cross the builtin fault windows (jam 3..5 s, crash
  // off at 3 s) so the fault buckets are actually exercised.
  cfg.measure = sim::Time::ms(3450);
  cfg.obs_level = obs::ObsLevel::kJourneys;

  const auto def = experiments::fig7_faults_campaign(cfg);
  const campaign::CampaignEngine sequential{{1, nullptr}};
  const campaign::CampaignEngine parallel{{4, nullptr}};
  const auto seq = sequential.run(def.plan, def.run);
  const auto par = parallel.run(def.plan, def.run);

  if (seq.runs.size() != 6 || seq.ok_count() != 6 || par.ok_count() != 6) {
    std::cerr << "journey_smoke: unexpected shape: " << seq.runs.size() << " runs, "
              << seq.ok_count() << "/" << par.ok_count() << " ok\n";
    return 1;
  }

  for (std::size_t i = 0; i < seq.runs.size(); ++i) {
    const auto& a = seq.runs[i].metrics;
    const auto& b = par.runs[i].metrics;
    if (a.metrics != b.metrics || a.events != b.events || a.obs != b.obs) {
      std::cerr << "journey_smoke: run " << i << " diverges between jobs=1 and jobs=4\n";
      return 1;
    }
    const auto get = [&](const char* key) {
      const auto it = a.obs.find(key);
      return it == a.obs.end() ? -1.0 : it->second;
    };
    if (get("journey.balanced") != 1.0) {
      std::cerr << "journey_smoke: run " << i << " ledger does not balance\n";
      return 1;
    }
    if (get("journey.minted") <= 0.0) {
      std::cerr << "journey_smoke: run " << i << " minted no journeys\n";
      return 1;
    }
    // Point 2 is the crash plan: node 1 powers off at 3 s, so drops
    // towards it must attribute to the radio, not the retry limit.
    if (seq.runs[i].spec.point_index == 2 && get("journey.dropped_radio_off") <= 0.0) {
      std::cerr << "journey_smoke: crash run " << i << " has no radio-off drops\n";
      return 1;
    }
  }

  std::cout << "journey_smoke: 6 runs x 2 engines, ledger balanced and bit-identical\n";
  return 0;
}
