// Large-N MANET scalability: the manet_sweep grid (stations × mobility ×
// rts, CBR over AODV at constant station density) at bench length.
//
// Fidelity cells are the traffic outcomes — aggregate goodput (kbps),
// in-window delivery ratio and mean end-to-end delay per grid point —
// which are deterministic per seed. The spatial-index evidence rides the
// perf sidecar: per-point culled fraction (deliveries the medium never
// scheduled because the receiver sat beyond the carrier-sense cutoff)
// and events/sec. Expected shape: culled_frac ~ 0 at N <= 25 (the field
// fits inside one carrier-sense disc) and grows with N at fixed density,
// the per-transmission O(neighbors) scaling the uniform grid buys.

#include <iostream>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "campaign/aggregate.hpp"
#include "campaign/engine.hpp"
#include "experiments/campaigns.hpp"
#include "stats/table.hpp"

using namespace adhoc;

int main(int argc, char** argv) {
  const auto opt = bench::parse_bench_options(argc, argv);
  const bench::WallTimer timer;

  experiments::ExperimentConfig cfg;
  cfg.seeds = opt.seeds;
  cfg.warmup = sim::Time::ms(500);
  cfg.measure = sim::Time::sec(2);

  const auto def = experiments::manet_sweep_campaign({5, 25, 100, 200}, cfg);
  const campaign::CampaignEngine engine{bench::engine_config(opt)};
  const auto result = engine.run(def.plan, def.run);
  auto points = campaign::aggregate_by_point(result);

  std::cout << "=== manet_sweep: " << result.runs.size() << " runs ("
            << result.error_count() << " failed), stations x mobility x rts ===\n\n";
  stats::Table t({"stations", "mobility", "rts", "kbps", "delivery", "delay (ms)", "culled"});
  for (const auto& p : points) {
    std::vector<std::string> row;
    for (const auto& [name, value] : p.params) row.push_back(stats::Table::fmt(value, 0));
    for (const char* m : {"kbps", "delivery", "delay_ms", "culled_frac"}) {
      const auto it = p.metrics.find(m);
      row.push_back(it == p.metrics.end() ? "-" : stats::Table::fmt(it->second.mean()));
    }
    t.add_row(std::move(row));
  }
  std::cout << t.to_string() << '\n';
  if (result.error_count() != 0) {
    for (const auto& r : result.runs) {
      if (!r.ok) std::cout << "run " << r.spec.run_index << " failed: " << r.error << '\n';
    }
    return 1;
  }

  report::Scorecard card{"manet"};
  // Culled fraction is index-tuning dependent (cutoff margins, slack) —
  // perf-sidecar material, so retuning the grid never trips the
  // byte-stable fidelity baseline. Traffic outcomes are the fidelity.
  for (auto& p : points) {
    const auto it = p.metrics.find("culled_frac");
    if (it != p.metrics.end()) {
      card.set_perf("culled_frac/" + campaign::point_id(p.params), it->second.mean());
      p.metrics.erase(it);
    }
  }
  card.add_points(points, {{"kbps", "kbps"}, {"delay_ms", "ms"}});
  card.add_campaign(result);
  return bench::finish_bench(card, opt, timer);
}
