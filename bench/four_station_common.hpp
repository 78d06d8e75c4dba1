#pragma once
// Shared driver for the four-station reproduction benches
// (Figures 7, 9, 11, 12): runs the rts × tcp grid on the parallel
// campaign engine, prints per-session throughputs in the paper's
// layout, and emits the BENCH_<figure>.json scorecard.

#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "campaign/campaign.hpp"
#include "experiments/campaigns.hpp"
#include "experiments/experiments.hpp"
#include "stats/csv.hpp"
#include "stats/fairness.hpp"
#include "stats/table.hpp"

namespace adhoc::benchfs {

/// The aggregate for the (rts, tcp) grid point, or nullptr.
inline const campaign::PointAggregate* find_point(
    const std::vector<campaign::PointAggregate>& points, bool rts, bool tcp) {
  for (const auto& p : points) {
    bool match = true;
    for (const auto& [name, value] : p.params) {
      // Flag axes carry exactly 0.0 / 1.0 (campaign::RunSpec::flag).
      if (name == "rts" && (value != 0.0) != rts) match = false;  // NOLINT-ADHOC(fp-compare)
      if (name == "tcp" && (value != 0.0) != tcp) match = false;  // NOLINT-ADHOC(fp-compare)
    }
    if (match) return &p;
  }
  return nullptr;
}

inline int run_four_station_bench(int argc, char** argv, const std::string& figure,
                                  const std::string& layout, const std::string& session2_label,
                                  const experiments::FourStationSpec& base,
                                  const std::string& shape_note) {
  const auto opt = bench::parse_bench_options(argc, argv);
  const bench::WallTimer timer;

  experiments::ExperimentConfig cfg;
  cfg.seeds = opt.seeds;
  cfg.warmup = sim::Time::ms(500);
  cfg.measure = sim::Time::sec(6);

  const campaign::CampaignEngine engine{bench::engine_config(opt)};
  const auto def = experiments::four_station_campaign(base, cfg);
  const auto result = engine.run(def.plan, def.run);
  const auto points = campaign::aggregate_by_point(result);

  std::cout << "=== " << figure << ": " << layout << " ===\n\n";
  stats::Table table({"traffic", "access", "S1->S2 (kbps)", session2_label + " (kbps)",
                      "imbalance"});
  stats::CsvWriter csv{figure + ".csv"};
  csv.header({"tcp", "rts", "session1_kbps", "session2_kbps"});

  for (const bool tcp : {false, true}) {
    for (const bool rts : {false, true}) {
      const campaign::PointAggregate* p = find_point(points, rts, tcp);
      if (p == nullptr) continue;
      const auto& sum1 = p->metrics.at("s1_kbps");
      const auto& sum2 = p->metrics.at("s2_kbps");
      const double s1 = sum1.mean();
      const double s2 = sum2.mean();
      const double imb = stats::imbalance(s1, s2);
      table.add_row({tcp ? "TCP" : "UDP", rts ? "RTS/CTS" : "no RTS/CTS",
                     stats::Table::fmt(s1, 0) + " +-" +
                         stats::Table::fmt(sum1.ci95_halfwidth(), 0),
                     stats::Table::fmt(s2, 0) + " +-" +
                         stats::Table::fmt(sum2.ci95_halfwidth(), 0),
                     stats::Table::fmt(imb, 2)});
      csv.numeric_row({tcp ? 1.0 : 0.0, rts ? 1.0 : 0.0, s1, s2});
    }
  }
  std::cout << table.to_string();
  std::cout << '\n' << shape_note << '\n';
  std::cout << "(series written to " << figure << ".csv)\n";

  report::Scorecard card{figure};
  card.add_points(points, {{"s1_kbps", "kbps"}, {"s2_kbps", "kbps"}});
  card.add_campaign(result);
  return bench::finish_bench(card, opt, timer);
}

}  // namespace adhoc::benchfs
