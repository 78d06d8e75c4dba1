// Ablation studies on the design choices DESIGN.md calls out:
//  1. carrier-sense threshold (PCS range) -> four-station coupling,
//  2. control-frame rate (1 vs 2 Mbps) -> channel reservation radius,
//  3. ACK-requires-idle-medium (measured card behaviour) vs strict
//     standard ACKs -> the Figure 7 unfairness mechanism,
//  4. paper-calibrated PHY vs ns-2 defaults.
//
// Each ablation is a campaign (experiments/campaigns.hpp) executed on
// the parallel engine; the fig7-layout variants share one run function.

#include <iostream>

#include "bench_common.hpp"
#include "campaign/campaign.hpp"
#include "experiments/campaigns.hpp"
#include "experiments/experiments.hpp"
#include "phy/calibration.hpp"
#include "stats/fairness.hpp"
#include "stats/table.hpp"

using namespace adhoc;

namespace {

struct FourStationOutcome {
  double s1 = 0.0;
  double s2 = 0.0;
};

/// Run an ablation campaign, fold it into the scorecard (cells keyed
/// "<metric>/<point_id>", counters accumulated), and return per-point
/// (S1, S2) means in grid order.
std::vector<FourStationOutcome> run_points(const campaign::CampaignEngine& engine,
                                           const experiments::ExperimentCampaign& def,
                                           report::Scorecard& card) {
  const auto result = engine.run(def.plan, def.run);
  const auto points = campaign::aggregate_by_point(result);
  card.add_campaign(result);
  card.add_points(points, {{"s1_kbps", "kbps"}, {"s2_kbps", "kbps"}});
  std::vector<FourStationOutcome> out;
  out.reserve(points.size());
  for (const auto& p : points) {
    out.push_back({p.metrics.at("s1_kbps").mean(), p.metrics.at("s2_kbps").mean()});
  }
  return out;
}

std::string fmt_pair(const FourStationOutcome& o) {
  return stats::Table::fmt(o.s1, 0) + " / " + stats::Table::fmt(o.s2, 0);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_bench_options(argc, argv);
  const bench::WallTimer timer;

  experiments::ExperimentConfig cfg;
  cfg.seeds = opt.seeds;
  cfg.warmup = sim::Time::ms(500);
  cfg.measure = sim::Time::sec(4);

  const campaign::CampaignEngine engine{bench::engine_config(opt)};
  report::Scorecard card{"ablation"};

  std::cout << "=== Ablation 1: PCS range vs four-station coupling (fig7 layout, UDP) ===\n\n";
  {
    // Grid order matches the pcs_m axis: 60, 150, 250.
    const auto o = run_points(engine, experiments::ablation_pcs_campaign(cfg), card);
    stats::Table t({"PCS range (m)", "S1->S2 / S3->S4 (kbps)", "note"});
    t.add_row({"60", fmt_pair(o[0]), "sessions decoupled (no mutual CS)"});
    t.add_row({"150 (default)", fmt_pair(o[1]), "paper regime: coupled, asymmetric"});
    t.add_row({"250", fmt_pair(o[2]), "ns-2-like: one big collision domain"});
    std::cout << t.to_string() << '\n';
  }

  std::cout << "=== Ablation 2: control-frame rate (fig7 layout, UDP) ===\n\n";
  {
    const auto o = run_points(engine, experiments::ablation_control_rate_campaign(cfg), card);
    stats::Table t({"control rate", "S1->S2 / S3->S4 (kbps)"});
    t.add_row({"2 Mbps (default)", fmt_pair(o[0])});
    t.add_row({"1 Mbps", fmt_pair(o[1])});
    std::cout << t.to_string() << '\n';
  }

  std::cout << "=== Ablation 3: ACK policy (fig7 layout, UDP) ===\n\n";
  {
    const auto o = run_points(engine, experiments::ablation_ack_policy_campaign(cfg), card);
    stats::Table t({"ACK policy", "S1->S2 / S3->S4 (kbps)", "note"});
    t.add_row({"defer when busy (card)", fmt_pair(o[0]), "paper's observed behaviour"});
    t.add_row({"always at SIFS (standard)", fmt_pair(o[1]), "strict 802.11 responder"});
    std::cout << t.to_string() << '\n';
  }

  std::cout << "=== Ablation 4: paper-calibrated PHY vs ns-2 defaults (fig7 layout, UDP) ===\n\n";
  {
    // The paper's critique made concrete: with ns-2's TX_range=250 m /
    // PCS=550 m, all four stations decode everything — the topology that
    // produced the measured unfairness cannot even be expressed.
    const auto o = run_points(engine, experiments::ablation_phy_campaign(cfg), card);
    stats::Table t({"PHY calibration", "S1->S2 / S3->S4 (kbps)", "imbalance"});
    t.add_row({"paper Table 3 ranges", fmt_pair(o[0]),
               stats::Table::fmt(stats::imbalance(o[0].s1, o[0].s2), 2)});
    t.add_row({"ns-2 (250 m / 550 m)", fmt_pair(o[1]),
               stats::Table::fmt(stats::imbalance(o[1].s1, o[1].s2), 2)});
    std::cout << t.to_string() << '\n';
  }

  std::cout << "=== Interference range (paper Section 2 definition) ===\n\n";
  {
    stats::Table t({"rate", "SINR thr", "IF_range / link distance"});
    const auto p = phy::paper_calibrated_params(phy::default_outdoor_model());
    for (const phy::Rate r : phy::kAllRates) {
      const double f = phy::interference_range_factor(
          phy::default_outdoor_model().exponent(), p.sinr_threshold(r));
      t.add_row({std::string(phy::rate_name(r)),
                 stats::Table::fmt(p.sinr_threshold(r), 0) + " dB",
                 stats::Table::fmt(f, 2) + "x"});
      card.add_cell("if_range_factor/" + std::string(phy::rate_name(r)), f, std::nullopt, "x");
    }
    std::cout << t.to_string();
    std::cout << "\nIF_range grows linearly with the sender-receiver distance and\n"
                 "exceeds TX_range, as the paper's Section 2 describes.\n\n";
  }

  std::cout << "Reading: the Figure 7 asymmetry appears once the PCS range couples\n"
               "the two sessions (ablation 1: at 60 m both run near solo speed).\n"
               "Given coupling, the imbalance is carried by carrier-sense asymmetry\n"
               "and the EIFS penalty at the exposed receiver S2; the responder's ACK\n"
               "policy and the control rate are second-order here (ablations 2-3) —\n"
               "i.e. the paper's suppressed-ACK hypothesis is sufficient but not\n"
               "necessary to produce the unfairness it measured.\n";
  return bench::finish_bench(card, opt, timer);
}
