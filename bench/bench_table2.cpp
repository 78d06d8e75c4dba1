// Reproduces Table 2: analytical maximum throughput at each data rate,
// with and without RTS/CTS, m = 512 and 1024 bytes.
//
// Prints the paper's published value next to this library's equations
// under both assumption presets (see analysis/throughput_model.hpp).
//
// With --journeys, additionally runs one short saturated two-node
// simulation per Table 2 configuration at the journeys obs level and
// folds the measured per-phase delay means (buffer/queue/contend/
// airtime/retry, microseconds) into a delay_breakdown scorecard
// section — "where does the delay go" for each analytical cell. Opt-in:
// without the flag the document is byte-identical to the baseline.

#include <iostream>
#include <map>
#include <string>

#include "analysis/throughput_model.hpp"
#include "bench_common.hpp"
#include "experiments/experiments.hpp"
#include "obs/observer.hpp"
#include "stats/csv.hpp"
#include "stats/table.hpp"

using namespace adhoc;

namespace {

/// Measured journey phase means for one Table 2 configuration, from a
/// short saturated two-node run (seed pinned: the breakdown lands in
/// the byte-stable fidelity file).
std::map<std::string, double> measure_delay_breakdown(const analysis::Table2Cell& cell) {
  experiments::TwoNodeSpec spec;
  spec.rate = cell.rate;
  spec.rts = cell.rts;
  spec.payload_bytes = cell.m_bytes;
  experiments::ExperimentConfig cfg;
  cfg.warmup = sim::Time::ms(200);
  cfg.measure = sim::Time::sec(1);
  obs::RunObserver observer{obs::ObsLevel::kJourneys};
  (void)experiments::two_node_run(spec, cfg, /*seed=*/1, &observer);
  const auto flat = observer.registry()->flatten();
  std::map<std::string, double> phases;
  for (const char* phase :
       {"e2e_us", "buffer_us", "queue_us", "contend_us", "airtime_us", "retry_us"}) {
    const auto it = flat.find(std::string("journey.udp.0to1.") + phase + ".mean");
    if (it != flat.end()) phases[phase] = it->second;
  }
  return phases;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_bench_options(argc, argv);
  const tools::CliArgs args{argc, argv};
  const bool journeys = args.has("journeys");
  const bench::WallTimer timer;

  const analysis::ThroughputModel standard{analysis::Assumptions::standard()};
  const analysis::ThroughputModel fitted{analysis::Assumptions::paper_fit()};
  report::Scorecard card{"table2"};

  std::cout << "=== Table 2: maximum throughput (Mbps) at different data rates ===\n\n";
  stats::Table table({"rate", "m (B)", "access", "paper", "model(std)", "model(fit)",
                      "fit err %"});
  stats::CsvWriter csv{"table2.csv"};
  csv.header({"rate_mbps", "m_bytes", "rts", "paper_mbps", "standard_mbps", "fit_mbps"});

  for (const auto& cell : analysis::paper_table2()) {
    const double std_v = cell.rts ? standard.max_throughput_rts_mbps(cell.m_bytes, cell.rate)
                                  : standard.max_throughput_basic_mbps(cell.m_bytes, cell.rate);
    const double fit_v = cell.rts ? fitted.max_throughput_rts_mbps(cell.m_bytes, cell.rate)
                                  : fitted.max_throughput_basic_mbps(cell.m_bytes, cell.rate);
    const double err = (fit_v / cell.paper_mbps - 1.0) * 100.0;
    table.add_row({std::string(phy::rate_name(cell.rate)), std::to_string(cell.m_bytes),
                   cell.rts ? "RTS/CTS" : "basic", stats::Table::fmt(cell.paper_mbps),
                   stats::Table::fmt(std_v), stats::Table::fmt(fit_v),
                   stats::Table::fmt(err, 1)});
    csv.numeric_row({phy::rate_mbps(cell.rate), static_cast<double>(cell.m_bytes),
                     cell.rts ? 1.0 : 0.0, cell.paper_mbps, std_v, fit_v});
    // Cell ids key the baseline diff: renaming one reads as a missing cell.
    const std::string id = std::string(phy::rate_name(cell.rate)) + "/" +
                           std::to_string(cell.m_bytes) + "B/" + (cell.rts ? "rts" : "basic");
    card.add_cell(id, fit_v, cell.paper_mbps, "Mbps");
    if (journeys) card.add_delay_breakdown(id, measure_delay_breakdown(cell));
  }
  std::cout << table.to_string();

  const double util_pct =
      standard.max_throughput_basic_mbps(1024, phy::Rate::kR11) / 11.0 * 100.0;
  card.add_cell("utilization_11mbps_1024B", util_pct, std::nullopt, "%");
  std::cout << "\nBandwidth utilization at 11 Mbps, m=1024 (paper: < 44%): "
            << stats::Table::fmt(util_pct, 1) << "%\n";
  std::cout << "\n(series written to table2.csv)\n";
  return bench::finish_bench(card, opt, timer);
}
