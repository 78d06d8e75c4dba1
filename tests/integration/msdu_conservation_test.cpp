// MAC MSDU conservation over real runs. Only Dcf::finish_current pops
// the transmit queue, and it counts the MSDU either as a success or as
// a retry-limit drop, so at the end of any run every station must
// satisfy
//
//   msdu_enqueued == tx_success + tx_retry_drops + queue_length().
//
// The runs below rebuild each experiment's network here (the experiment
// functions keep their networks private) and first prove they are the
// same simulation: equal scheduler event counts against the experiment
// function itself. Covered: all four fig7 points, the `faults` grid
// points (node_off included) and a short 50-station MANET run.

#include <gtest/gtest.h>

#include <string>

#include "campaign/grid.hpp"
#include "experiments/campaigns.hpp"
#include "experiments/experiments.hpp"
#include "experiments/manet.hpp"
#include "scenario/manet.hpp"
#include "scenario/network.hpp"

namespace adhoc {
namespace {

struct Balance {
  std::uint64_t enqueued = 0;
  std::uint64_t retry_drops = 0;
  std::uint64_t queued = 0;
};

/// Asserts conservation on every station; returns the network totals.
Balance expect_conserved(scenario::Network& net, const std::string& what) {
  Balance total;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const mac::Dcf& dcf = net.node(i).dcf();
    const mac::MacCounters& c = dcf.counters();
    EXPECT_EQ(c.msdu_enqueued, c.tx_success + c.tx_retry_drops + dcf.queue_length())
        << what << ", station " << i << ": " << c;
    total.enqueued += c.msdu_enqueued;
    total.retry_drops += c.tx_retry_drops;
    total.queued += dcf.queue_length();
  }
  return total;
}

experiments::ExperimentConfig short_config() {
  experiments::ExperimentConfig cfg;
  cfg.seeds = {1};
  cfg.warmup = sim::Time::ms(500);
  cfg.measure = sim::Time::sec(2);
  return cfg;
}

/// four_station_run's network, rebuilt so its DCFs stay reachable. The
/// run must execute `expected_events`, the count of the run it rebuilds.
Balance fig7_balance(const experiments::FourStationSpec& spec,
                     const experiments::ExperimentConfig& cfg, std::uint64_t seed,
                     std::uint64_t expected_events, const std::string& what) {
  sim::Simulator sim{seed};
  scenario::NetworkConfig nc;
  nc.mac = experiments::mac_params_for(spec.rate, spec.rts);
  nc.shadowing = cfg.shadowing;
  scenario::Network net{sim, nc};
  net.add_node({0.0, 0.0});
  net.add_node({spec.d12_m, 0.0});
  net.add_node({spec.d12_m + spec.d23_m, 0.0});
  net.add_node({spec.d12_m + spec.d23_m + spec.d34_m, 0.0});
  if (!cfg.faults.empty()) net.install_faults(cfg.faults);
  scenario::RunConfig rc;
  rc.warmup = cfg.warmup;
  rc.measure = cfg.measure;
  rc.payload_bytes = spec.payload_bytes;
  (void)scenario::run_sessions(net, {{0, 1, spec.transport}, {2, 3, spec.transport}}, rc);
  EXPECT_EQ(sim.scheduler().total_executed(), expected_events)
      << what << ": the rebuilt network is not the experiment's run";
  return expect_conserved(net, what);
}

TEST(MsduConservation, AllFourFig7Points) {
  const auto cfg = short_config();
  for (const bool rts : {false, true}) {
    for (const auto transport : {scenario::Transport::kUdp, scenario::Transport::kTcp}) {
      const std::string what = std::string("fig7 rts=") + (rts ? "1" : "0") +
                               (transport == scenario::Transport::kTcp ? " tcp" : " udp");
      const auto spec = experiments::fig7_spec(rts, transport);
      const Balance b = fig7_balance(spec, cfg, 1,
                                     experiments::four_station_run(spec, cfg, 1).events, what);
      EXPECT_GT(b.enqueued, 1000u) << what;
      // Saturated senders end the run with MSDUs still queued, so the
      // queue term of the balance is exercised.
      EXPECT_GT(b.queued, 0u) << what;
    }
  }
}

TEST(MsduConservation, FaultsGridPoints) {
  const auto base = short_config();
  const double t0 = base.warmup.to_sec();
  const double span = base.measure.to_sec();
  const auto spec = experiments::fig7_spec(false, scenario::Transport::kUdp);
  const experiments::ExperimentCampaign faults = experiments::fig7_faults_campaign(base);
  for (const int fault : {0, 1, 2}) {
    // The same timeline fig7_faults_campaign builds for this point.
    experiments::ExperimentConfig cfg = base;
    if (fault == 1) {
      cfg.faults.jam(sim::Time::from_sec(t0 + 0.25 * span), sim::Time::from_sec(0.25 * span),
                     {66.25, 20.0}, 15.0);
    } else if (fault == 2) {
      cfg.faults.node_off(2, sim::Time::from_sec(t0 + 0.25 * span));
      cfg.faults.node_on(2, sim::Time::from_sec(t0 + 0.65 * span));
    }
    const std::string what = "faults fault=" + std::to_string(fault);
    campaign::RunSpec run;
    run.seed = 1;
    run.params = {{"fault", static_cast<double>(fault)}};
    const Balance b = fig7_balance(spec, cfg, run.seed, faults.run(run).events, what);
    EXPECT_GT(b.enqueued, 1000u) << what;
  }
}

TEST(MsduConservation, ShortManet50Run) {
  experiments::ExperimentConfig cfg;
  cfg.warmup = sim::Time::sec(1);
  cfg.measure = sim::Time::sec(2);
  const experiments::ManetRunSpec spec;  // 50 stations, 2 Mbps, waypoint mobility
  ASSERT_EQ(spec.manet.stations, 50u);
  constexpr std::uint64_t kSeed = 1;

  sim::Simulator sim{kSeed};
  scenario::NetworkConfig nc;
  nc.mac = experiments::mac_params_for(spec.rate, spec.rts);
  scenario::Network net{sim, nc};
  scenario::ManetScenario manet{net, spec.manet};
  manet.start(cfg.warmup, cfg.warmup + cfg.measure);
  sim.run_until(cfg.warmup + cfg.measure + sim::Time::ms(250));  // manet_run's drain
  ASSERT_EQ(sim.scheduler().total_executed(),
            experiments::manet_run(spec, cfg, kSeed).events)
      << "the rebuilt network is not manet_run's run";

  const Balance b = expect_conserved(net, "manet-50");
  EXPECT_GT(b.enqueued, 1000u);
  // Mobility breaks links mid-exchange: retry-limit drops happen, so
  // that term of the balance is exercised too.
  EXPECT_GT(b.retry_drops, 0u);
}

}  // namespace
}  // namespace adhoc
