// Full MANET integration: the scenario the paper's introduction
// motivates, end to end — a field of stations with random-waypoint
// mobility, AODV route discovery and repair, and application traffic
// riding on top. The paper's finding that real ranges are far shorter
// than simulator defaults is exactly what makes this hard: routes are
// many hops and break often.

#include <gtest/gtest.h>

#include "scenario/manet.hpp"
#include "scenario/network.hpp"
#include "sim/simulator.hpp"

namespace adhoc {
namespace {

TEST(Manet, MobileNetworkKeepsDeliveringThroughRouteChurn) {
  sim::Simulator sim{77};
  scenario::Network net{sim};

  // Pedestrians wandering a 100 m field at the default 11 Mbps, whose
  // ~30 m range puts the far corners 4-5 hops apart. Two flows each send
  // a 256 B datagram every 250 ms for 60 simulated seconds. A short
  // route lifetime bounds black-hole windows after missed RERRs.
  scenario::ManetSpec spec;
  spec.stations = 24;
  spec.placement = scenario::ManetPlacement::kUniform;
  spec.mobility = scenario::ManetMobility::kWaypoint;
  spec.field_m = 100.0;
  spec.min_speed_mps = 0.5;
  spec.max_speed_mps = 1.5;
  spec.flows = 2;
  spec.payload_bytes = 256;
  spec.flow_kbps = 256 * 8 / 250.0;
  spec.route_lifetime = sim::Time::sec(3);
  scenario::ManetScenario manet{net, spec};
  manet.start(sim::Time::ms(500), sim::Time::ms(60'500));
  sim.run_until(sim::Time::sec(62));

  const scenario::ManetStats& stats = manet.stats();
  EXPECT_EQ(stats.sent, 480u);
  // Mobility breaks routes; discovery repairs them. A healthy stack
  // delivers a solid share despite the churn (disconnection intervals
  // are genuine: packets buffered past the discovery retries drop).
  EXPECT_GT(stats.delivery_ratio(), 0.4)
      << "delivered " << stats.delivered << "/" << stats.sent;
  // Route repair genuinely happened (not a single static route all along).
  const net::AodvCounters aodv = manet.aodv_totals();
  EXPECT_GT(aodv.routes_invalidated, 0u);
  EXPECT_GT(aodv.rreq_originated, 1u);
}

}  // namespace
}  // namespace adhoc
