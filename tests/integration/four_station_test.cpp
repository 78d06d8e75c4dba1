// Integration: the four-station scenarios of paper §3.3 (Figures 5-12).
// These assert the paper's *qualitative* findings: coupling beyond the
// transmission range, strong UDP unfairness at 11 Mbps, TCP re-balancing,
// and a more balanced system at 2 Mbps and in the symmetric layout.

#include <gtest/gtest.h>

#include "experiments/experiments.hpp"
#include "stats/fairness.hpp"

namespace adhoc::experiments {
namespace {

ExperimentConfig cfg_for(std::initializer_list<std::uint64_t> seeds) {
  ExperimentConfig cfg;
  cfg.seeds = seeds;
  cfg.warmup = sim::Time::ms(500);
  cfg.measure = sim::Time::sec(5);
  return cfg;
}

double total(const FourStationResult& r) {
  return r.session1_kbps.mean + r.session2_kbps.mean;
}

double imbalance(const FourStationResult& r) {
  return stats::imbalance(r.session1_kbps.mean, r.session2_kbps.mean);
}

TEST(FourStation, CouplingExistsBeyondTransmissionRange) {
  // Fig. 7 insight (i): at 11 Mbps the two sessions are 82.5 m apart —
  // nearly 3x the 30 m TX range — yet their total throughput is far
  // below 2x a solo session (they share the channel via PCS).
  const auto cfg = cfg_for({1, 2});
  const auto solo = two_node_throughput(
      {phy::Rate::kR11, false, scenario::Transport::kUdp, 512, 25.0}, cfg);
  const auto both = four_station(fig7_spec(false, scenario::Transport::kUdp), cfg);
  EXPECT_LT(total(both), 2.0 * solo.mean * 0.8);
}

TEST(FourStation, UdpAt11MbpsIsStronglyUnfairTowardSession2) {
  // Fig. 7 (UDP): session 2 (S3->S4) crushes session 1 (S1->S2), whose
  // receiver is exposed to S4 and cannot return its MAC ACKs.
  const auto cfg = cfg_for({1, 2, 3});
  const auto r = four_station(fig7_spec(false, scenario::Transport::kUdp), cfg);
  EXPECT_GT(r.session2_kbps.mean, r.session1_kbps.mean * 1.5);
  EXPECT_GT(r.session2_kbps.mean, 1000.0);  // the winner runs near solo speed
}

TEST(FourStation, UdpUnfairnessPersistsWithRtsCts) {
  // Fig. 7 (UDP, RTS/CTS): S3's RTS makes S2 withhold its CTS to S1.
  const auto cfg = cfg_for({1, 2, 3});
  const auto r = four_station(fig7_spec(true, scenario::Transport::kUdp), cfg);
  EXPECT_GT(r.session2_kbps.mean, r.session1_kbps.mean * 1.5);
}

TEST(FourStation, TcpReducesTheImbalance) {
  // Fig. 7 (TCP): TCP backs the winner off and adds reverse ACK traffic;
  // the paper reports the differences "still exist but are reduced".
  const auto cfg = cfg_for({1, 2, 3});
  const auto udp = four_station(fig7_spec(false, scenario::Transport::kUdp), cfg);
  const auto tcp = four_station(fig7_spec(false, scenario::Transport::kTcp), cfg);
  EXPECT_LT(imbalance(tcp), imbalance(udp));
}

TEST(FourStation, TwoMbpsIsMoreBalancedThanEleven) {
  // Fig. 9: at 2 Mbps all stations share one view of the channel; the
  // paper calls the system "more balanced".
  const auto cfg = cfg_for({1, 2, 3});
  const auto fast = four_station(fig7_spec(false, scenario::Transport::kUdp), cfg);
  const auto slow = four_station(fig9_spec(false, scenario::Transport::kUdp), cfg);
  EXPECT_LT(imbalance(slow), imbalance(fast));
}

TEST(FourStation, SymmetricScenarioIsRoughlyBalancedAt2Mbps) {
  // Fig. 12: symmetric layout at 2 Mbps: neither session starves.
  const auto cfg = cfg_for({1, 2, 3});
  const auto r = four_station(fig12_spec(false, scenario::Transport::kUdp), cfg);
  EXPECT_GT(r.session1_kbps.mean, 0.15 * r.session2_kbps.mean);
  EXPECT_GT(r.session2_kbps.mean, 0.15 * r.session1_kbps.mean);
}

TEST(FourStation, BothSessionsAlwaysMakeProgressUnderTcp) {
  using SpecFn = FourStationSpec (*)(bool, scenario::Transport);
  for (const SpecFn spec_fn : {&fig7_spec, &fig9_spec, &fig11_spec, &fig12_spec}) {
    const auto cfg = cfg_for({1});
    const auto r = four_station((*spec_fn)(false, scenario::Transport::kTcp), cfg);
    EXPECT_GT(r.session1_kbps.mean, 10.0);
    EXPECT_GT(r.session2_kbps.mean, 10.0);
  }
}

TEST(FourStation, TotalsReflectTheRateRegime) {
  // 11 Mbps configurations move far more total traffic than 2 Mbps ones.
  const auto cfg = cfg_for({1, 2});
  const auto fast = four_station(fig7_spec(false, scenario::Transport::kUdp), cfg);
  const auto slow = four_station(fig9_spec(false, scenario::Transport::kUdp), cfg);
  EXPECT_GT(total(fast), total(slow) * 1.3);
}

}  // namespace
}  // namespace adhoc::experiments
