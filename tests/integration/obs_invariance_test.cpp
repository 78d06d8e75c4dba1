// Observability never perturbs the simulation: at every ObsLevel, from
// kOff through kJourneys, a run produces the same outputs and executes
// the same number of scheduler events as the same run with no observer.

#include <gtest/gtest.h>

#include <string>

#include "experiments/experiments.hpp"
#include "obs/observer.hpp"

namespace adhoc {
namespace {

constexpr obs::ObsLevel kLevels[] = {obs::ObsLevel::kOff, obs::ObsLevel::kMetrics,
                                     obs::ObsLevel::kTrace, obs::ObsLevel::kFull,
                                     obs::ObsLevel::kJourneys};

experiments::ExperimentConfig short_config() {
  experiments::ExperimentConfig cfg;
  cfg.seeds = {1};
  cfg.warmup = sim::Time::ms(500);
  cfg.measure = sim::Time::ms(1500);
  return cfg;
}

/// The registry's executed-event count, where a registry exists.
void expect_registry_events(obs::RunObserver& observer, std::uint64_t events,
                            const std::string& level) {
  if (observer.registry() == nullptr) return;
  EXPECT_EQ(observer.registry()->flatten().at("scheduler.total_executed"),
            static_cast<double>(events))
      << level;
}

TEST(ObsLevelInvariance, TwoNodeUdp) {
  const auto cfg = short_config();
  const experiments::TwoNodeSpec spec;
  const auto plain = experiments::two_node_run(spec, cfg, 1);
  ASSERT_GT(plain.value, 0.0);
  for (const obs::ObsLevel level : kLevels) {
    const std::string name{obs::obs_level_name(level)};
    obs::RunObserver observer{level};
    const auto observed = experiments::two_node_run(spec, cfg, 1, &observer);
    EXPECT_EQ(observed.value, plain.value) << name;
    EXPECT_EQ(observed.events, plain.events) << name;
    expect_registry_events(observer, plain.events, name);
  }
}

void expect_fig7_invariant(scenario::Transport transport) {
  const auto cfg = short_config();
  const auto spec = experiments::fig7_spec(/*rts=*/false, transport);
  const auto plain = experiments::four_station_run(spec, cfg, 1);
  ASSERT_GT(plain.session1_kbps + plain.session2_kbps, 0.0);
  for (const obs::ObsLevel level : kLevels) {
    const std::string name{obs::obs_level_name(level)};
    obs::RunObserver observer{level};
    const auto observed = experiments::four_station_run(spec, cfg, 1, &observer);
    EXPECT_EQ(observed.session1_kbps, plain.session1_kbps) << name;
    EXPECT_EQ(observed.session2_kbps, plain.session2_kbps) << name;
    EXPECT_EQ(observed.events, plain.events) << name;
    expect_registry_events(observer, plain.events, name);
  }
}

TEST(ObsLevelInvariance, Fig7Udp) { expect_fig7_invariant(scenario::Transport::kUdp); }

TEST(ObsLevelInvariance, Fig7Tcp) { expect_fig7_invariant(scenario::Transport::kTcp); }

}  // namespace
}  // namespace adhoc
