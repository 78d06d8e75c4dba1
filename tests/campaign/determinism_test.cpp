// The engine's core contract: results for a given (point, seed) are
// bit-identical no matter how many workers execute the campaign. Runs a
// real two-node simulation grid at jobs=1 and jobs=4 and compares both
// the per-run metrics and the folded per-point aggregates with exact
// double equality.

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "experiments/campaigns.hpp"
#include "experiments/experiments.hpp"

namespace adhoc {
namespace {

experiments::ExperimentCampaign tiny_campaign() {
  experiments::ExperimentConfig cfg;
  cfg.seeds = {1, 2};
  cfg.warmup = sim::Time::ms(100);
  cfg.measure = sim::Time::ms(500);
  return experiments::fig2_campaign(cfg);  // 4 points × 2 seeds = 8 sims
}

campaign::CampaignResult run_with_jobs(unsigned jobs) {
  const auto def = tiny_campaign();
  const campaign::CampaignEngine engine{{jobs, nullptr}};
  return engine.run(def.plan, def.run);
}

TEST(CampaignDeterminism, PerRunMetricsBitIdenticalAcrossWorkerCounts) {
  const auto serial = run_with_jobs(1);
  const auto parallel = run_with_jobs(4);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  ASSERT_EQ(serial.runs.size(), 8u);
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    const auto& a = serial.runs[i];
    const auto& b = parallel.runs[i];
    EXPECT_EQ(a.spec.point_index, b.spec.point_index);
    EXPECT_EQ(a.spec.seed, b.spec.seed);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(a.metrics.events, b.metrics.events) << "run " << i;
    // Exact equality, not near-equality: same seed => same event
    // sequence => the same doubles to the last bit.
    EXPECT_EQ(a.metrics.metrics, b.metrics.metrics) << "run " << i;
  }
}

TEST(CampaignDeterminism, AggregatesBitIdenticalAcrossWorkerCounts) {
  const auto pa = campaign::aggregate_by_point(run_with_jobs(1));
  const auto pb = campaign::aggregate_by_point(run_with_jobs(4));
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].point_index, pb[i].point_index);
    EXPECT_EQ(pa[i].ok_runs, pb[i].ok_runs);
    ASSERT_EQ(pa[i].metrics.size(), pb[i].metrics.size());
    for (const auto& [name, summary] : pa[i].metrics) {
      const auto& other = pb[i].metrics.at(name);
      EXPECT_EQ(summary.count(), other.count());
      EXPECT_EQ(summary.mean(), other.mean()) << name;
      EXPECT_EQ(summary.stddev(), other.stddev()) << name;
      EXPECT_EQ(summary.ci95_halfwidth(), other.ci95_halfwidth()) << name;
    }
  }
}

TEST(CampaignDeterminism, MatchesDirectExperimentCall) {
  // The campaign path must compute exactly what the serial experiments
  // API computes for the same (spec, seed).
  experiments::ExperimentConfig cfg;
  cfg.seeds = {1, 2};
  cfg.warmup = sim::Time::ms(100);
  cfg.measure = sim::Time::ms(500);

  const auto result = run_with_jobs(2);
  experiments::TwoNodeSpec spec{phy::Rate::kR11, false, scenario::Transport::kUdp, 512, 10.0};
  const auto direct = experiments::two_node_run(spec, cfg, 1);
  // Run 0 is (rts=0, tcp=0, seed=1).
  EXPECT_EQ(result.runs[0].metrics.metrics.at("kbps"), direct.value);
  EXPECT_EQ(result.runs[0].metrics.events, direct.events);
}

}  // namespace
}  // namespace adhoc
