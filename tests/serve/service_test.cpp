#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/telemetry.hpp"

namespace adhoc::serve {
namespace {

namespace fs = std::filesystem;

SubmitRequest tiny_request() {
  SubmitRequest req;
  req.grid = "fig2";
  req.seeds = {1, 2};
  req.seconds = 0.5;  // keep the sims short: this is a plumbing test
  req.warmup_s = 0.1;
  return req;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("adhoc_service_test_" +
             std::string{::testing::UnitTest::GetInstance()->current_test_info()->name()});
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(ServiceTest, ColdThenWarmSubmitIsByteIdentical) {
  cache::ResultCache cache{{root_.string(), "", 0, 0}};
  const CampaignService service{{2, &cache}};

  const auto cold = service.submit(tiny_request());
  ASSERT_EQ(cold.result.runs.size(), 8u);  // fig2: 4 points x 2 seeds
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 8u);
  EXPECT_EQ(cold.result.error_count(), 0u);

  const auto warm = service.submit(tiny_request());
  EXPECT_EQ(warm.cache_hits, 8u);
  EXPECT_EQ(warm.cache_misses, 0u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(cold.cached[i]);
    EXPECT_TRUE(warm.cached[i]);
    EXPECT_EQ(warm.payloads[i], cold.payloads[i]) << "run " << i;
    EXPECT_EQ(warm.result.runs[i].spec.run_index, i);
  }
  // The whole scorecard — aggregates included — matches byte for byte.
  EXPECT_EQ(warm.scorecard_json, cold.scorecard_json);
  EXPECT_EQ(warm.bench, "serve_fig2");
}

TEST_F(ServiceTest, ChangedParametersMissTheCache) {
  cache::ResultCache cache{{root_.string(), "", 0, 0}};
  const CampaignService service{{2, &cache}};
  (void)service.submit(tiny_request());

  auto longer = tiny_request();
  longer.seconds = 0.6;  // different measure window = different keys
  const auto out = service.submit(longer);
  EXPECT_EQ(out.cache_hits, 0u);
  EXPECT_EQ(out.cache_misses, 8u);
}

TEST_F(ServiceTest, OverlappingSeedSetsHitPartially) {
  cache::ResultCache cache{{root_.string(), "", 0, 0}};
  const CampaignService service{{2, &cache}};
  (void)service.submit(tiny_request());  // seeds {1,2}

  auto wider = tiny_request();
  wider.seeds = {1, 2, 3};
  const auto out = service.submit(wider);
  EXPECT_EQ(out.cache_hits, 8u) << "seeds 1,2 are already cached per point";
  EXPECT_EQ(out.cache_misses, 4u) << "seed 3 is new at each of the 4 points";
}

TEST_F(ServiceTest, NoCacheRunsEverySubmitCold) {
  const CampaignService service{{2, nullptr}};
  const auto a = service.submit(tiny_request());
  const auto b = service.submit(tiny_request());
  EXPECT_EQ(a.cache_hits, 0u);
  EXPECT_EQ(b.cache_hits, 0u);
  EXPECT_EQ(b.cache_misses, 8u);
  // Still deterministic: byte-identical payloads without any cache.
  for (std::size_t i = 0; i < a.payloads.size(); ++i) {
    EXPECT_EQ(a.payloads[i], b.payloads[i]);
  }
}

TEST_F(ServiceTest, TelemetryObservesOnlyCacheMisses) {
  cache::ResultCache cache{{root_.string(), "", 0, 0}};
  const CampaignService service{{1, &cache}};
  (void)service.submit(tiny_request());

  std::ostringstream out;
  campaign::JsonlSink sink{out};
  const auto warm = service.submit(tiny_request(), &sink);
  EXPECT_EQ(warm.cache_hits, 8u);
  EXPECT_TRUE(out.str().empty()) << "all-hit submits run no campaign:\n" << out.str();
}

TEST_F(ServiceTest, MetricsAccountEngineRunsAndCacheServes) {
  cache::ResultCache cache{{root_.string(), "", 0, 0}};
  obs::svc::ServiceMetrics metrics;
  ServiceConfig cfg;
  cfg.jobs = 2;
  cfg.cache = &cache;
  cfg.metrics = &metrics;
  const CampaignService service{cfg};

  (void)service.submit(tiny_request());
  EXPECT_EQ(metrics.value("serve", "engine_runs_total"), 8.0);
  EXPECT_EQ(metrics.value("serve", "engine_runs_failed_total"), 0.0);
  EXPECT_EQ(metrics.value("serve", R"(runs_served_total{source="engine"})"), 8.0);
  EXPECT_EQ(metrics.value("serve", R"(runs_served_total{source="cache"})"), 0.0);
  EXPECT_EQ(metrics.value("serve", "run_wall_ms.count"), 8.0);
  EXPECT_EQ(metrics.value("serve", "queue_depth"), 0.0) << "all queue slots retired";

  (void)service.submit(tiny_request());
  EXPECT_EQ(metrics.value("serve", "engine_runs_total"), 8.0) << "warm submit runs no engine";
  EXPECT_EQ(metrics.value("serve", R"(runs_served_total{source="cache"})"), 8.0);
  EXPECT_EQ(metrics.value("serve", "queue_depth"), 0.0);
}

TEST_F(ServiceTest, RequestTraceTouchesEveryServicePhase) {
  cache::ResultCache cache{{root_.string(), "", 0, 0}};
  const CampaignService service{{2, &cache}};

  obs::svc::RequestTrace cold_trace{"r-1", "submit"};
  (void)service.submit(tiny_request(), nullptr, &cold_trace);
  const auto cold = cold_trace.summary(0);
  std::vector<std::string> phases;
  phases.reserve(cold.phases_ms.size());
  for (const auto& [phase, ms] : cold.phases_ms) phases.push_back(phase);
  EXPECT_EQ(phases, (std::vector<std::string>{"cache_lookup", "queue_wait", "compute",
                                              "serialize"}));
  EXPECT_GT(cold.phases_ms[2].second, 0.0) << "compute phase must accrue engine time";

  // All-hit submits still time the compute phase (zero-ish), keeping
  // histogram counts equal to the submit count.
  obs::svc::RequestTrace warm_trace{"r-2", "submit"};
  (void)service.submit(tiny_request(), nullptr, &warm_trace);
  const auto warm = warm_trace.summary(0);
  ASSERT_EQ(warm.phases_ms.size(), 4u);
  EXPECT_EQ(warm.phases_ms[2].first, "compute");
}

TEST_F(ServiceTest, UnknownGridThrowsListingNames) {
  const CampaignService service{{1, nullptr}};
  auto req = tiny_request();
  req.grid = "nope";
  try {
    (void)service.submit(req);
    FAIL() << "unknown grid must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("fig2"), std::string::npos) << e.what();
  }
}

TEST_F(ServiceTest, RunKeyDistinguishesGridAndSeedAndKnobs) {
  const auto req = tiny_request();
  const auto cfg = req.to_config();
  campaign::RunSpec spec;
  spec.seed = 1;
  spec.params = {{"rts", 0.0}, {"tcp", 0.0}};

  const auto base = run_key(req, cfg, spec, "v1").hash();
  auto other_req = req;
  other_req.grid = "fig7";
  EXPECT_NE(run_key(other_req, cfg, spec, "v1").hash(), base);

  auto other_spec = spec;
  other_spec.seed = 2;
  EXPECT_NE(run_key(req, cfg, other_spec, "v1").hash(), base);

  auto other_cfg = cfg;
  other_cfg.obs_level = obs::ObsLevel::kMetrics;
  EXPECT_NE(run_key(req, other_cfg, spec, "v1").hash(), base);

  EXPECT_NE(run_key(req, cfg, spec, "v2").hash(), base);
  // run_index/point_index are positional, not identity: same key.
  auto repositioned = spec;
  repositioned.run_index = 17;
  repositioned.point_index = 3;
  EXPECT_EQ(run_key(req, cfg, repositioned, "v1").hash(), base);
}

}  // namespace
}  // namespace adhoc::serve
