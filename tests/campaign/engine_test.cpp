#include "campaign/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "campaign/aggregate.hpp"

namespace adhoc::campaign {
namespace {

Campaign small_campaign(std::vector<double> xs, std::vector<std::uint64_t> seeds) {
  Campaign c;
  c.name = "test";
  c.grid.add("x", std::move(xs));
  c.seeds = std::move(seeds);
  return c;
}

TEST(CampaignEngine, RunsEverySpecInOrder) {
  const auto c = small_campaign({1, 2, 3}, {10, 20});
  const CampaignEngine engine{{2, nullptr}};
  const auto result = engine.run(c, [](const RunSpec& s) -> RunMetrics {
    return {{{"y", s.param("x") * 10.0 + static_cast<double>(s.seed)}}, 5, {}};
  });
  ASSERT_EQ(result.runs.size(), 6u);
  EXPECT_EQ(result.ok_count(), 6u);
  EXPECT_EQ(result.error_count(), 0u);
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const auto& r = result.runs[i];
    EXPECT_EQ(r.spec.run_index, i);
    EXPECT_TRUE(r.ok);
    EXPECT_DOUBLE_EQ(r.metrics.metrics.at("y"),
                     r.spec.param("x") * 10.0 + static_cast<double>(r.spec.seed));
  }
}

TEST(CampaignEngine, FailureIsIsolatedToTheThrowingRun) {
  const auto c = small_campaign({1, 2, 3, 4}, {1});
  const CampaignEngine engine{{2, nullptr}};
  const auto result = engine.run(c, [](const RunSpec& s) -> RunMetrics {
    if (s.param("x") == 3.0) throw std::runtime_error("boom at x=3");
    return {{{"y", 1.0}}, 1, {}};
  });
  ASSERT_EQ(result.runs.size(), 4u);
  EXPECT_EQ(result.ok_count(), 3u);
  EXPECT_EQ(result.error_count(), 1u);
  const auto& failed = result.runs[2];
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.error, "boom at x=3");
  // Siblings unaffected.
  EXPECT_TRUE(result.runs[0].ok);
  EXPECT_TRUE(result.runs[1].ok);
  EXPECT_TRUE(result.runs[3].ok);
}

TEST(CampaignEngine, NonStdExceptionIsCaptured) {
  const auto c = small_campaign({1}, {1});
  const CampaignEngine engine{{1, nullptr}};
  const auto result = engine.run(c, [](const RunSpec&) -> RunMetrics { throw 17; });
  EXPECT_FALSE(result.runs[0].ok);
  EXPECT_EQ(result.runs[0].error, "unknown exception");
}

TEST(CampaignEngine, ShardRunsOnlyItsSlice) {
  const auto c = small_campaign({1, 2, 3}, {1, 2});  // 6 runs
  const CampaignEngine engine{{1, nullptr}};
  const RunFn fn = [](const RunSpec& s) -> RunMetrics {
    return {{{"y", static_cast<double>(s.run_index)}}, 1, {}};
  };
  const auto s0 = engine.run_shard(c, 0, 2, fn);
  const auto s1 = engine.run_shard(c, 1, 2, fn);
  EXPECT_EQ(s0.runs.size(), 3u);
  EXPECT_EQ(s1.runs.size(), 3u);
  for (const auto& r : s0.runs) EXPECT_EQ(r.spec.run_index % 2, 0u);
  for (const auto& r : s1.runs) EXPECT_EQ(r.spec.run_index % 2, 1u);
}

TEST(Aggregate, FoldsPerPointWithFailuresExcluded) {
  const auto c = small_campaign({1, 2}, {1, 2, 3});
  const CampaignEngine engine{{1, nullptr}};
  const auto result = engine.run(c, [](const RunSpec& s) -> RunMetrics {
    if (s.param("x") == 2.0 && s.seed == 2) throw std::runtime_error("lost run");
    return {{{"y", s.param("x") * 100.0 + static_cast<double>(s.seed)}}, 1, {}};
  });
  const auto points = aggregate_by_point(result);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].ok_runs, 3u);
  EXPECT_EQ(points[0].failed_runs, 0u);
  EXPECT_DOUBLE_EQ(points[0].metrics.at("y").mean(), (101.0 + 102.0 + 103.0) / 3.0);
  EXPECT_EQ(points[1].ok_runs, 2u);
  EXPECT_EQ(points[1].failed_runs, 1u);
  EXPECT_DOUBLE_EQ(points[1].metrics.at("y").mean(), (201.0 + 203.0) / 2.0);
}

TEST(JsonlSink, EmitsOneRecordPerEventWithSchemaFields) {
  std::ostringstream out;
  JsonlSink sink{out};
  const auto c = small_campaign({1, 2}, {1});
  const CampaignEngine engine{{2, &sink}};
  const auto result = engine.run(c, [](const RunSpec& s) -> RunMetrics {
    if (s.param("x") == 2.0) throw std::runtime_error("bad \"quote\"");
    return {{{"kbps", 123.5}}, 1000, {}};
  });
  EXPECT_EQ(result.error_count(), 1u);

  std::istringstream in{out.str()};
  std::string line;
  std::size_t lines = 0;
  std::size_t starts = 0;
  std::size_t ends = 0;
  bool saw_error = false;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find(R"("event":"run_start")") != std::string::npos) ++starts;
    if (line.find(R"("event":"run_end")") != std::string::npos) ++ends;
    if (line.find(R"("error":"bad \"quote\"")") != std::string::npos) saw_error = true;
  }
  // campaign_start + 2 × (run_start, run_end) + campaign_end.
  EXPECT_EQ(lines, 6u);
  EXPECT_EQ(starts, 2u);
  EXPECT_EQ(ends, 2u);
  EXPECT_TRUE(saw_error) << "error message must be JSON-escaped, got:\n" << out.str();
  EXPECT_NE(out.str().find(R"("metrics":{"kbps":123.5})"), std::string::npos);
  EXPECT_NE(out.str().find(R"("events":1000)"), std::string::npos);
  EXPECT_NE(out.str().find(R"({"event":"campaign_end","ok":1,"errors":1)"), std::string::npos);
}

TEST(CampaignEngine, ZeroJobsResolvesToHardwareConcurrency) {
  const CampaignEngine engine{{0, nullptr}};
  EXPECT_GE(engine.jobs(), 1u);
}

TEST(CampaignEngine, CollapsesDuplicateSpecsBeforeDispatch) {
  // Same point twice (x axis repeats the value) × same seeds: every
  // (params, seed) pair appears twice, so half the runs must collapse.
  const auto c = small_campaign({3, 3}, {1, 2});
  std::atomic<int> executions{0};
  const CampaignEngine engine{{2, nullptr}};
  const auto result = engine.run(c, [&](const RunSpec& s) -> RunMetrics {
    executions.fetch_add(1);
    return {{{"y", s.param("x") + static_cast<double>(s.seed)}}, 7, {}};
  });
  ASSERT_EQ(result.runs.size(), 4u);
  EXPECT_EQ(executions.load(), 2) << "one execution per distinct (params, seed)";
  EXPECT_EQ(result.deduped, 2u);
  EXPECT_EQ(result.ok_count(), 4u);
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    // Copies keep their own positional identity...
    EXPECT_EQ(result.runs[i].spec.run_index, i);
    // ...and carry the representative's metrics.
    EXPECT_DOUBLE_EQ(result.runs[i].metrics.metrics.at("y"),
                     3.0 + static_cast<double>(result.runs[i].spec.seed));
  }
}

TEST(CampaignEngine, DistinctSpecsAreNotCollapsed) {
  const auto c = small_campaign({1, 2}, {1, 2});
  std::atomic<int> executions{0};
  const CampaignEngine engine{{1, nullptr}};
  const auto result = engine.run(c, [&](const RunSpec&) -> RunMetrics {
    executions.fetch_add(1);
    return {{{"y", 1.0}}, 1, {}};
  });
  EXPECT_EQ(executions.load(), 4);
  EXPECT_EQ(result.deduped, 0u);
}

TEST(JsonlSink, CampaignEndReportsDedupedCount) {
  std::ostringstream out;
  JsonlSink sink{out};
  const auto c = small_campaign({5, 5}, {1});  // duplicate point, 1 dedupe
  const CampaignEngine engine{{1, &sink}};
  const auto result = engine.run(c, [](const RunSpec&) -> RunMetrics {
    return {{{"y", 1.0}}, 1, {}};
  });
  EXPECT_EQ(result.deduped, 1u);
  EXPECT_NE(out.str().find(R"("deduped":1)"), std::string::npos) << out.str();
  // Collapsed runs emit no run_start/run_end of their own.
  std::istringstream in{out.str()};
  std::string line;
  std::size_t starts = 0;
  while (std::getline(in, line)) {
    if (line.find(R"("event":"run_start")") != std::string::npos) ++starts;
  }
  EXPECT_EQ(starts, 1u);
}

TEST(CampaignEngine, RunListExecutesAdHocSpecLists) {
  std::vector<RunSpec> specs(3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].run_index = i;
    specs[i].point_index = i;
    specs[i].seed = 1;
    specs[i].params = {{"x", static_cast<double>(i)}};
  }
  const CampaignEngine engine{{2, nullptr}};
  const auto result = engine.run_list("adhoc", specs, [](const RunSpec& s) -> RunMetrics {
    return {{{"y", s.param("x") * 2.0}}, 1, {}};
  });
  EXPECT_EQ(result.name, "adhoc");
  ASSERT_EQ(result.runs.size(), 3u);
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    EXPECT_EQ(result.runs[i].spec.run_index, i);
    EXPECT_DOUBLE_EQ(result.runs[i].metrics.metrics.at("y"), static_cast<double>(i) * 2.0);
  }
}

}  // namespace
}  // namespace adhoc::campaign
