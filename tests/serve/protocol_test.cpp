#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "experiments/campaigns.hpp"
#include "obs/observer.hpp"

namespace adhoc::serve {
namespace {

TEST(SubmitRequest, JsonRoundTrip) {
  SubmitRequest req;
  req.grid = "fig7";
  req.seeds = {4, 5, 6};
  req.seconds = 2.5;
  req.warmup_s = 0.25;
  req.obs_level = "metrics";
  req.fault_plan = "midrun-jam";
  req.probes = 120;

  const auto parsed = parse_submit_request(report::JsonValue::parse(req.to_json()));
  EXPECT_EQ(parsed.grid, req.grid);
  EXPECT_EQ(parsed.seeds, req.seeds);
  EXPECT_DOUBLE_EQ(parsed.seconds, req.seconds);
  EXPECT_DOUBLE_EQ(parsed.warmup_s, req.warmup_s);
  EXPECT_EQ(parsed.obs_level, req.obs_level);
  EXPECT_EQ(parsed.fault_plan, req.fault_plan);
  EXPECT_EQ(parsed.probes, req.probes);
}

TEST(SubmitRequest, MissingFieldsKeepDefaults) {
  const auto req = parse_submit_request(report::JsonValue::parse(R"({"type":"submit"})"));
  EXPECT_EQ(req.grid, "fig2");
  EXPECT_EQ(req.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(req.seconds, 8.0);
}

TEST(SubmitRequest, ToConfigValidates) {
  SubmitRequest req;
  req.seconds = 0.0;
  EXPECT_THROW((void)req.to_config(), std::invalid_argument);
  req.seconds = 1.0;
  req.seeds.clear();
  EXPECT_THROW((void)req.to_config(), std::invalid_argument);
  req.seeds = {1};
  req.obs_level = "bogus";
  EXPECT_THROW((void)req.to_config(), std::invalid_argument);
  req.obs_level = "trace";
  const auto cfg = req.to_config();
  EXPECT_EQ(cfg.obs_level, obs::ObsLevel::kTrace);
  EXPECT_EQ(cfg.measure.count_ns(), sim::Time::from_sec(1.0).count_ns());
}

TEST(SubmitRequest, UnknownObsLevelMessageNamesEveryAcceptedLevel) {
  SubmitRequest req;
  req.seeds = {1};
  req.seconds = 1.0;
  req.obs_level = "bogus";
  std::string message;
  try {
    (void)req.to_config();
  } catch (const std::invalid_argument& e) {
    message = e.what();
  }
  const auto open = message.rfind('(');
  const auto close = message.rfind(')');
  ASSERT_NE(open, std::string::npos) << message;
  ASSERT_NE(close, std::string::npos) << message;
  std::set<std::string> listed;
  std::stringstream names(message.substr(open + 1, close - open - 1));
  for (std::string name; std::getline(names, name, '|');) listed.insert(name);

  std::set<std::string> accepted;
  for (int v = static_cast<int>(obs::ObsLevel::kOff);
       v <= static_cast<int>(obs::ObsLevel::kJourneys); ++v) {
    const std::string name{obs::obs_level_name(static_cast<obs::ObsLevel>(v))};
    ASSERT_TRUE(obs::obs_level_from_string(name).has_value()) << name;
    accepted.insert(name);
  }
  EXPECT_EQ(listed, accepted) << message;
  for (const auto& name : listed) EXPECT_TRUE(obs::obs_level_from_string(name).has_value());
}

TEST(RecordJson, OkRecordRoundTripsByteExactly) {
  campaign::RunRecord record;
  record.ok = true;
  record.metrics.events = 123456;
  record.metrics.metrics = {{"kbps", 3346.432}, {"s2_kbps", 0.1 + 0.2}};
  record.metrics.obs = {{"mac.sta0.tx_data", 42.0}, {"trace.dropped", 7.0}};
  record.wall_seconds = 9.9;   // positional/wall state must not leak in
  record.spec.run_index = 99;  // (cache hits splice into other campaigns)

  const std::string payload = record_json(record);
  EXPECT_EQ(payload.find("wall"), std::string::npos);
  EXPECT_EQ(payload.find("run_index"), std::string::npos);

  const auto back = parse_record_json(payload);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.metrics.events, 123456u);
  EXPECT_EQ(back.metrics.metrics, record.metrics.metrics);
  EXPECT_EQ(back.metrics.obs, record.metrics.obs);
  // The byte-identity contract: serialize(parse(p)) == p.
  EXPECT_EQ(record_json(back), payload);
}

TEST(RecordJson, FailedRecordRoundTrips) {
  campaign::RunRecord record;
  record.ok = false;
  record.error = "boom \"quoted\"\nnewline";

  const std::string payload = record_json(record);
  EXPECT_EQ(payload, R"({"error":"boom \"quoted\"\nnewline","ok":false})");
  const auto back = parse_record_json(payload);
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, record.error);
  EXPECT_EQ(record_json(back), payload);
}

TEST(RecordJson, PayloadKeysAreSorted) {
  campaign::RunRecord record;
  record.ok = true;
  record.metrics.metrics = {{"b", 2.0}, {"a", 1.0}};
  EXPECT_EQ(record_json(record), R"({"events":0,"metrics":{"a":1,"b":2},"obs":{},"ok":true})");
}

TEST(RecordJson, MalformedPayloadsThrow) {
  EXPECT_THROW((void)parse_record_json("not json"), std::invalid_argument);
  EXPECT_THROW((void)parse_record_json("{}"), std::invalid_argument);
  EXPECT_THROW((void)parse_record_json(R"({"ok":true})"), std::invalid_argument);
  EXPECT_THROW((void)parse_record_json(R"({"ok":false})"), std::invalid_argument);
}

// The record is a pure outcome: the same spec computed twice at the
// full obs level (scheduler profiler on) serializes to the same bytes,
// so a cached full-level payload never replays another run's host
// timings.
TEST(RecordJson, FullObsRecordIsReproducible) {
  experiments::ExperimentConfig cfg;
  cfg.seeds = {1};
  cfg.warmup = sim::Time::ms(50);
  cfg.measure = sim::Time::ms(200);
  cfg.obs_level = obs::ObsLevel::kFull;
  const auto def = experiments::fig2_campaign(cfg);
  const auto spec = def.plan.expand().front();

  campaign::RunRecord first;
  first.ok = true;
  first.metrics = def.run(spec);
  campaign::RunRecord second;
  second.ok = true;
  second.metrics = def.run(spec);

  ASSERT_TRUE(first.metrics.obs.contains("scheduler.count_by_label.mac.slot"));
  EXPECT_EQ(record_json(first), record_json(second));
}

}  // namespace
}  // namespace adhoc::serve
