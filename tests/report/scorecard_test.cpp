// Scorecard serialisation contract: byte-stable, sorted, locale-free.

#include "report/scorecard.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/aggregate.hpp"
#include "campaign/result.hpp"
#include "report/json_read.hpp"

namespace adhoc {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Scorecard, RejectsEmptyBenchAndEmptyOrDuplicateCellIds) {
  EXPECT_THROW(report::Scorecard{""}, std::invalid_argument);

  report::Scorecard card{"t"};
  EXPECT_THROW(card.add_cell("", 1.0), std::invalid_argument);
  card.add_cell("a", 1.0);
  EXPECT_THROW(card.add_cell("a", 2.0), std::invalid_argument);
}

TEST(Scorecard, RelativeDeviationAgainstPaperValue) {
  report::Cell with_paper{"c", 5.5, 5.0, "Mbps"};
  ASSERT_TRUE(with_paper.rel_dev().has_value());
  EXPECT_NEAR(*with_paper.rel_dev(), 0.1, 1e-12);

  report::Cell no_paper{"c", 5.5, std::nullopt, ""};
  EXPECT_FALSE(no_paper.rel_dev().has_value());

  report::Cell zero_paper{"c", 5.5, 0.0, ""};
  EXPECT_FALSE(zero_paper.rel_dev().has_value());
}

TEST(Scorecard, JsonIsByteStableAcrossInsertionOrder) {
  report::Scorecard forward{"order"};
  forward.set_seeds({1, 2, 3});
  forward.add_cell("alpha", 1.25, 1.2, "Mbps");
  forward.add_cell("beta", 0.5);
  forward.set_counter("events", 100);
  forward.set_counter("runs_ok", 4);

  report::Scorecard reversed{"order"};
  reversed.set_seeds({1, 2, 3});
  reversed.set_counter("runs_ok", 4);
  reversed.set_counter("events", 100);
  reversed.add_cell("beta", 0.5);
  reversed.add_cell("alpha", 1.25, 1.2, "Mbps");

  EXPECT_EQ(forward.to_json(), reversed.to_json());
}

TEST(Scorecard, JsonLayoutSortedCellsSortedKeysTrailingNewline) {
  report::Scorecard card{"layout"};
  card.set_seeds({7});
  card.add_cell("zz", 2.0);
  card.add_cell("aa", 1.5, 1.0, "Mbps");
  card.set_counter("events", 1000000);  // must print as an integer

  const std::string json = card.to_json();
  EXPECT_EQ(json,
            "{\n"
            "\"bench\":\"layout\",\n"
            "\"cells\":[\n"
            "{\"id\":\"aa\",\"paper\":1,\"rel_dev\":0.5,\"sim\":1.5,\"unit\":\"Mbps\"},\n"
            "{\"id\":\"zz\",\"sim\":2}\n"
            "],\n"
            "\"counters\":{\"events\":1000000},\n"
            "\"schema\":1,\n"
            "\"seeds\":[7]\n"
            "}\n");
}

TEST(Scorecard, DelayBreakdownIsOptInAndByteStable) {
  report::Scorecard plain{"layout"};
  plain.set_seeds({7});
  plain.add_cell("aa", 1.5);
  const std::string before = plain.to_json();
  // Never calling add_delay_breakdown leaves the document untouched —
  // the pre-existing baselines keep their exact bytes.
  EXPECT_EQ(before.find("delay_breakdown"), std::string::npos);

  report::Scorecard card{"layout"};
  card.set_seeds({7});
  card.add_cell("aa", 1.5);
  card.add_delay_breakdown("zz/basic", {{"airtime_us", 500.0}, {"queue_us", 30.0}});
  card.add_delay_breakdown("aa/basic", {{"airtime_us", 1000.5}});
  const std::string json = card.to_json();
  // Sorted ids, sorted phase keys, between counters and schema.
  EXPECT_NE(json.find(",\n\"delay_breakdown\":{\n"
                      "\"aa/basic\":{\"airtime_us\":1000.5},\n"
                      "\"zz/basic\":{\"airtime_us\":500,\"queue_us\":30}\n"
                      "},\n\"schema\":1"),
            std::string::npos);
  EXPECT_THROW(card.add_delay_breakdown("aa/basic", {{"x", 1.0}}), std::invalid_argument);
  EXPECT_THROW(card.add_delay_breakdown("", {{"x", 1.0}}), std::invalid_argument);
}

TEST(Scorecard, PerfNumbersStayOutOfTheFidelityFile) {
  report::Scorecard card{"split"};
  card.add_cell("c", 1.0);
  EXPECT_EQ(card.perf_json(), "");  // no perf recorded: no sidecar

  card.set_perf("wall_ms", 12.5);
  EXPECT_EQ(card.to_json().find("wall_ms"), std::string::npos);
  const std::string perf = card.perf_json();
  EXPECT_NE(perf.find("\"wall_ms\":12.5"), std::string::npos);
  EXPECT_NE(perf.find("\"bench\":\"split\""), std::string::npos);
}

TEST(Scorecard, AddCampaignAccumulatesCountersAcrossCampaigns) {
  campaign::CampaignResult result;
  result.name = "camp";
  result.jobs = 4;
  result.wall_seconds = 0.25;
  campaign::RunRecord ok_run;
  ok_run.ok = true;
  ok_run.metrics.events = 40;
  campaign::RunRecord failed_run;
  failed_run.ok = false;
  result.runs = {ok_run, ok_run, failed_run};

  report::Scorecard card{"camp"};
  card.add_campaign(result);
  card.add_campaign(result);
  EXPECT_EQ(card.counters().at("events"), 160u);
  EXPECT_EQ(card.counters().at("runs_ok"), 4u);
  EXPECT_EQ(card.counters().at("runs_failed"), 2u);
  EXPECT_DOUBLE_EQ(card.perf().at("wall_ms"), 500.0);
  EXPECT_DOUBLE_EQ(card.perf().at("jobs"), 4.0);
  EXPECT_DOUBLE_EQ(card.perf().at("events_per_sec"), 160.0 / 0.5);
}

TEST(Scorecard, AddPointsKeysCellsByMetricAndPointId) {
  campaign::PointAggregate p0;
  p0.params = {{"rts", 0.0}, {"m", 512.0}};
  p0.metrics["throughput_mbps"].add(4.0);
  p0.metrics["throughput_mbps"].add(6.0);
  campaign::PointAggregate p1;
  p1.params = {{"rts", 1.0}, {"m", 512.0}};
  p1.metrics["throughput_mbps"].add(3.0);

  report::Scorecard card{"points"};
  card.add_points({p0, p1}, {{"throughput_mbps", "Mbps"}});
  ASSERT_EQ(card.cells().size(), 2u);
  EXPECT_EQ(card.cells()[0].id, "throughput_mbps/rts=0,m=512");
  EXPECT_DOUBLE_EQ(card.cells()[0].sim, 5.0);
  EXPECT_EQ(card.cells()[0].unit, "Mbps");
  EXPECT_EQ(card.cells()[1].id, "throughput_mbps/rts=1,m=512");
}

TEST(Scorecard, WriteRoundTripsThroughTheJsonReader) {
  report::Scorecard card{"roundtrip"};
  card.set_seeds({11, 22});
  card.add_cell("cell/a", 1.5, 2.0, "Mbps");
  card.set_counter("events", 123);
  card.set_perf("wall_ms", 1.0);

  const std::string dir = ::testing::TempDir();
  const std::string path = card.write(dir);
  EXPECT_EQ(path, dir + "/BENCH_roundtrip.json");

  const report::JsonValue doc = report::JsonValue::parse(read_file(path));
  EXPECT_EQ(doc.find("bench")->str(), "roundtrip");
  const auto& cells = doc.find("cells")->array();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].find("id")->str(), "cell/a");
  EXPECT_DOUBLE_EQ(cells[0].find("sim")->number(), 1.5);
  EXPECT_DOUBLE_EQ(cells[0].find("paper")->number(), 2.0);
  EXPECT_DOUBLE_EQ(doc.find("counters")->find("events")->number(), 123.0);
  EXPECT_EQ(doc.find("seeds")->array().size(), 2u);

  const report::JsonValue perf = report::JsonValue::parse(
      read_file(dir + "/" + report::Scorecard::perf_file_name("roundtrip")));
  EXPECT_DOUBLE_EQ(perf.find("perf")->find("wall_ms")->number(), 1.0);

  std::remove(path.c_str());
  std::remove((dir + "/BENCH_roundtrip.perf.json").c_str());
}

TEST(Scorecard, WriteThrowsNamingAnUnwritablePath) {
  report::Scorecard card{"nowhere"};
  card.add_cell("c", 1.0);
  try {
    card.write("/nonexistent-dir-for-scorecard-test");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("/nonexistent-dir-for-scorecard-test"),
              std::string::npos);
  }
}

TEST(Scorecard, FileNameContractSharedWithComparators) {
  EXPECT_EQ(report::Scorecard::file_name("table2"), "BENCH_table2.json");
  EXPECT_EQ(report::Scorecard::perf_file_name("table2"), "BENCH_table2.perf.json");
}

}  // namespace
}  // namespace adhoc
