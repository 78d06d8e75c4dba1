// JSONL telemetry records: escaping of hostile error messages (shared
// obs::json_escape implementation) and per-run observability payloads.

#include "campaign/telemetry.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "campaign/result.hpp"

namespace adhoc::campaign {
namespace {

RunRecord failed_record(std::string message) {
  RunRecord r;
  r.spec.run_index = 7;
  r.ok = false;
  r.error = std::move(message);
  return r;
}

TEST(JsonlSink, EscapesHostileErrorMessages) {
  std::ostringstream out;
  JsonlSink sink{out};
  // Quotes, backslashes, and the control characters the old local
  // escaper missed (\b, \f) plus a raw 0x01 byte.
  sink.run_end(failed_record("bad \"path\\x\"\nnext\tline \b\f\x01 end"));
  const std::string line = out.str();
  EXPECT_NE(line.find(R"(bad \"path\\x\"\nnext\tline \b\f\u0001 end)"), std::string::npos);
  // The emitted line must stay a single physical JSONL line with no raw
  // control bytes.
  ASSERT_FALSE(line.empty());
  for (std::size_t i = 0; i + 1 < line.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(line[i]), 0x20u) << "raw control byte at " << i;
  }
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line, R"({"event":"run_end","run":7,"ok":false,"wall_ms":0,)"
                  R"("error":"bad \"path\\x\"\nnext\tline \b\f\u0001 end"})"
                  "\n");
}

TEST(JsonlSink, RunEndCarriesObsSnapshot) {
  std::ostringstream out;
  JsonlSink sink{out};
  RunRecord r;
  r.spec.run_index = 0;
  r.ok = true;
  r.wall_seconds = 0.5;
  r.metrics.metrics = {{"kbps", 1234.5}};
  r.metrics.events = 1000;
  r.metrics.obs = {{"mac.sta0.tx_data", 42.0}, {"trace.dropped", 3.0}};
  sink.run_end(r);
  EXPECT_EQ(out.str(),
            R"({"event":"run_end","run":0,"ok":true,"wall_ms":500,"events":1000,)"
            R"("events_per_sec":2000,"metrics":{"kbps":1234.5},)"
            R"("obs":{"mac.sta0.tx_data":42,"trace.dropped":3}})"
            "\n");
}

TEST(JsonlSink, RunEndOmitsObsWhenNotObserved) {
  std::ostringstream out;
  JsonlSink sink{out};
  RunRecord r;
  r.spec.run_index = 0;
  r.ok = true;
  r.metrics.metrics = {{"kbps", 1.0}};
  sink.run_end(r);
  EXPECT_EQ(out.str().find("\"obs\""), std::string::npos);
}

// Determinism contract for JSONL records: metric keys are emitted in
// sorted order (std::map), so run_end lines are byte-comparable between
// jobs=1 and jobs=N campaigns and across libstdc++ versions. Guarded by
// the linter's unordered-iter rule on the emission side.
TEST(JsonlSink, RunEndMetricKeysSortedAndInsertionOrderIndependent) {
  RunRecord a;
  a.ok = true;
  a.metrics.metrics["zeta"] = 2.0;
  a.metrics.metrics["alpha"] = 1.0;
  a.metrics.obs["scheduler.events"] = 9.0;
  a.metrics.obs["mac.sta0.tx_data"] = 3.0;

  RunRecord b = a;
  b.metrics.metrics.clear();
  b.metrics.metrics["alpha"] = 1.0;
  b.metrics.metrics["zeta"] = 2.0;

  std::ostringstream out_a;
  {
    JsonlSink sink{out_a};
    sink.run_end(a);
  }
  std::ostringstream out_b;
  {
    JsonlSink sink{out_b};
    sink.run_end(b);
  }
  EXPECT_EQ(out_a.str(), out_b.str());
  const std::string line = out_a.str();
  EXPECT_LT(line.find("\"alpha\""), line.find("\"zeta\""));
  EXPECT_LT(line.find("\"mac.sta0.tx_data\""), line.find("\"scheduler.events\""));
}

}  // namespace
}  // namespace adhoc::campaign
