// Service-telemetry layer: label rendering, thread-safe metrics,
// Prometheus exposition, request traces, the flight recorder, and the
// structured logger.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/svc/flight_recorder.hpp"
#include "obs/svc/log.hpp"
#include "obs/svc/request_trace.hpp"
#include "obs/svc/service_metrics.hpp"
#include "obs/svc/telemetry.hpp"

namespace adhoc::obs::svc {
namespace {

TEST(ServiceMetricsLabels, RenderSortedAndEscaped) {
  EXPECT_EQ(ServiceMetrics::with_labels("requests_total", {}), "requests_total");
  EXPECT_EQ(ServiceMetrics::with_labels("requests_total",
                                        {{"verb", "submit"}, {"outcome", "ok"}}),
            R"(requests_total{outcome="ok",verb="submit"})");
  EXPECT_EQ(ServiceMetrics::with_labels("m", {{"k", "a\"b\\c\nd"}}),
            "m{k=\"a\\\"b\\\\c\\nd\"}");
}

TEST(ServiceMetrics, CountersGaugesDistributionsRoundTrip) {
  ServiceMetrics m;
  m.inc("serve", "requests_total", 1, {{"verb", "submit"}});
  m.inc("serve", "requests_total", 2, {{"verb", "submit"}});
  m.add_gauge("serve", "queue_depth", 5.0);
  m.add_gauge("serve", "queue_depth", -3.0);
  m.observe("serve", "wall_ms", 1.5);
  m.observe("serve", "wall_ms", 2.5);

  EXPECT_EQ(m.value("serve", R"(requests_total{verb="submit"})"), 3.0);
  EXPECT_EQ(m.value("serve", "queue_depth"), 2.0);
  EXPECT_EQ(m.value("serve", "wall_ms.count"), 2.0);
  EXPECT_EQ(m.value("serve", "wall_ms.mean"), 2.0);
  EXPECT_EQ(m.value("serve", "absent_metric"), 0.0);
}

TEST(ServiceMetrics, ConcurrentIncrementsAllLand) {
  ServiceMetrics m;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&m] {
      for (int i = 0; i < kPerThread; ++i) {
        m.inc("serve", "hits_total");
        m.observe("serve", "lat_ms", 1.0);
        m.add_gauge("serve", "depth", 1.0);
        m.add_gauge("serve", "depth", -1.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(m.value("serve", "hits_total"), kThreads * kPerThread);
  EXPECT_EQ(m.value("serve", "lat_ms.count"), kThreads * kPerThread);
  EXPECT_EQ(m.value("serve", "depth"), 0.0);
}

TEST(ServiceMetrics, SnapshotKeysSortedAndByteStable) {
  const auto build = [] {
    ServiceMetrics m;
    m.inc("serve", "requests_total", 4, {{"verb", "submit"}});
    m.inc("serve", "requests_total", 1, {{"verb", "stats"}});
    m.inc("cache_like", "z_last");
    m.set_gauge("cache_like", "a_first", 7.0);
    m.observe("serve", "wall_ms", 3.0);
    return m.snapshot_json();
  };
  const std::string snap = build();
  EXPECT_EQ(snap, build());  // same content -> same bytes
  // Component and metric keys emit in sorted order.
  EXPECT_LT(snap.find("cache_like"), snap.find("serve"));
  EXPECT_LT(snap.find("a_first"), snap.find("z_last"));
  EXPECT_LT(snap.find(R"(requests_total{verb=\"stats\"})"),
            snap.find(R"(requests_total{verb=\"submit\"})"));
}

TEST(MetricsRegistryPrometheus, FamiliesTypesAndLabelVariants) {
  MetricsRegistry reg;
  reg.counter("serve", R"(requests_total{verb="stats"})").inc(2);
  reg.counter("serve", R"(requests_total{verb="submit"})").inc(5);
  reg.set_gauge("serve", "queue_depth", 3.0);
  reg.distribution("serve", "wall_ms").add(2.0);
  reg.distribution("serve", "wall_ms").add(4.0);
  reg.add_probe("cache", "entries", [] { return 11.0; });

  const std::string text = reg.prometheus_text();
  // One TYPE line per family, shared across label variants.
  EXPECT_NE(text.find("# TYPE adhocsim_serve_requests_total counter\n"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE adhocsim_serve_requests_total counter",
                      text.find("# TYPE adhocsim_serve_requests_total counter") + 1),
            std::string::npos);
  EXPECT_NE(text.find("adhocsim_serve_requests_total{verb=\"stats\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("adhocsim_serve_requests_total{verb=\"submit\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE adhocsim_serve_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE adhocsim_cache_entries gauge\n"), std::string::npos);
  EXPECT_NE(text.find("adhocsim_cache_entries 11\n"), std::string::npos);
  // Distributions expose as summaries: quantiles + _sum/_count.
  EXPECT_NE(text.find("# TYPE adhocsim_serve_wall_ms summary\n"), std::string::npos);
  EXPECT_NE(text.find("adhocsim_serve_wall_ms{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("adhocsim_serve_wall_ms_sum 6\n"), std::string::npos);
  EXPECT_NE(text.find("adhocsim_serve_wall_ms_count 2\n"), std::string::npos);
  // Byte-stable for equal content.
  EXPECT_EQ(text, reg.prometheus_text());
}

TEST(MetricsRegistryPrometheus, ManglesHostileNames) {
  MetricsRegistry reg;
  reg.counter("mac.sta0", "tx-data").inc();
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE adhocsim_mac_sta0_tx_data counter\n"), std::string::npos);
  for (const char c : text) {
    EXPECT_TRUE(c == '\n' || (c >= ' ' && c <= '~')) << "non-printable byte in exposition";
  }
}

TEST(RequestTrace, AccumulatesPhasesIntoSummary) {
  RequestTrace trace{"r-7", "submit"};
  trace.add_ns(Phase::kAccept, 1'500'000);  // 1.5 ms
  trace.start(Phase::kCompute);
  trace.stop(Phase::kCompute);
  trace.add_ns(Phase::kCompute, 2'000'000);
  {
    const PhaseScope scope{&trace, Phase::kSerialize};
  }
  const RequestSummary s = trace.summary(1234);
  EXPECT_EQ(s.id, "r-7");
  EXPECT_EQ(s.verb, "submit");
  EXPECT_EQ(s.outcome, "ok");
  EXPECT_EQ(s.ts_unix_ms, 1234u);
  EXPECT_GE(s.wall_ms, 0.0);
  // Only touched phases appear, in pipeline order.
  ASSERT_EQ(s.phases_ms.size(), 3u);
  EXPECT_EQ(s.phases_ms[0].first, "accept");
  EXPECT_NEAR(s.phases_ms[0].second, 1.5, 1e-9);
  EXPECT_EQ(s.phases_ms[1].first, "compute");
  EXPECT_GE(s.phases_ms[1].second, 2.0);
  EXPECT_EQ(s.phases_ms[2].first, "serialize");
}

TEST(RequestTrace, FailureCapturedAndTruncated) {
  RequestTrace trace{"r-1", "submit"};
  trace.fail(std::string(2000, 'x'));
  EXPECT_TRUE(trace.failed());
  const RequestSummary s = trace.summary(0);
  EXPECT_EQ(s.outcome, "error");
  EXPECT_LT(s.error.size(), 600u);
}

TEST(RequestTrace, PhaseScopeToleratesNullTrace) {
  const PhaseScope scope{nullptr, Phase::kStream};  // must not crash
}

TEST(FlightRecorder, RingsBoundedWithDropAccounting) {
  FlightRecorder rec{3, 2};
  for (int i = 0; i < 5; ++i) {
    RequestSummary s;
    s.id = "r-" + std::to_string(i);
    s.verb = "submit";
    s.outcome = i >= 2 ? "error" : "ok";
    s.error = s.outcome == "error" ? "boom" : "";
    rec.record(s);
  }
  EXPECT_EQ(rec.recorded(), 5u);
  EXPECT_EQ(rec.dropped(), 3u);  // 2 request overflows + 1 error overflow

  const std::string dump = rec.to_jsonl(99);
  std::istringstream lines{dump};
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header,
            R"({"dropped_errors":1,"dropped_requests":2,"kind":"flight_recorder_header",)"
            R"("recorded_errors":2,"recorded_requests":3,"ts_ms":99})");
  // Newest 3 requests survive (r-2..r-4), newest 2 errors (r-3, r-4).
  EXPECT_EQ(dump.find("\"r-0\""), std::string::npos);
  EXPECT_EQ(dump.find("\"r-1\""), std::string::npos);
  EXPECT_NE(dump.find(R"("id":"r-2","kind":"request")"), std::string::npos);
  EXPECT_NE(dump.find(R"("id":"r-4","kind":"error")"), std::string::npos);
}

TEST(FlightRecorder, EntryLineKeysSorted) {
  FlightRecorder rec;
  RequestSummary s;
  s.id = "r-1";
  s.verb = "metrics";
  s.outcome = "ok";
  s.ts_unix_ms = 5;
  s.wall_ms = 1.25;
  s.phases_ms = {{"parse", 0.5}, {"serialize", 0.75}};
  rec.record(s);
  std::istringstream lines{rec.to_jsonl(7)};
  std::string header;
  std::string entry;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, entry));
  EXPECT_EQ(entry,
            R"({"error":"","id":"r-1","kind":"request","outcome":"ok",)"
            R"("phases_ms":{"parse":0.5,"serialize":0.75},"ts_ms":5,)"
            R"("verb":"metrics","wall_ms":1.25})");
}

TEST(Logger, JsonLinesCarryComponentLevelAndRequest) {
  std::ostringstream out;
  Logger log{&out, LogFormat::kJson};
  log.info("accepted", "r-3");
  log.error("boom");
  std::istringstream lines{out.str()};
  std::string first;
  std::string second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  EXPECT_EQ(first.find(R"({"component":"serve","level":"info","msg":"accepted","request":"r-3","ts_ms":)"),
            0u);
  EXPECT_EQ(second.find(R"({"component":"serve","level":"error","msg":"boom","ts_ms":)"), 0u);
}

TEST(Logger, TextFormatKeepsLegacyShape) {
  std::ostringstream out;
  Logger log{&out, LogFormat::kText};
  log.info("listening on /tmp/x.sock", "r-1");
  EXPECT_EQ(out.str(), "adhocsim serve: listening on /tmp/x.sock\n");
  Logger disabled{nullptr, LogFormat::kText};
  disabled.info("dropped");  // must not crash
  EXPECT_THROW((void)parse_log_format("yaml"), std::invalid_argument);
}

TEST(ServiceTelemetry, MintsUniqueIdsAndFoldsRequests) {
  ServiceTelemetry telemetry;
  EXPECT_EQ(telemetry.mint_request_id(), "r-1");
  EXPECT_EQ(telemetry.mint_request_id(), "r-2");

  RequestTrace ok{telemetry.mint_request_id(), "submit"};
  ok.add_ns(Phase::kCompute, 1'000'000);
  telemetry.finish_request(ok);
  RequestTrace bad{telemetry.mint_request_id(), "metrics"};
  bad.fail("nope");
  telemetry.finish_request(bad);

  EXPECT_EQ(telemetry.metrics.value(
                "serve", R"(requests_total{outcome="ok",verb="submit"})"),
            1.0);
  EXPECT_EQ(telemetry.metrics.value(
                "serve", R"(requests_total{outcome="error",verb="metrics"})"),
            1.0);
  EXPECT_EQ(telemetry.metrics.value("serve", R"(request_wall_ms{verb="submit"}.count)"), 1.0);
  EXPECT_EQ(telemetry.metrics.value("serve", R"(phase_ms{phase="compute"}.count)"), 1.0);
  EXPECT_EQ(telemetry.recorder.recorded(), 2u);
  const std::string dump = telemetry.recorder.to_jsonl(0);
  EXPECT_NE(dump.find(R"("id":"r-3","kind":"request")"), std::string::npos);
  EXPECT_NE(dump.find(R"("id":"r-4","kind":"error")"), std::string::npos);
}

}  // namespace
}  // namespace adhoc::obs::svc
