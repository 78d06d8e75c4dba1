#pragma once
// Campaign progress telemetry.
//
// The engine reports run lifecycle events to a TelemetrySink; the JSONL
// sink serialises them as one JSON object per line so external tools can
// tail a live campaign. Schema (all times wall-clock):
//
//   {"event":"campaign_start","campaign":N,"runs":R,"points":P,"seeds":S,"jobs":J}
//   {"event":"run_start","run":i,"point":p,"seed":s,"params":{...}}
//   {"event":"run_end","run":i,"ok":true,"wall_ms":w,
//    "events":e,"events_per_sec":r,"metrics":{...}[,"obs":{...}]}
//   {"event":"run_end","run":i,"ok":false,"wall_ms":w,"error":"..."}
//   {"event":"campaign_end","ok":k,"errors":f,"deduped":d,"wall_ms":w}
//
// "obs" is the run's observability snapshot, present when the campaign
// runs above obs level off (trace ring losses are its "trace.dropped"
// key). "deduped" counts runs collapsed onto an identical (params, seed)
// sibling instead of executing; collapsed runs emit no run_start/run_end
// records of their own (their copies appear only in the final result).
//
// Sinks must be safe to call from multiple worker threads concurrently;
// JsonlSink serialises each record under a mutex.

#include <cstddef>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "campaign/result.hpp"
#include "concurrency/mutex.hpp"

namespace adhoc::campaign {

class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void campaign_start(const std::string& name, std::size_t runs, std::size_t points,
                              std::size_t seeds, unsigned jobs) = 0;
  virtual void run_start(const RunSpec& spec) = 0;
  virtual void run_end(const RunRecord& record) = 0;
  virtual void campaign_end(const CampaignResult& result) = 0;
};

/// Thread-safe JSON-lines sink writing to a stream or file.
class JsonlSink final : public TelemetrySink {
 public:
  /// Write to an externally owned stream (e.g. std::cout, stringstream).
  explicit JsonlSink(std::ostream& out) : out_(&out) {}
  /// Write to a file (truncated). Throws std::runtime_error on failure.
  explicit JsonlSink(const std::string& path);

  void campaign_start(const std::string& name, std::size_t runs, std::size_t points,
                      std::size_t seeds, unsigned jobs) override;
  void run_start(const RunSpec& spec) override;
  void run_end(const RunRecord& record) override;
  void campaign_end(const CampaignResult& result) override;

 private:
  void emit(const std::string& line) EXCLUDES(mutex_);

  std::unique_ptr<std::ofstream> owned_;
  conc::Mutex mutex_{conc::LockRank::kCampaignTelemetry, "campaign.jsonl_sink"};
  /// The output stream; writes interleave per line, never mid-line.
  std::ostream* out_ PT_GUARDED_BY(mutex_);
};

}  // namespace adhoc::campaign
