#include "campaign/telemetry.hpp"

#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace adhoc::campaign {

using obs::json_escape;
using obs::json_number;
using obs::json_object;

JsonlSink::JsonlSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path, std::ios::trunc)), out_(owned_.get()) {
  if (!*owned_) throw std::runtime_error("JsonlSink: cannot open " + path);
}

void JsonlSink::emit(const std::string& line) {
  const conc::MutexLock lock{mutex_};
  *out_ << line << '\n';
  out_->flush();  // keep the file tailable while the campaign runs
}

void JsonlSink::campaign_start(const std::string& name, std::size_t runs, std::size_t points,
                               std::size_t seeds, unsigned jobs) {
  std::ostringstream os;
  os << R"({"event":"campaign_start","campaign":")" << json_escape(name) << R"(","runs":)" << runs
     << R"(,"points":)" << points << R"(,"seeds":)" << seeds << R"(,"jobs":)" << jobs << '}';
  emit(os.str());
}

void JsonlSink::run_start(const RunSpec& spec) {
  std::ostringstream os;
  os << R"({"event":"run_start","run":)" << spec.run_index << R"(,"point":)" << spec.point_index
     << R"(,"seed":)" << spec.seed << R"(,"params":)" << json_object(spec.params) << '}';
  emit(os.str());
}

void JsonlSink::run_end(const RunRecord& r) {
  std::ostringstream os;
  os << R"({"event":"run_end","run":)" << r.spec.run_index << R"(,"ok":)"
     << (r.ok ? "true" : "false") << R"(,"wall_ms":)" << json_number(r.wall_seconds * 1e3);
  if (r.ok) {
    const double rate =
        r.wall_seconds > 0.0 ? static_cast<double>(r.metrics.events) / r.wall_seconds : 0.0;
    os << R"(,"events":)" << r.metrics.events << R"(,"events_per_sec":)" << json_number(rate)
       << R"(,"metrics":)" << json_object(r.metrics.metrics);
    if (!r.metrics.obs.empty()) os << R"(,"obs":)" << json_object(r.metrics.obs);
  } else {
    os << R"(,"error":")" << json_escape(r.error) << '"';
  }
  os << '}';
  emit(os.str());
}

void JsonlSink::campaign_end(const CampaignResult& result) {
  std::ostringstream os;
  os << R"({"event":"campaign_end","ok":)" << result.ok_count() << R"(,"errors":)"
     << result.error_count() << R"(,"deduped":)" << result.deduped << R"(,"wall_ms":)"
     << json_number(result.wall_seconds * 1e3) << '}';
  emit(os.str());
}

}  // namespace adhoc::campaign
