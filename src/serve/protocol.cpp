#include "serve/protocol.hpp"

#include <cmath>
#include <stdexcept>

#include "faults/fault_plan.hpp"
#include "obs/json.hpp"
#include "obs/observer.hpp"
#include "sim/time.hpp"

namespace adhoc::serve {

namespace {

std::uint64_t checked_u64(double v, const char* what) {
  if (!(v >= 0.0) || std::floor(v) != v || v > 9.007199254740992e15) {
    throw std::invalid_argument(std::string{"serve: non-integral "} + what + " in payload");
  }
  return static_cast<std::uint64_t>(v);
}

std::map<std::string, double> number_map(const report::JsonValue& v, const char* what) {
  std::map<std::string, double> out;
  if (!v.is_object()) throw std::invalid_argument(std::string{"serve: payload "} + what + " is not an object");
  for (const auto& [name, member] : v.object()) out[name] = member.number();
  return out;
}

}  // namespace

experiments::ExperimentConfig SubmitRequest::to_config() const {
  if (!(seconds > 0.0)) throw std::invalid_argument("serve: submit seconds must be > 0");
  if (!(warmup_s >= 0.0)) throw std::invalid_argument("serve: submit warmup must be >= 0");
  if (seeds.empty()) throw std::invalid_argument("serve: submit seeds must be non-empty");
  experiments::ExperimentConfig cfg;
  cfg.seeds = seeds;
  cfg.measure = sim::Time::from_sec(seconds);
  cfg.warmup = sim::Time::from_sec(warmup_s);
  const auto level = obs::obs_level_from_string(obs_level);
  if (!level) {
    throw std::invalid_argument("serve: unknown obs_level '" + obs_level +
                                "' (off|metrics|trace|full|journeys)");
  }
  cfg.obs_level = *level;
  if (!fault_plan.empty()) cfg.faults = faults::load_fault_plan(fault_plan);
  return cfg;
}

std::string SubmitRequest::to_json() const {
  std::string out = R"({"fault_plan":")" + obs::json_escape(fault_plan) + R"(","grid":")" +
                    obs::json_escape(grid) + R"(","obs_level":")" + obs::json_escape(obs_level) +
                    R"(","probes":)" + std::to_string(probes) + R"(,"seconds":)" +
                    obs::json_number(seconds) + R"(,"seeds":[)";
  bool first = true;
  for (const std::uint64_t s : seeds) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(s);
  }
  out += R"(],"type":"submit","warmup":)" + obs::json_number(warmup_s) + '}';
  return out;
}

SubmitRequest parse_submit_request(const report::JsonValue& doc) {
  if (!doc.is_object()) throw std::invalid_argument("serve: submit request is not an object");
  SubmitRequest req;
  if (const auto* v = doc.find("grid")) req.grid = v->str();
  if (const auto* v = doc.find("seeds")) {
    req.seeds.clear();
    for (const auto& s : v->array()) req.seeds.push_back(checked_u64(s.number(), "seed"));
  }
  if (const auto* v = doc.find("seconds")) req.seconds = v->number();
  if (const auto* v = doc.find("warmup")) req.warmup_s = v->number();
  if (const auto* v = doc.find("obs_level")) req.obs_level = v->str();
  if (const auto* v = doc.find("fault_plan")) req.fault_plan = v->str();
  if (const auto* v = doc.find("probes")) {
    req.probes = static_cast<std::uint32_t>(checked_u64(v->number(), "probes"));
    if (req.probes == 0) throw std::invalid_argument("serve: probes must be > 0");
  }
  return req;
}

std::string record_json(const campaign::RunRecord& record) {
  if (!record.ok) return R"({"error":")" + obs::json_escape(record.error) + R"(","ok":false})";
  return R"({"events":)" + std::to_string(record.metrics.events) + R"(,"metrics":)" +
         obs::json_object(record.metrics.metrics) + R"(,"obs":)" +
         obs::json_object(record.metrics.obs) + R"(,"ok":true})";
}

campaign::RunRecord parse_record_json(const std::string& payload) {
  report::JsonValue doc;
  try {
    doc = report::JsonValue::parse(payload);
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string{"serve: malformed record payload: "} + e.what());
  }
  const auto* ok = doc.find("ok");
  if (ok == nullptr) throw std::invalid_argument("serve: record payload missing ok");
  campaign::RunRecord record;
  record.ok = ok->boolean();
  if (record.ok) {
    const auto* metrics = doc.find("metrics");
    const auto* events = doc.find("events");
    if (metrics == nullptr || events == nullptr) {
      throw std::invalid_argument("serve: ok record payload missing metrics/events");
    }
    record.metrics.metrics = number_map(*metrics, "metrics");
    record.metrics.events = checked_u64(events->number(), "events");
    if (const auto* obs = doc.find("obs")) record.metrics.obs = number_map(*obs, "obs");
  } else {
    const auto* error = doc.find("error");
    if (error == nullptr) throw std::invalid_argument("serve: failed record payload missing error");
    record.error = error->str();
  }
  return record;
}

}  // namespace adhoc::serve
