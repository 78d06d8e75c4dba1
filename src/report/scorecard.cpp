#include "report/scorecard.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "campaign/aggregate.hpp"
#include "campaign/result.hpp"
#include "obs/json.hpp"

namespace adhoc::report {

using obs::json_escape;
using obs::json_number;
using obs::json_object;

std::optional<double> Cell::rel_dev() const {
  if (!paper.has_value() || *paper == 0.0) return std::nullopt;  // NOLINT-ADHOC(fp-compare)
  return (sim - *paper) / std::abs(*paper);
}

Scorecard::Scorecard(std::string bench) : bench_(std::move(bench)) {
  if (bench_.empty()) throw std::invalid_argument("Scorecard: empty bench name");
}

void Scorecard::set_seeds(std::vector<std::uint64_t> seeds) { seeds_ = std::move(seeds); }

void Scorecard::add_cell(std::string id, double sim, std::optional<double> paper,
                         std::string unit) {
  if (id.empty()) throw std::invalid_argument("Scorecard: empty cell id");
  for (const Cell& c : cells_) {
    if (c.id == id) throw std::invalid_argument("Scorecard: duplicate cell id '" + id + "'");
  }
  cells_.push_back({std::move(id), sim, paper, std::move(unit)});
}

void Scorecard::set_counter(const std::string& name, std::uint64_t value) {
  counters_[name] = value;
}

void Scorecard::set_perf(const std::string& name, double value) { perf_[name] = value; }

void Scorecard::add_campaign(const campaign::CampaignResult& result) {
  counters_["events"] += result.events_total();
  counters_["runs_ok"] += result.ok_count();
  counters_["runs_failed"] += result.error_count();
  const double wall_ms = result.wall_seconds * 1e3;
  perf_["wall_ms"] += wall_ms;
  set_perf("jobs", static_cast<double>(result.jobs));
  const double total_wall_s = perf_["wall_ms"] / 1e3;
  if (total_wall_s > 0.0) {
    set_perf("events_per_sec", static_cast<double>(counters_["events"]) / total_wall_s);
  }
}

void Scorecard::add_points(const std::vector<campaign::PointAggregate>& points,
                           const std::map<std::string, std::string>& unit_by_metric) {
  for (const auto& p : points) {
    const std::string suffix = campaign::point_id(p.params);
    for (const auto& [metric, summary] : p.metrics) {
      const auto unit_it = unit_by_metric.find(metric);
      add_cell(metric + "/" + suffix, summary.mean(), std::nullopt,
               unit_it == unit_by_metric.end() ? std::string{} : unit_it->second);
    }
  }
}

void Scorecard::add_delay_breakdown(std::string id, std::map<std::string, double> phases_us) {
  if (id.empty()) throw std::invalid_argument("Scorecard: empty delay_breakdown id");
  if (delay_breakdown_.contains(id)) {
    throw std::invalid_argument("Scorecard: duplicate delay_breakdown id '" + id + "'");
  }
  delay_breakdown_.emplace(std::move(id), std::move(phases_us));
}

namespace {

std::string cell_json(const Cell& c) {
  // Keys in alphabetical order: id, paper, rel_dev, sim, unit.
  std::string out = "{\"id\":\"" + json_escape(c.id) + "\"";
  if (c.paper.has_value()) out += ",\"paper\":" + json_number(*c.paper);
  if (const auto dev = c.rel_dev(); dev.has_value()) {
    out += ",\"rel_dev\":" + json_number(*dev);
  }
  out += ",\"sim\":" + json_number(c.sim);
  if (!c.unit.empty()) out += ",\"unit\":\"" + json_escape(c.unit) + "\"";
  return out + "}";
}

}  // namespace

std::string Scorecard::to_json() const {
  // One cell per line, cells sorted by id, top-level keys alphabetical —
  // the exact layout diffs and merges cleanly in a checked-in baseline.
  std::vector<const Cell*> ordered;
  ordered.reserve(cells_.size());
  for (const Cell& c : cells_) ordered.push_back(&c);
  std::sort(ordered.begin(), ordered.end(),
            [](const Cell* a, const Cell* b) { return a->id < b->id; });

  std::string out = "{\n\"bench\":\"" + json_escape(bench_) + "\",\n\"cells\":[";
  bool first = true;
  for (const Cell* c : ordered) {
    out += first ? "\n" : ",\n";
    first = false;
    out += cell_json(*c);
  }
  out += "\n],\n\"counters\":" + json_object(counters_);
  if (!delay_breakdown_.empty()) {
    // Optional section, top-level key order stays alphabetical:
    // counters < delay_breakdown < schema. Absent when unused, so
    // pre-existing baselines keep their exact bytes.
    out += ",\n\"delay_breakdown\":{";
    first = true;
    for (const auto& [id, phases] : delay_breakdown_) {
      out += first ? "\n" : ",\n";
      first = false;
      out += '"' + json_escape(id) + "\":" + json_object(phases);
    }
    out += "\n}";
  }
  out += ",\n\"schema\":1,\n\"seeds\":[";
  first = true;
  for (const std::uint64_t s : seeds_) {
    if (!first) out += ',';
    first = false;
    out += json_number(static_cast<double>(s));
  }
  out += "]\n}\n";
  return out;
}

std::string Scorecard::perf_json() const {
  if (perf_.empty()) return {};
  return "{\n\"bench\":\"" + json_escape(bench_) + "\",\n\"perf\":" + json_object(perf_) +
         ",\n\"schema\":1\n}\n";
}

std::string Scorecard::file_name(const std::string& bench) { return "BENCH_" + bench + ".json"; }

std::string Scorecard::perf_file_name(const std::string& bench) {
  return "BENCH_" + bench + ".perf.json";
}

namespace {

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out{path, std::ios::trunc | std::ios::binary};
  if (!out) throw std::runtime_error("Scorecard: cannot open " + path);
  out << content;
  if (!out) throw std::runtime_error("Scorecard: write failed for " + path);
}

}  // namespace

std::string Scorecard::write(const std::string& dir) const {
  const std::string base = dir.empty() ? std::string{"."} : dir;
  const std::string main_path = base + "/" + file_name(bench_);
  write_file(main_path, to_json());
  if (const std::string perf = perf_json(); !perf.empty()) {
    write_file(base + "/" + perf_file_name(bench_), perf);
  }
  return main_path;
}

}  // namespace adhoc::report
