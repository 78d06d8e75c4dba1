#include "obs/metrics.hpp"

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace adhoc::obs {

MetricsRegistry::Metric& MetricsRegistry::get_or_create(const std::string& component,
                                                        const std::string& name,
                                                        Metric::Kind kind) {
  auto& slot = components_[component][name];
  if (!slot) {
    slot = std::make_unique<Metric>();
    slot->kind = kind;
  } else if (slot->kind != kind) {
    throw std::logic_error("MetricsRegistry: '" + component + "." + name +
                           "' re-registered as a different kind");
  }
  return *slot;
}

Counter& MetricsRegistry::counter(const std::string& component, const std::string& name) {
  return get_or_create(component, name, Metric::Kind::kCounter).counter;
}

void MetricsRegistry::set_gauge(const std::string& component, const std::string& name,
                                double value) {
  get_or_create(component, name, Metric::Kind::kGauge).gauge = value;
}

double MetricsRegistry::add_gauge(const std::string& component, const std::string& name,
                                  double delta) {
  Metric& m = get_or_create(component, name, Metric::Kind::kGauge);
  m.gauge += delta;
  return m.gauge;
}

void MetricsRegistry::add_probe(const std::string& component, const std::string& name,
                                ProbeFn fn) {
  get_or_create(component, name, Metric::Kind::kProbe).probe = std::move(fn);
}

Distribution& MetricsRegistry::distribution(const std::string& component,
                                            const std::string& name) {
  return get_or_create(component, name, Metric::Kind::kDistribution).dist;
}

void MetricsRegistry::materialize_probes() {
  for (auto& [component, metrics] : components_) {
    for (auto& [name, metric] : metrics) {
      if (metric->kind != Metric::Kind::kProbe) continue;
      metric->gauge = metric->probe ? metric->probe() : 0.0;
      metric->kind = Metric::Kind::kGauge;
      metric->probe = nullptr;
    }
  }
}

void MetricsRegistry::flatten_metric(const std::string& key, const Metric& m,
                                     std::map<std::string, double>& out) const {
  switch (m.kind) {
    case Metric::Kind::kCounter:
      out[key] = static_cast<double>(m.counter.value());
      break;
    case Metric::Kind::kGauge:
      out[key] = m.gauge;
      break;
    case Metric::Kind::kProbe:
      out[key] = m.probe ? m.probe() : 0.0;
      break;
    case Metric::Kind::kDistribution: {
      const auto& p = m.dist.samples();
      out[key + ".count"] = static_cast<double>(p.count());
      if (!p.empty()) {
        out[key + ".mean"] = p.mean();
        out[key + ".min"] = p.min();
        out[key + ".p50"] = p.percentile(50);
        out[key + ".p95"] = p.percentile(95);
        out[key + ".p99"] = p.percentile(99);
        out[key + ".max"] = p.max();
      }
      break;
    }
  }
}

std::map<std::string, double> MetricsRegistry::flatten() const {
  std::map<std::string, double> out;
  for (const auto& [component, metrics] : components_) {
    for (const auto& [name, metric] : metrics) {
      flatten_metric(component + "." + name, *metric, out);
    }
  }
  return out;
}

std::string MetricsRegistry::snapshot_json() const {
  std::string out = "{";
  bool first_component = true;
  for (const auto& [component, metrics] : components_) {
    if (!first_component) out += ',';
    first_component = false;
    // Flatten within the component so distributions expand in place.
    std::map<std::string, double> values;
    for (const auto& [name, metric] : metrics) flatten_metric(name, *metric, values);
    out += '"' + json_escape(component) + "\":" + json_object(values);
  }
  return out + "}";
}

namespace {

/// Map any name fragment onto the Prometheus metric-name charset
/// [a-zA-Z0-9_:]; everything else (dots in component names, dashes)
/// becomes '_'. A leading digit gets a '_' prefix.
std::string prometheus_mangle(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out.front() >= '0' && out.front() <= '9') out.insert(out.begin(), '_');
  return out;
}

/// Prometheus sample value: decimal float; JSON has no NaN/inf but the
/// exposition format spells them "NaN"/"+Inf"/"-Inf".
std::string prometheus_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return json_number(v);
}

/// Insert an extra label (quantile="0.5") into a rendered label set:
/// "" -> {quantile="0.5"}, {a="b"} -> {a="b",quantile="0.5"}.
std::string with_extra_label(const std::string& labels, const std::string& extra) {
  if (labels.empty()) return "{" + extra + "}";
  std::string out = labels;
  out.insert(out.size() - 1, "," + extra);
  return out;
}

}  // namespace

std::string MetricsRegistry::prometheus_text(const std::string& prefix) const {
  struct Family {
    const char* type = "gauge";
    std::vector<std::string> samples;
  };
  // Collect per family first: label variants of one metric are distinct
  // registry entries but must share a single # TYPE line.
  std::map<std::string, Family> families;
  for (const auto& [component, metrics] : components_) {
    for (const auto& [name, metric] : metrics) {
      const std::size_t brace = name.find('{');
      const std::string base = name.substr(0, brace == std::string::npos ? name.size() : brace);
      const std::string labels = brace == std::string::npos ? "" : name.substr(brace);
      const std::string family = prefix + "_" + prometheus_mangle(component + "_" + base);
      Family& f = families[family];
      switch (metric->kind) {
        case Metric::Kind::kCounter:
          f.type = "counter";
          f.samples.push_back(family + labels + " " + std::to_string(metric->counter.value()));
          break;
        case Metric::Kind::kGauge:
          f.samples.push_back(family + labels + " " + prometheus_number(metric->gauge));
          break;
        case Metric::Kind::kProbe:
          f.samples.push_back(family + labels + " " +
                              prometheus_number(metric->probe ? metric->probe() : 0.0));
          break;
        case Metric::Kind::kDistribution: {
          f.type = "summary";
          const auto& p = metric->dist.samples();
          if (!p.empty()) {
            for (const auto& [q, label] :
                 {std::pair<int, const char*>{50, "0.5"}, {95, "0.95"}, {99, "0.99"}}) {
              f.samples.push_back(family +
                                  with_extra_label(labels, std::string{"quantile=\""} + label +
                                                               "\"") +
                                  " " + prometheus_number(p.percentile(q)));
            }
          }
          f.samples.push_back(family + "_sum" + labels + " " +
                              prometheus_number(p.empty() ? 0.0
                                                          : p.mean() * static_cast<double>(
                                                                           p.count())));
          f.samples.push_back(family + "_count" + labels + " " + std::to_string(p.count()));
          break;
        }
      }
    }
  }
  std::string out;
  for (const auto& [family, f] : families) {
    out += "# TYPE " + family + " " + f.type + "\n";
    for (const std::string& sample : f.samples) {
      out += sample;
      out += '\n';
    }
  }
  return out;
}

void MetricsRegistry::write_json(const std::string& path, sim::Time now) const {
  std::ofstream out{path, std::ios::trunc};
  if (!out) throw std::runtime_error("MetricsRegistry: cannot open " + path);
  out << "{\"time_us\":" << json_number(now.to_us()) << ",\"metrics\":" << snapshot_json()
      << "}\n";
  if (!out) throw std::runtime_error("MetricsRegistry: write failed for " + path);
}

}  // namespace adhoc::obs
