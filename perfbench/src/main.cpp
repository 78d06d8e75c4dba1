// perfbench: the repository benchmark. One workload per invocation:
//
//   perfbench --workload fig7_grid|manet_200|serve_mixed --seed N
//             --seconds S --trace 0|1 [--commit ID] [--work-dir DIR]
//
// Prints a host fingerprint, a human-readable report, the output
// digest, and as its last line one JSON object:
//   {"correct":B,"attempted":N,"failed":N,"metrics":{name:{"value":V,"unit":U}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones. perfbench/README.md defines every metric.

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> m{
      {"setup_s", "s"},
      {"sim_s_per_wall_s", "s/s"},
      {"observed_sim_s_per_wall_s", "s/s"},
      {"request_ms.p50", "ms"},
      {"requests_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return m;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> m{
      {"sim.events_per_sim_s", "1/s"},
      {"sim.cancelled_per_scheduled", "ratio"},
      {"sim.queue_high_water", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.host_share", "frac"},
      {"phy.events_per_sim_s", "1/s"},
      {"phy.deliveries_per_tx", "ratio"},
      {"phy.decoded_per_delivery", "ratio"},
      {"phy.ns_per_event", "ns"},
      {"phy.host_share", "frac"},
      {"spatial.culled_frac", "frac"},
      {"mac.events_per_sim_s", "1/s"},
      {"mac.slot_events_per_backoff_slot", "ratio"},
      {"mac.attempts_per_success", "ratio"},
      {"mac.ns_per_event", "ns"},
      {"mac.host_share", "frac"},
      {"aodv.rreq_per_sim_s", "1/s"},
      {"net.forwarded_per_delivered", "ratio"},
      {"transport.events_per_sim_s", "1/s"},
      {"transport.host_share", "frac"},
      {"tcp.retransmits_per_segment", "ratio"},
      {"app.host_share", "frac"},
      {"unlabeled.events_per_sim_s", "1/s"},
      {"unlabeled.host_share", "frac"},
      {"alloc.per_event", "alloc/event"},
      {"alloc.bytes_per_event", "B/event"},
      {"alloc.per_delivered_frame", "alloc/frame"},
      {"obs.metrics_pct", "%"},
      {"obs.trace_pct", "%"},
      {"obs.profile_pct", "%"},
      {"obs.journeys_pct", "%"},
      {"trace_overhead_pct", "%"},
      {"cache.lookup_ms.p50", "ms"},
      {"cache.hit_ratio", "ratio"},
      {"cache.bytes_per_run", "B"},
      {"serve.serialize_ms.p50", "ms"},
      {"serve.stream_ms.p50", "ms"},
      {"serve.compute_ms.p50", "ms"},
      {"serve.response_bytes_per_request", "B"},
      {"campaign.run_wall_ms.p50", "ms"},
      {"client.warm_request_ms.p50", "ms"},
      {"client.warm_request_ms.p90", "ms"},
      {"client.cold_request_ms.p50", "ms"},
  };
  return m;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t replication_seed(std::uint64_t workload_seed, std::uint64_t i) {
  std::uint64_t state = workload_seed * 0x100000001b3ULL + i;
  return 1 + splitmix64(state) % 2'000'000'000ULL;
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload fig7_grid|manet_200|serve_mixed --seed N "
               "--seconds S --trace 0|1 [--commit ID] [--work-dir DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    seen.insert(flag);
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
        if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) usage("--seconds must be in (0, 120]");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace must be 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--commit") {
        opt.commit = value;
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (!seen.contains(required)) usage(std::string{"missing "} + required);
  }
  if (opt.work_dir.empty()) opt.work_dir = ".bench_build/perfbench-work";
  return opt;
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);

  std::cout << "fingerprint {\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
            << ",\"commit\":" << json_string(opt.commit)
            << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
            << ",\"cpu\":" << json_string(cpu_model())
            << ",\"nproc\":" << std::thread::hardware_concurrency() << "}\n";
  std::cout << "workload " << opt.workload << " seed " << opt.seed << " seconds " << opt.seconds
            << " trace " << (opt.trace ? 1 : 0) << std::endl;

  Result res;
  try {
    if (opt.workload == "fig7_grid") {
      res = run_fig7_grid(opt);
    } else if (opt.workload == "manet_200") {
      res = run_manet_200(opt);
    } else if (opt.workload == "serve_mixed") {
      res = run_serve_mixed(opt);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what() << '\n';
    return 1;
  }

  // Every run prints the full catalogue for its mode; a layer the
  // workload does not exercise reads 0 (see README.md).
  const std::vector<MetricSpec>& catalogue =
      opt.trace ? per_layer_metrics() : end_to_end_metrics();
  std::map<std::string, double> values;
  for (const auto& [name, value] : res.metrics) {
    bool known = false;
    for (const MetricSpec& spec : catalogue) known = known || spec.name == name;
    if (!known || !values.emplace(name, value).second) {
      std::cerr << "perfbench: metric '" << name << "' is not in the catalogue or set twice\n";
      return 1;
    }
  }

  for (const std::string& line : res.lines) std::cout << line << '\n';
  std::cout << "output_digest " << res.digest << '\n';
  std::cout << "failed_frac " << json_number(static_cast<double>(res.failed) /
                                             static_cast<double>(res.attempted))
            << " (" << res.failed << " of " << res.attempted << ")\n";
  std::string json = "{\"correct\":";
  json += res.correct && res.failed == 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(res.attempted);
  json += ",\"failed\":" + std::to_string(res.failed);
  json += ",\"metrics\":{";
  bool first = true;
  for (const MetricSpec& spec : catalogue) {
    const auto it = values.find(std::string{spec.name});
    const double v = it == values.end() ? 0.0 : it->second;
    std::cout << spec.name << " = " << json_number(v) << ' ' << spec.unit
              << (it == values.end() ? "  (not exercised by this workload)" : "") << '\n';
    if (!first) json += ',';
    first = false;
    json += "\"" + std::string{spec.name} + "\":{\"value\":" + json_number(v) +
            ",\"unit\":\"" + std::string{spec.unit} + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
