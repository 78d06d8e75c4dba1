// serve_mixed: an in-process serve::Server on an AF_UNIX socket with a
// fresh on-disk ResultCache and two engine workers, driven in a closed
// loop by one serve::Client connection — each submit is sent only after
// the previous one's submit_end arrived, as `adhocsim submit` does. The
// script (util.hpp) mixes three warm submits (all cache hits) per cold
// one (all misses, computed and stored).
//
// Requests are timed at the client, from writing the request line to
// reading submit_end. submit_end's own wall_ms is the engine wall of the
// misses only and reads 0 on an all-hit submit, so it is not request
// latency.

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "cache/result_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/svc/telemetry.hpp"
#include "report/json_read.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

using namespace adhoc;
namespace fs = std::filesystem;

constexpr unsigned kEngineJobs = 2;
constexpr std::size_t kSetupSamples = 51;
constexpr std::size_t kSetupAfterBlocks = 10;  // 320 cached runs to index
constexpr std::size_t kTracedBlocks = 40;  // 160 submits: >= 100 warm for p90

/// The daemon: cache `dir`/cache opened and socket `dir`/`socket`
/// bound on construction; serve() runs the accept loop on its own
/// thread until destruction.
class Daemon {
 public:
  Daemon(const std::string& dir, std::size_t flight_requests, const std::string& socket = "d.sock")
      : cache_{cache::CacheConfig{dir + "/cache", "", 0, 0}},
        telemetry_{obs::svc::TelemetryConfig{flight_requests, 64}},
        server_{server_config(dir + "/" + socket)} {
    telemetry_.metrics.attach([this](obs::MetricsRegistry& reg) { cache_.attach_metrics(reg); });
    server_.start();
  }
  ~Daemon() {
    if (thread_.joinable()) {
      server_.stop();
      thread_.join();
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void serve() {
    thread_ = std::thread([this] { server_.run(); });
  }
  /// Stop accepting and join the accept loop (after the client is gone).
  void shutdown() {
    server_.stop();
    thread_.join();
  }

  [[nodiscard]] static std::string socket_path(const std::string& dir) { return dir + "/d.sock"; }
  [[nodiscard]] cache::ResultCache& cache() { return cache_; }
  [[nodiscard]] obs::svc::ServiceTelemetry& telemetry() { return telemetry_; }

 private:
  serve::ServerConfig server_config(const std::string& socket_path) {
    serve::ServerConfig sc;
    sc.socket_path = socket_path;
    sc.service.jobs = kEngineJobs;
    sc.service.cache = &cache_;
    sc.service.metrics = &telemetry_.metrics;
    sc.telemetry = &telemetry_;
    return sc;
  }

  cache::ResultCache cache_;
  obs::svc::ServiceTelemetry telemetry_;
  serve::Server server_;
  std::thread thread_;
};

/// One finished submit as the client saw it.
struct Exchange {
  ScriptedSubmit submit;
  double ms = 0.0;                 ///< client latency
  double scale = 1.0;              ///< host-speed scale (timed pass)
  std::size_t bytes = 0;           ///< response bytes, newlines included
  std::string payload_digest;      ///< of the run lines (minus "cached") + scorecard line
  std::vector<double> run_wall_ms;  ///< engine run_end records (misses only)
  std::string request_id;
};

std::string request_line(const ScriptedSubmit& s) {
  serve::SubmitRequest req;
  req.grid = s.grid;
  req.seeds = s.seeds;
  req.seconds = RequestScript::kMeasureS;
  req.warmup_s = RequestScript::kWarmupS;
  req.obs_level = s.obs_level;
  return req.to_json();
}

/// The simulation outputs of one run line — params, seed, event count
/// and experiment metrics — without the record's "obs" section, which at
/// the `full` preset embeds profiler wall times.
std::string obs_free_outputs(const report::JsonValue& run, const report::JsonValue& record) {
  std::string out;
  for (const auto& [name, value] : run.find("params")->object()) {
    out += name + '=' + json_number(value.number()) + ',';
  }
  out += "seed=" + json_number(run.find("seed")->number()) +
         ",events=" + json_number(record.find("events")->number());
  for (const auto& [name, value] : record.find("metrics")->object()) {
    out += ',' + name + '=' + json_number(value.number());
  }
  return out + '\n';
}

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

/// Checks one response against the script; returns an empty string when
/// it is correct, else what is wrong. Fills `payload` (run lines minus
/// the "cached" flag, then the scorecard line) and `sim_outputs`.
std::string check_response(const std::vector<std::string>& lines, std::size_t runs,
                           Exchange& ex, std::string& payload, std::string& sim_outputs) {
  const bool warm = ex.submit.warm;
  const std::string cached_prefix = warm ? R"({"cached":1,)" : R"({"cached":0,)";
  std::size_t run_lines = 0;
  for (const std::string& line : lines) {
    ex.bytes += line.size() + 1;
    if (starts_with(line, R"({"cached":)")) {
      if (!starts_with(line, cached_prefix)) return "run line with the wrong cached flag";
      ++run_lines;
      payload.append(line, cached_prefix.size()).push_back('\n');
      const report::JsonValue run = report::JsonValue::parse(line);
      sim_outputs += obs_free_outputs(run, *run.find("record"));
    } else if (starts_with(line, R"({"bench":)")) {
      payload.append(line).push_back('\n');
    } else if (starts_with(line, R"({"event":"run_end")")) {
      ex.run_wall_ms.push_back(report::JsonValue::parse(line).number_or("wall_ms", 0.0));
    }
  }
  const report::JsonValue end = report::JsonValue::parse(lines.back());
  const auto* type = end.find("type");
  if (type == nullptr || !type->is_string() || type->str() != "submit_end") {
    return "terminal line is not submit_end: " + lines.back();
  }
  if (const auto* id = end.find("request"); id != nullptr && id->is_string()) {
    ex.request_id = id->str();
  }
  const auto n = static_cast<double>(runs);
  if (run_lines != runs || end.number_or("ok", -1) != n || end.number_or("errors", -1) != 0 ||
      end.number_or("cache_hits", -1) != (warm ? n : 0.0) ||
      end.number_or("cache_misses", -1) != (warm ? 0.0 : n)) {
    return "unexpected submit_end for a " + std::string{warm ? "warm" : "cold"} + " submit: " +
           lines.back();
  }
  return {};
}

/// Drives the closed loop until `keep_going(exchanges so far)` turns
/// false at a block boundary. Checks every response; failures are
/// counted in `res`. Returns the loop's wall time in seconds.
template <typename KeepGoing>
double closed_loop(const std::string& dir, std::uint64_t seed, KeepGoing keep_going,
                   std::vector<Exchange>& out, Result& res, Digest& digest) {
  RequestScript script{seed};
  std::map<std::size_t, std::string> replayable;  // cold index -> payload, obs-"off" colds
  serve::Client client{Daemon::socket_path(dir)};
  const Clock::time_point start = Clock::now();
  while (out.size() % RequestScript::kBlock != 0 || keep_going(out)) {
    Exchange ex;
    ex.submit = script.next();
    const std::string line = request_line(ex.submit);
    std::vector<std::string> lines;
    const Clock::time_point t0 = Clock::now();
    client.request(line, [&lines](const std::string& l) { lines.push_back(l); });
    ex.ms = seconds_since(t0) * 1e3;
    ++res.attempted;

    std::string payload;
    std::string sim_outputs;
    std::string problem = check_response(lines, RequestScript::kRunsPerSubmit, ex, payload, sim_outputs);
    if (problem.empty()) {
      if (!ex.submit.warm) {
        digest.add(sim_outputs);
        if (ex.submit.obs_level == "off") replayable.emplace(ex.submit.cold_index, payload);
      } else if (payload != replayable.at(ex.submit.cold_index)) {
        problem = "warm payload differs from its cold payload";
      }
    }
    Digest payload_digest;
    payload_digest.add(payload);
    ex.payload_digest = payload_digest.hex();
    if (!problem.empty()) {
      ++res.failed;
      res.note("submit " + std::to_string(out.size()) + ": " + problem);
    }
    out.push_back(std::move(ex));
  }
  return seconds_since(start);
}

double sim_s_of(const ScriptedSubmit& s) {
  return static_cast<double>(s.seeds.size() * RequestScript::kPointsPerGrid) *
         (RequestScript::kMeasureS + RequestScript::kWarmupS);
}

/// Client latencies of the warm submits or of the cold obs-"off" ones.
std::vector<double> pick(const std::vector<Exchange>& ex, bool warm) {
  std::vector<double> ms;
  for (const Exchange& e : ex) {
    if (e.submit.warm == warm && e.submit.obs_level == "off") ms.push_back(e.ms);
  }
  return ms;
}

/// Time one restart of a daemon over the cache in `dir` (cache open,
/// which indexes every stored run, plus server construction and socket
/// bind on a second socket), then tear it down.
double daemon_restart_s(const std::string& dir) {
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  {
    const Daemon restarted{dir, 256, "restart.sock"};
    elapsed = seconds_since(t0);
  }
  return elapsed;
}

Result timed_pass(const Options& opt) {
  Result res;
  Digest digest;
  // Set-up: daemon restarts over the cache as the first kSetupAfterBlocks
  // blocks left it, timed between blocks. A restart re-indexes the
  // stored runs; starts over an empty cache are dominated by directory
  // creation, whose latency on the reference host swings 10x with the
  // host's disk load.
  HostSpeed host;
  (void)run_reference_kernel();
  std::vector<double> setup_s;
  const std::string dir = opt.work_dir + "/daemon";
  fs::create_directories(dir);
  std::vector<Exchange> ex;
  double loop_s = 0.0;
  {
    Daemon daemon{dir, 256};
    daemon.serve();
    const Clock::time_point start = Clock::now();
    loop_s = closed_loop(
        dir, opt.seed,
        [&](std::vector<Exchange>& so_far) {
          // Between blocks: scale the block just finished.
          const double scale = host.sample();
          for (std::size_t k = so_far.size() - std::min(so_far.size(), RequestScript::kBlock);
               k < so_far.size(); ++k) {
            so_far[k].scale = scale;
          }
          if (so_far.size() == kSetupAfterBlocks * RequestScript::kBlock) {
            for (std::size_t k = 0; k < kSetupSamples; ++k) {
              setup_s.push_back(daemon_restart_s(dir) * scale);
            }
          }
          return seconds_since(start) < opt.seconds ||
                 so_far.size() < min_samples_for(50.0) ||
                 setup_s.empty();
        },
        ex, res, digest);
    daemon.shutdown();
  }
  fs::remove_all(dir);

  double sim_s[2] = {0.0, 0.0};  // [off, full] cold submits
  double wall_s[2] = {0.0, 0.0};
  double raw_off_wall_s = 0.0;  // unscaled, for the report
  std::vector<double> all_ms;
  double all_s = 0.0;
  for (const Exchange& e : ex) {
    all_ms.push_back(e.ms * e.scale);
    all_s += e.ms * e.scale / 1e3;
    if (e.submit.warm) continue;
    const int full = e.submit.obs_level == "full" ? 1 : 0;
    sim_s[full] += sim_s_of(e.submit);
    wall_s[full] += e.ms * e.scale / 1e3;
    if (full == 0) raw_off_wall_s += e.ms / 1e3;
  }
  res.set("setup_s", median_of(setup_s));
  res.set("sim_s_per_wall_s", sim_s[0] / wall_s[0]);
  res.set("observed_sim_s_per_wall_s", sim_s[1] / wall_s[1]);
  res.set("request_ms.p50", percentile(all_ms, 50.0));
  res.set("requests_per_s", static_cast<double>(ex.size()) / all_s);
  res.set("peak_rss_mb", peak_rss_mb());
  res.digest = digest.hex();

  const std::vector<double> warm = pick(ex, true);
  const std::vector<double> cold = pick(ex, false);
  std::ostringstream os;
  os << "timed pass: " << ex.size() << " submits (" << warm.size() << " warm, " << cold.size()
     << " cold obs-off, " << ex.size() - warm.size() - cold.size() << " cold obs-full) in "
     << loop_s << " s; " << setup_s.size() << " daemon restarts over "
     << kSetupAfterBlocks * RequestScript::kRunsPerSubmit << " cached runs";
  res.note(os.str());
  res.note(host.report(sim_s[0] / raw_off_wall_s));
  os.str("");
  os << "client latency (unscaled): warm p50 " << percentile(warm, 50.0) << " ms";
  if (highest_reportable(warm.size()) >= 90.0) os << ", warm p90 " << percentile(warm, 90.0) << " ms";
  if (highest_reportable(warm.size()) >= 99.0) os << ", warm p99 " << percentile(warm, 99.0) << " ms";
  if (highest_reportable(cold.size()) >= 50.0) os << ", cold p50 " << percentile(cold, 50.0) << " ms";
  res.note(os.str());
  return res;
}

/// Per-request phase timings from the flight recorder, by request id.
std::map<std::string, std::map<std::string, double>> phases_by_request(
    obs::svc::ServiceTelemetry& telemetry) {
  std::map<std::string, std::map<std::string, double>> out;
  std::istringstream dump{telemetry.recorder.to_jsonl(0)};
  for (std::string line; std::getline(dump, line);) {
    const report::JsonValue doc = report::JsonValue::parse(line);
    const auto* kind = doc.find("kind");
    if (kind == nullptr || kind->str() != "request") continue;
    auto& phases = out[doc.find("id")->str()];
    for (const auto& [phase, ms] : doc.find("phases_ms")->object()) phases[phase] = ms.number();
  }
  return out;
}

Result traced_pass(const Options& opt) {
  Result res;
  const auto fixed_script = [](const std::vector<Exchange>& so_far) {
    return so_far.size() < kTracedBlocks * RequestScript::kBlock;
  };

  // The same fixed script twice, each against a fresh daemon: once as
  // the timed pass runs it, once with a flight recorder large enough to
  // keep every request's phase breakdown.
  double wall_s[2] = {0.0, 0.0};
  std::string digests[2];
  std::vector<Exchange> passes[2];
  std::map<std::string, std::map<std::string, double>> phases;
  cache::ResultCache::Stats cache_stats;
  for (int traced = 0; traced < 2; ++traced) {
    const std::string dir = opt.work_dir + "/traced" + std::to_string(traced);
    fs::create_directories(dir);
    Digest digest;
    std::vector<Exchange>& pass = passes[traced];
    {
      Daemon daemon{dir, traced == 1 ? 2 * kTracedBlocks * RequestScript::kBlock : 256};
      daemon.serve();
      wall_s[traced] = closed_loop(dir, opt.seed, fixed_script, pass, res, digest);
      daemon.shutdown();
      if (traced == 1) {
        phases = phases_by_request(daemon.telemetry());
        cache_stats = daemon.cache().stats();
      }
    }
    fs::remove_all(dir);
    digests[traced] = digest.hex();
  }
  // The simulation outputs must agree between the two daemons. Whole
  // payload bytes are only reported: at the `full` preset a record's
  // "obs" section carries the scheduler profiler's wall times, so those
  // payloads differ from one computation to the next.
  if (digests[0] != digests[1]) {
    res.check_failed("two daemons computed different simulation outputs for one script");
  }
  res.digest = digests[1];
  std::map<std::string, std::size_t> drifted;
  for (std::size_t i = 0; i < passes[1].size(); ++i) {
    const Exchange& a = passes[0][i];
    if (!a.submit.warm && a.payload_digest != passes[1][i].payload_digest) {
      ++drifted[a.submit.obs_level];
    }
  }
  for (const auto& [level, n] : drifted) {
    res.note("payload bytes: " + std::to_string(n) + " cold `" + level +
             "` submits differ between the two daemons (simulation outputs agree)");
  }
  const std::vector<Exchange>& ex = passes[1];

  std::vector<double> lookup_ms, serialize_ms, stream_ms, compute_ms, run_wall_ms;
  double bytes = 0.0;
  for (const Exchange& e : ex) {
    bytes += static_cast<double>(e.bytes);
    const auto it = phases.find(e.request_id);
    if (it == phases.end()) {
      res.check_failed("no flight-recorder entry for request " + e.request_id);
      continue;
    }
    auto phase = [&](const char* name) {
      const auto p = it->second.find(name);
      return p == it->second.end() ? 0.0 : p->second;
    };
    if (e.submit.warm) {
      lookup_ms.push_back(phase("cache_lookup"));
      serialize_ms.push_back(phase("serialize"));
      stream_ms.push_back(phase("stream"));
    } else if (e.submit.obs_level == "off") {
      compute_ms.push_back(phase("compute"));
      run_wall_ms.insert(run_wall_ms.end(), e.run_wall_ms.begin(), e.run_wall_ms.end());
    }
  }
  const std::vector<double> warm = pick(ex, true);
  const std::vector<double> cold = pick(ex, false);
  res.set("cache.lookup_ms.p50", percentile(lookup_ms, 50.0));
  res.set("cache.hit_ratio",
          static_cast<double>(cache_stats.hits) /
              static_cast<double>(cache_stats.hits + cache_stats.misses));
  res.set("cache.bytes_per_run",
          static_cast<double>(cache_stats.bytes) / static_cast<double>(cache_stats.entries));
  res.set("serve.serialize_ms.p50", percentile(serialize_ms, 50.0));
  res.set("serve.stream_ms.p50", percentile(stream_ms, 50.0));
  res.set("serve.compute_ms.p50", percentile(compute_ms, 50.0));
  res.set("serve.response_bytes_per_request", bytes / static_cast<double>(ex.size()));
  res.set("campaign.run_wall_ms.p50", percentile(run_wall_ms, 50.0));
  res.set("client.warm_request_ms.p50", percentile(warm, 50.0));
  res.set("client.warm_request_ms.p90", percentile(warm, 90.0));
  res.set("client.cold_request_ms.p50", percentile(cold, 50.0));
  res.set("trace_overhead_pct", (wall_s[1] / wall_s[0] - 1.0) * 100.0);

  std::ostringstream os;
  os << "traced pass: " << ex.size() << " submits (" << warm.size() << " warm, " << cold.size()
     << " cold obs-off), " << run_wall_ms.size() << " obs-off engine runs; phases from the daemon's "
     << "RequestTrace via its flight recorder; cache " << cache_stats.entries << " entries, "
     << cache_stats.bytes << " bytes";
  res.note(os.str());
  return res;
}

}  // namespace

Result run_serve_mixed(const Options& opt) {
  fs::remove_all(opt.work_dir);  // left over by an interrupted run
  fs::create_directories(opt.work_dir);
  Result res = opt.trace ? traced_pass(opt) : timed_pass(opt);
  // Delete the caches and flush, so their write-back and discards do
  // not land on whatever runs next.
  fs::remove_all(opt.work_dir);
  ::sync();
  return res;
}

}  // namespace perfbench
