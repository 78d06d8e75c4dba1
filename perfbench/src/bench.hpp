#pragma once
// Shared types of the benchmark binary: options, the result a workload
// returns, and the catalogue of metric names and units every run must
// print (BENCHMARK.json lists the same names).

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string work_dir;  ///< scratch space for serve_mixed (cache, socket)
};

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Printed with --trace 0, on every workload.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Printed with --trace 1, on every workload (0 where a layer does not
/// run in that workload; see perfbench/README.md).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> lines;  ///< human-readable report, printed before the JSON
  std::string digest;              ///< output_digest: moves when simulation outputs move

  void set(std::string name, double value) { metrics.emplace_back(std::move(name), value); }
  void note(std::string line) { lines.push_back(std::move(line)); }
  /// A failed self-check: the run's numbers cannot be trusted.
  void check_failed(const std::string& why) {
    correct = false;
    note("CHECK FAILED: " + why);
  }
};

[[nodiscard]] Result run_fig7_grid(const Options& opt);
[[nodiscard]] Result run_manet_200(const Options& opt);
[[nodiscard]] Result run_serve_mixed(const Options& opt);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Seed of replication `i` of a run seeded with `workload_seed`.
[[nodiscard]] std::uint64_t replication_seed(std::uint64_t workload_seed, std::uint64_t i);

}  // namespace perfbench
