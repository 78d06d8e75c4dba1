#pragma once
// Reproduction scorecard: the structured, diffable record a bench run
// leaves behind.
//
// Every bench_* binary feeds a Scorecard with per-cell observations —
// the paper's published value (where the paper states one), the
// simulated/model value, and the derived relative deviation — plus
// deterministic run counters (scheduler events, queue high-water) and
// wall-clock perf numbers (wall_ms, events/sec).
//
// The scorecard serialises to two files:
//
//   BENCH_<name>.json       fidelity record. Byte-stable: cells sorted
//                           by id, object keys sorted, every float
//                           through obs::json_number (locale-free,
//                           shortest-round-trip). Running the same bench
//                           twice with the same seeds — at any campaign
//                           worker count — produces identical bytes.
//   BENCH_<name>.perf.json  perf sidecar. Carries the wall-clock numbers
//                           (inherently non-reproducible), kept out of
//                           the fidelity file so byte-stability holds.
//
// tools/bench_check.py diffs these against the checked-in baselines
// under bench/baselines/ (`--bench NAME` for a single pair).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace adhoc::campaign {
struct CampaignResult;
struct PointAggregate;
}

namespace adhoc::report {

/// One scored observation. `paper` is the published reference value when
/// the paper states one (Table 2/3 cells, analytical bounds); cells
/// without a crisp published number are still scored against the
/// checked-in baseline by tools/bench_check.py.
struct Cell {
  std::string id;    ///< stable slug, e.g. "11mbps/512B/basic"
  double sim = 0.0;  ///< simulated / model value
  std::optional<double> paper;
  std::string unit;  ///< "Mbps", "kbps", "loss", "m", ...

  /// (sim - paper) / |paper|; nullopt without a paper value or when the
  /// paper value is zero.
  [[nodiscard]] std::optional<double> rel_dev() const;
};

class Scorecard {
 public:
  /// `bench` names the artifact: write() emits BENCH_<bench>.json.
  explicit Scorecard(std::string bench);

  [[nodiscard]] const std::string& bench() const { return bench_; }

  /// Record the seed set the bench ran with (part of the fidelity file:
  /// a baseline only binds results for its seed set).
  void set_seeds(std::vector<std::uint64_t> seeds);

  /// Add a scored cell. Throws std::invalid_argument on an empty or
  /// duplicate id — ids key the baseline diff, so they must be unique.
  void add_cell(std::string id, double sim, std::optional<double> paper = std::nullopt,
                std::string unit = {});

  /// Deterministic run counter (scheduler events executed, queue
  /// high-water, runs completed...). Lives in the fidelity file.
  void set_counter(const std::string& name, std::uint64_t value);

  /// Wall-clock perf number (wall_ms, events_per_sec, jobs...). Lives in
  /// the perf sidecar only, never in the byte-stable fidelity file.
  void set_perf(const std::string& name, double value);

  /// Fold a campaign result in: total simulation events and ok/failed
  /// run counts become counters; wall_ms, events_per_sec and the worker
  /// count become perf numbers. Safe to call for several campaigns — the
  /// counters accumulate.
  void add_campaign(const campaign::CampaignResult& result);

  /// Campaign scorecard sink: one cell per (grid point, metric) with id
  /// "<metric>/<campaign::point_id(params)>" and the per-point mean as
  /// the sim value. `unit_by_metric` optionally labels units.
  void add_points(const std::vector<campaign::PointAggregate>& points,
                  const std::map<std::string, std::string>& unit_by_metric = {});

  /// Per-cell delay decomposition (journey phase means, microseconds):
  /// "where does the delay go" for a configuration id. The section is
  /// serialised only when at least one breakdown was added, so benches
  /// that never call this produce byte-identical documents to before
  /// the feature existed. Throws std::invalid_argument on an empty or
  /// duplicate id.
  void add_delay_breakdown(std::string id, std::map<std::string, double> phases_us);
  [[nodiscard]] const std::map<std::string, std::map<std::string, double>>& delay_breakdown()
      const {
    return delay_breakdown_;
  }

  [[nodiscard]] const std::vector<Cell>& cells() const { return cells_; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& perf() const { return perf_; }

  /// The byte-stable fidelity document (sorted cells, sorted keys,
  /// locale-free floats), terminated by a newline.
  [[nodiscard]] std::string to_json() const;

  /// The perf sidecar document; empty string when no perf numbers were
  /// recorded.
  [[nodiscard]] std::string perf_json() const;

  /// Write BENCH_<bench>.json (and BENCH_<bench>.perf.json when perf
  /// numbers exist) under `dir`. Returns the fidelity file path. Throws
  /// std::runtime_error on I/O failure, naming the path.
  std::string write(const std::string& dir) const;

  /// "BENCH_<bench>.json" — the name tools/bench_check.py pairs
  /// baselines and fresh artifacts by.
  [[nodiscard]] static std::string file_name(const std::string& bench);
  [[nodiscard]] static std::string perf_file_name(const std::string& bench);

 private:
  std::string bench_;
  std::vector<std::uint64_t> seeds_;
  std::vector<Cell> cells_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> perf_;
  std::map<std::string, std::map<std::string, double>> delay_breakdown_;
};

}  // namespace adhoc::report
