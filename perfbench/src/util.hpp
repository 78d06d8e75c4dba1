#pragma once
// Helpers shared by the benchmark binary and its self-test: the
// percentile reporting rule, the event-label -> layer map, the seeded
// serve request script, the host reference kernel, and the output
// digest. Nothing here touches the simulator, so the self-test links
// only this.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ percentiles
//
// A timing is reported only at a percentile with at least ten samples
// beyond it: p50 needs 20 samples, p90 needs 100, p99 needs 1000.

/// Smallest sample count that leaves >= 10 samples above percentile
/// `pct` (0 < pct < 100).
[[nodiscard]] std::size_t min_samples_for(double pct);

/// Highest of {50, 90, 99, 99.9} that `n` samples can report, or 0 when
/// even the median has fewer than ten samples beyond it.
[[nodiscard]] double highest_reportable(std::size_t n);

/// Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value.
/// Throws std::logic_error when `values` is too small for `pct` under
/// the rule above.
[[nodiscard]] double percentile(std::vector<double> values, double pct);

[[nodiscard]] double median_of(std::vector<double> values);

// ------------------------------------------------------- label -> layer
//
// Scheduler event labels are "<prefix>.<event>" string literals; the
// prefix names the module that scheduled the event. Events scheduled
// without a label land in their own "(unlabeled)" row.

inline constexpr std::string_view kUnlabeled = "(unlabeled)";

/// Layer for a scheduler label: nullptr -> "(unlabeled)"; a known
/// prefix -> its layer; an unknown prefix (or no '.') -> nullopt, which
/// the benchmark treats as a failed self-check.
[[nodiscard]] std::optional<std::string_view> layer_of(const char* label);

/// Every layer layer_of can return, in report order.
[[nodiscard]] const std::vector<std::string_view>& event_layers();

// ----------------------------------------------------------- serve script
//
// The serve_mixed closed loop replays blocks of four requests: one cold
// submit (fresh seeds, so every run misses the cache and is computed
// and stored) followed by three warm submits, each an exact replay of a
// uniformly chosen earlier obs-"off" cold submit (every run hits). Cold
// submits alternate between obs level "off" and "full"; the "full" ones
// price observability as a client sees it and are not replayed, so warm
// latency stays one population.

struct ScriptedSubmit {
  bool warm = false;
  std::size_t cold_index = 0;  ///< which cold submit this is (or replays), from 0
  std::string grid;
  std::vector<std::uint64_t> seeds;
  std::string obs_level;
};

class RequestScript {
 public:
  static constexpr double kMeasureS = 1.0;  ///< per-run measurement window
  static constexpr double kWarmupS = 0.1;
  static constexpr std::size_t kSeedsPerSubmit = 8;
  static constexpr std::size_t kPointsPerGrid = 4;  ///< four-station grids: rts x tcp
  static constexpr std::size_t kBlock = 4;          ///< 1 cold + 3 warm
  static constexpr std::size_t kRunsPerSubmit = kSeedsPerSubmit * kPointsPerGrid;

  explicit RequestScript(std::uint64_t seed);

  /// The next submit of the script.
  [[nodiscard]] ScriptedSubmit next();

 private:
  std::uint64_t state_;
  std::uint64_t seed_base_ = 1;  ///< first simulation seed of the script
  std::size_t issued_ = 0;
  std::vector<ScriptedSubmit> replayable_;  ///< the obs-"off" cold submits so far
};

// -------------------------------------------------------- host reference
//
// The benchmark host shares its cores with other tenants, and its speed
// drifts by 10-30% over minutes. A fixed bench-owned kernel shaped like
// the simulator's hot path (a heap of timed events, std::function
// callbacks, a hash map of pending events) is timed between samples; a
// slower host slows it and the simulator alike. Wall samples are scaled
// by kReferenceNominalS / (the kernel's recent median time), which puts
// every run at the speed the reference host had when the constant was
// measured.

/// The kernel's median time on the reference host (see README.md).
inline constexpr double kReferenceNominalS = 0.0050;

struct ReferenceRun {
  double wall_s = 0.0;
  std::uint64_t checksum = 0;  ///< fixed: the kernel is deterministic
};

/// Run the reference kernel once.
[[nodiscard]] ReferenceRun run_reference_kernel();

/// Host speed from kernel timings taken between groups of samples.
class HostSpeed {
 public:
  static constexpr std::size_t kWindow = 5;

  /// Time the kernel once; returns the scale for the samples taken
  /// since the previous call.
  double sample() { return add(run_reference_kernel().wall_s); }

  /// Record one kernel timing; returns kReferenceNominalS over the
  /// median of the last kWindow timings (fewer at the start).
  double add(double kernel_s);

  /// Report line: the kernel's median time against the nominal one, and
  /// the pass's headline throughput before scaling.
  [[nodiscard]] std::string report(double unscaled_sim_s_per_wall_s) const;

 private:
  std::vector<double> timings_;
};

// ------------------------------------------------------------------ misc

/// SplitMix64 step: advances `state`, returns the next output.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// FNV-1a over a running 64-bit digest of replication outputs.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::string_view bytes);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Shortest round-trip decimal for a double (JSON number; no NaN/inf).
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench
