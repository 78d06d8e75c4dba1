#pragma once
// Parallel campaign execution.
//
// The engine runs every RunSpec of a campaign through a user-supplied run
// function on a std::thread worker pool. Each run builds its own
// Simulator from its seed, so results are bit-identical for a given
// (point, seed) no matter how many workers execute the sweep; workers
// pull specs from a shared atomic cursor and write into pre-sized,
// per-run result slots (no locks on the result path).
//
// Failure isolation: an exception escaping the run function fails that
// run, once, with its message on the record — sibling runs are
// unaffected. Runs are never retried: a run is a pure function of its
// spec, so a second try would fail the same way.
//
// Duplicate collapsing: runs are pure functions of (params, seed), so a
// grid that expands to identical specs (repeated axis values, degenerate
// sweeps) would burn CPU recomputing the same record. The engine
// executes one representative per identical (params, seed) group and
// copies its record into every duplicate slot (under the duplicate's own
// run/point indices); CampaignResult::deduped counts the collapsed runs
// and rides the campaign_end telemetry record.

#include <functional>
#include <string>

#include "campaign/grid.hpp"
#include "campaign/result.hpp"
#include "campaign/telemetry.hpp"

namespace adhoc::campaign {

/// Executes one RunSpec. Must be callable from any worker thread; any
/// state it touches beyond the spec must be its own (build the Simulator
/// inside) or immutable.
using RunFn = std::function<RunMetrics(const RunSpec&)>;

struct EngineConfig {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned jobs = 0;
  /// Optional progress sink; must outlive the engine's run() call.
  TelemetrySink* telemetry = nullptr;
};

class CampaignEngine {
 public:
  explicit CampaignEngine(EngineConfig cfg = {});

  /// Effective worker count after resolving jobs == 0.
  [[nodiscard]] unsigned jobs() const { return jobs_; }

  /// Run the full campaign. Records come back in expansion order.
  [[nodiscard]] CampaignResult run(const Campaign& campaign, const RunFn& fn) const;

  /// Run one round-robin shard of the campaign (see campaign::shard).
  [[nodiscard]] CampaignResult run_shard(const Campaign& campaign, std::size_t shard_index,
                                         std::size_t shard_count, const RunFn& fn) const;

  /// Run an explicit spec list (any subset/order of an expansion) under
  /// a campaign name. Records come back in the order of `specs` — the
  /// serve layer schedules cache misses through this, then rebuilds the
  /// full expansion order around the cached hits.
  [[nodiscard]] CampaignResult run_list(const std::string& name, std::vector<RunSpec> specs,
                                        const RunFn& fn) const;

 private:
  [[nodiscard]] CampaignResult run_specs(const Campaign& campaign, std::vector<RunSpec> specs,
                                         const RunFn& fn) const;
  [[nodiscard]] RunRecord execute(const RunSpec& spec, const RunFn& fn) const;

  EngineConfig cfg_;
  unsigned jobs_;
};

}  // namespace adhoc::campaign
