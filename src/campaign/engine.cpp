#include "campaign/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace adhoc::campaign {

namespace {

// Wall-clock here times the *host* (wall_ms telemetry, events/sec); it
// never feeds simulation state, so the determinism contract is intact.
double elapsed_seconds(std::chrono::steady_clock::time_point since) {  // NOLINT-ADHOC(wall-clock)
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)  // NOLINT-ADHOC(wall-clock)
      .count();
}

// What makes two specs the same run: the resolved parameters (in axis
// order — all specs of one expansion share it) and the seed. Run
// functions are pure in (params, seed) by the determinism contract, so
// equal identities mean byte-identical records.
std::string run_identity(const RunSpec& spec) {
  std::string id;
  for (const auto& [name, value] : spec.params) {
    id += name;
    id += '=';
    id += obs::json_number(value);
    id += ';';
  }
  id += '#';
  id += std::to_string(spec.seed);
  return id;
}

}  // namespace

CampaignEngine::CampaignEngine(EngineConfig cfg) : cfg_(cfg) {
  jobs_ = cfg_.jobs != 0 ? cfg_.jobs : std::max(1u, std::thread::hardware_concurrency());
}

RunRecord CampaignEngine::execute(const RunSpec& spec, const RunFn& fn) const {
  if (cfg_.telemetry != nullptr) cfg_.telemetry->run_start(spec);
  RunRecord record;
  record.spec = spec;
  const auto started = std::chrono::steady_clock::now();  // NOLINT-ADHOC(wall-clock) run wall_ms telemetry
  try {
    record.metrics = fn(spec);
    record.ok = true;
  } catch (const std::exception& e) {
    record.error = e.what();
  } catch (...) {
    record.error = "unknown exception";
  }
  record.wall_seconds = elapsed_seconds(started);
  if (cfg_.telemetry != nullptr) cfg_.telemetry->run_end(record);
  return record;
}

CampaignResult CampaignEngine::run_specs(const Campaign& campaign, std::vector<RunSpec> specs,
                                         const RunFn& fn) const {
  CampaignResult result;
  result.name = campaign.name;
  result.jobs = jobs_;
  result.runs.resize(specs.size());

  // Duplicate collapsing: one representative executes per identical
  // (params, seed) group; the rest receive copies after the pool joins.
  std::map<std::string, std::size_t> representatives;
  std::vector<std::size_t> rep_of(specs.size());
  std::vector<std::size_t> executable;
  executable.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto [it, inserted] = representatives.emplace(run_identity(specs[i]), i);
    rep_of[i] = it->second;
    if (inserted) executable.push_back(i);
  }
  result.deduped = specs.size() - executable.size();

  if (cfg_.telemetry != nullptr) {
    cfg_.telemetry->campaign_start(campaign.name, specs.size(), campaign.grid.points(),
                                   campaign.seeds.size(), jobs_);
  }
  const auto started = std::chrono::steady_clock::now();  // NOLINT-ADHOC(wall-clock) campaign wall_ms telemetry

  std::atomic<std::size_t> cursor{0};
  const auto worker = [&] {
    while (true) {
      const std::size_t n = cursor.fetch_add(1, std::memory_order_relaxed);
      if (n >= executable.size()) return;
      const std::size_t i = executable[n];
      // Each slot is written by exactly one worker; no lock needed.
      result.runs[i] = execute(specs[i], fn);
    }
  };

  const unsigned n_workers = static_cast<unsigned>(
      std::min<std::size_t>(jobs_, std::max<std::size_t>(executable.size(), 1)));
  if (n_workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_workers);
    for (unsigned t = 0; t < n_workers; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // Fill duplicate slots from their representatives, each under its own
  // positional identity.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (rep_of[i] == i) continue;
    result.runs[i] = result.runs[rep_of[i]];
    result.runs[i].spec = specs[i];
  }

  result.wall_seconds = elapsed_seconds(started);
  if (cfg_.telemetry != nullptr) cfg_.telemetry->campaign_end(result);
  return result;
}

CampaignResult CampaignEngine::run(const Campaign& campaign, const RunFn& fn) const {
  return run_specs(campaign, campaign.expand(), fn);
}

CampaignResult CampaignEngine::run_shard(const Campaign& campaign, std::size_t shard_index,
                                         std::size_t shard_count, const RunFn& fn) const {
  return run_specs(campaign, shard(campaign.expand(), shard_index, shard_count), fn);
}

CampaignResult CampaignEngine::run_list(const std::string& name, std::vector<RunSpec> specs,
                                        const RunFn& fn) const {
  // Synthesize the campaign frame telemetry expects: distinct points and
  // seeds actually present in the list.
  Campaign frame;
  frame.name = name;
  std::set<std::uint64_t> seeds;
  for (const RunSpec& s : specs) seeds.insert(s.seed);
  frame.seeds.assign(seeds.begin(), seeds.end());
  if (frame.seeds.empty()) frame.seeds = {1};
  return run_specs(frame, std::move(specs), fn);
}

}  // namespace adhoc::campaign
