#pragma once
// Content-addressed, on-disk result cache.
//
// One entry per RunKey hash, holding the byte-stable run-record payload
// (serve::record_json bytes) that a cold run of that key produced.
// Because run records are byte-stable and the key covers every input
// including the code-version stamp, serving a stored payload is
// indistinguishable from re-running the simulation — serve_smoke checks
// that mechanically with the tools/bench_check.py drift gate.
//
// On-disk layout (all names deterministic):
//
//   <root>/<version>/<hh>/<hash>.json
//
// where <version> is the sanitized code-version stamp, <hh> the first
// two hex chars of the 128-bit key hash (fan-out, so no directory holds
// millions of files) and <hash>.json the payload bytes verbatim.
//
// Invalidation: opening a cache removes every version directory other
// than its own — results from a different build are unreachable by
// construction (the hash covers the stamp) and reclaiming them eagerly
// keeps the size bound meaningful.
//
// Eviction: LRU over (lookup | store) touches, bounded by max_entries
// and/or max_bytes. Pre-existing entries found at open are seeded into
// the LRU in sorted-hash order (deterministic across processes), oldest
// first.
//
// Counters (hits/misses/stores/evictions/invalidated) surface through
// obs::MetricsRegistry probes under component "cache".
//
// Thread-safe: every public method locks; concurrent serve clients may
// hit one cache instance. Two processes sharing a root are not
// coordinated (last-write-wins on identical bytes is harmless; the
// serve daemon owns its root exclusively).

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "cache/key.hpp"
#include "concurrency/mutex.hpp"

namespace adhoc::obs {
class MetricsRegistry;
}

namespace adhoc::cache {

struct CacheConfig {
  std::string root;     ///< cache directory (created if absent)
  std::string version;  ///< code stamp; empty = cache::code_version()
  std::size_t max_entries = 0;  ///< LRU bound on entry count; 0 = unbounded
  std::uint64_t max_bytes = 0;  ///< LRU bound on payload bytes; 0 = unbounded
};

class ResultCache {
 public:
  /// Opens (creating if needed) the cache at cfg.root, drops stale
  /// version directories, indexes surviving entries. Throws
  /// std::runtime_error on I/O failure naming the path.
  explicit ResultCache(CacheConfig cfg);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Payload bytes for `key`, or nullopt on a miss. A hit refreshes the
  /// entry's LRU position.
  [[nodiscard]] std::optional<std::string> lookup(const RunKey& key) EXCLUDES(mutex_);

  /// Store `payload` under `key` (idempotent: re-storing refreshes LRU
  /// and rewrites identical bytes). May evict least-recently-used
  /// entries to honour the size bounds.
  void store(const RunKey& key, const std::string& payload) EXCLUDES(mutex_);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidated = 0;  ///< entries dropped by version turnover
    std::size_t entries = 0;
    std::uint64_t bytes = 0;
  };
  [[nodiscard]] Stats stats() const EXCLUDES(mutex_);

  [[nodiscard]] const std::string& version() const { return cfg_.version; }
  [[nodiscard]] const std::string& root() const { return cfg_.root; }

  /// Register lazy probes under component "cache" (hits, misses,
  /// stores, evictions, invalidated, entries, bytes). The registry must
  /// not outlive this cache.
  void attach_metrics(obs::MetricsRegistry& registry);

 private:
  struct Entry {
    std::uint64_t size = 0;
    std::uint64_t last_use = 0;  ///< LRU sequence number
  };

  [[nodiscard]] std::string entry_path(const std::string& hash) const;
  void evict_to_bounds() REQUIRES(mutex_);

  CacheConfig cfg_;          // immutable after the constructor
  std::string version_dir_;  // immutable after the constructor
  // kResultCache ranks above kServiceMetrics: snapshot probes evaluate
  // under the ServiceMetrics lock and call stats() here.
  mutable conc::Mutex mutex_{conc::LockRank::kResultCache, "cache.result_cache"};
  // std::map: eviction scans must break last_use ties deterministically
  // (lexicographically smallest hash first), and stats snapshots feed
  // telemetry.
  std::map<std::string, Entry> entries_ GUARDED_BY(mutex_);
  std::uint64_t bytes_ GUARDED_BY(mutex_) = 0;
  std::uint64_t seq_ GUARDED_BY(mutex_) = 0;
  Stats counters_ GUARDED_BY(mutex_);
};

}  // namespace adhoc::cache
