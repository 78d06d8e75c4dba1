#pragma once
// Serve wire protocol: the JSONL request/response vocabulary shared by
// the daemon (server.hpp), the submit client (client.hpp) and the
// hermetic service tests.
//
// Requests are one JSON object per line with a "type" member:
//
//   {"type":"submit","grid":"fig2","seeds":[1,2,3],"seconds":8,
//    "warmup":0.5,"obs_level":"off","fault_plan":"","probes":300}
//   {"type":"stats"}      cache counters + code version
//   {"type":"ping"}       liveness / version probe
//   {"type":"shutdown"}   stop the daemon after replying
//
// Responses are documented on server.hpp. This header also owns the
// run-record payload serialization — the byte unit the result cache
// stores. record_json() deliberately excludes everything positional or
// wall-clock (run_index, point_index, wall_seconds; the obs snapshot
// leaves out the profiler's wall times): the payload depends only on
// the run's (params, seed, config, code) inputs, so a cache hit can be
// spliced into any campaign and remain byte-identical to what a cold
// run of that spec would have produced.

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/result.hpp"
#include "experiments/experiments.hpp"
#include "report/json_read.hpp"

namespace adhoc::serve {

/// A parsed submit request. Defaults mirror `adhocsim campaign`.
struct SubmitRequest {
  std::string grid = "fig2";  ///< experiments::campaign_names() member
  std::vector<std::uint64_t> seeds{1, 2, 3};
  double seconds = 8.0;        ///< measurement window
  double warmup_s = 0.5;       ///< warmup before measurement
  std::string obs_level = "off";  ///< off|metrics|trace|full|journeys
  std::string fault_plan;      ///< builtin|file|inline spec; empty = none
  std::uint32_t probes = 300;  ///< fig3 probe count

  /// The experiment config this request describes. Throws
  /// std::invalid_argument on an unknown obs level or malformed fault
  /// plan spec.
  [[nodiscard]] experiments::ExperimentConfig to_config() const;

  /// Canonical request line (sorted keys, no trailing newline).
  [[nodiscard]] std::string to_json() const;
};

/// Parse a submit request object (the full request line, already
/// JSON-parsed). Unknown members are ignored; malformed known members
/// throw std::invalid_argument.
[[nodiscard]] SubmitRequest parse_submit_request(const report::JsonValue& doc);

/// Byte-stable payload for one run record (the cache unit):
///
///   {"events":E,"metrics":{...},"obs":{...},"ok":true}
///   {"error":"...","ok":false}
///
/// Keys sorted, doubles through obs::json_number, no newline. "obs" is
/// the run's observability snapshot (empty at obs level off), which
/// carries no host wall time. Equal run inputs produce equal payload
/// bytes at every obs level (determinism contract).
[[nodiscard]] std::string record_json(const campaign::RunRecord& record);

/// Invert record_json: reconstruct the outcome fields of a RunRecord
/// from a payload. The positional `spec` is left default — the caller
/// splices in the spec the payload is being served for. Round-trip is
/// exact: record_json(parse_record_json(p)) == p for payloads this
/// module wrote (json_number is shortest-round-trip; event counts stay
/// below 2^53). Throws std::invalid_argument on malformed payloads.
[[nodiscard]] campaign::RunRecord parse_record_json(const std::string& payload);

}  // namespace adhoc::serve
