#pragma once
// Minimal JSON emission helpers shared by every observability surface
// (metrics snapshots, trace export, campaign telemetry). Emission only:
// the simulator never needs to *parse* JSON, so there is no parser here.

#include <string>
#include <string_view>

namespace adhoc::obs {

/// Escape `s` for embedding inside a JSON string literal. Handles
/// quotes, backslashes, and all control characters (U+0000..U+001F as
/// \uXXXX or the short forms \n \r \t \b \f); other bytes pass through
/// unchanged, so UTF-8 payloads survive round trips.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Format a double as a JSON number: shortest representation that
/// round-trips (std::to_chars), "null" for non-finite values (JSON has
/// no inf/nan). Locale-independent: the result is byte-identical under
/// any global C/C++ locale, which makes it the single sanctioned float
/// formatter for every byte-stable artifact (BENCH_*.json, telemetry,
/// metrics snapshots).
[[nodiscard]] std::string json_number(double v);

/// `{"k":v,...}` over (name, value) pairs in their iteration order, with
/// no whitespace: names through json_escape, values through json_number.
/// The one object writer for flat numeric maps (run records, telemetry
/// params/metrics, scorecard sections).
template <typename Pairs>
[[nodiscard]] std::string json_object(const Pairs& pairs) {
  std::string out = "{";
  for (const auto& [name, value] : pairs) {
    if (out.size() > 1) out += ',';
    out += '"' + json_escape(name) + "\":" + json_number(static_cast<double>(value));
  }
  return out + "}";
}

}  // namespace adhoc::obs
