#pragma once
// Minimal JSON reader for the serve protocol: the daemon parses submit
// requests, and serve::Client and `adhocsim submit` parse its replies.
// The simulator itself never parses JSON — obs/json stays emission-only.
//
// Supports the full value grammar the emitters produce: objects, arrays,
// strings (with the escapes obs::json_escape writes), numbers, booleans,
// null. Object members keep sorted (std::map) order, matching the
// emitters' sorted-key contract. Parse errors throw std::runtime_error
// with a byte offset.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace adhoc::report {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }

  /// Typed accessors; throw std::runtime_error on a kind mismatch.
  [[nodiscard]] bool boolean() const;
  [[nodiscard]] double number() const;
  [[nodiscard]] const std::string& str() const;
  [[nodiscard]] const std::vector<JsonValue>& array() const;
  [[nodiscard]] const std::map<std::string, JsonValue>& object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  /// Convenience: member `key` as a number, or `fallback` when absent.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;

  /// Parse a complete JSON document (trailing whitespace allowed).
  [[nodiscard]] static JsonValue parse(std::string_view text);

 private:
  friend class Parser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

}  // namespace adhoc::report
