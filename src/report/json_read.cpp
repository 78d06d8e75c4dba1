#include "report/json_read.hpp"

#include <cctype>
#include <charconv>
#include <stdexcept>

namespace adhoc::report {

namespace {

[[noreturn]] void type_error(const char* want, JsonValue::Kind got) {
  throw std::runtime_error(std::string{"JsonValue: expected "} + want + ", have kind " +
                           std::to_string(static_cast<int>(got)));
}

}  // namespace

bool JsonValue::boolean() const {
  if (kind_ != Kind::kBool) type_error("bool", kind_);
  return bool_;
}

double JsonValue::number() const {
  if (kind_ != Kind::kNumber) type_error("number", kind_);
  return number_;
}

const std::string& JsonValue::str() const {
  if (kind_ != Kind::kString) type_error("string", kind_);
  return string_;
}

const std::vector<JsonValue>& JsonValue::array() const {
  if (kind_ != Kind::kArray) type_error("array", kind_);
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::object() const {
  if (kind_ != Kind::kObject) type_error("object", kind_);
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->number() : fallback;
}

// ------------------------------------------------------------ parser

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at byte " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "', found '" + text_[pos_] + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::kBool;
        if (consume_literal("true")) {
          v.bool_ = true;
        } else if (consume_literal("false")) {
          v.bool_ = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return {};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object_[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a') + 10;
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A') + 10;
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // The emitters only write \u00XX control codes; encode the
          // general case as UTF-8 anyway.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    // std::from_chars: locale-independent, mirrors the to_chars emitter.
    const auto res = std::from_chars(first, last, value);
    if (res.ec != std::errc{} || res.ptr != last) fail("malformed number");
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.number_ = value;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) { return Parser{text}.parse_document(); }

}  // namespace adhoc::report
