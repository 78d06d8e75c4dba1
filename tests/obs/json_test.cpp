#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <limits>
#include <locale>
#include <string>
#include <vector>

namespace adhoc::obs {
namespace {

TEST(JsonEscape, PassthroughWhenClean) {
  EXPECT_EQ(json_escape("plain ascii 123"), "plain ascii 123");
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonEscape, QuotesAndBackslashes) {
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("C:\\path\\file"), "C:\\\\path\\\\file");
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(JsonEscape, ShortFormControlCharacters) {
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape("a\bb"), "a\\bb");
  EXPECT_EQ(json_escape("a\fb"), "a\\fb");
}

TEST(JsonEscape, OtherControlCharactersUseUnicodeForm) {
  EXPECT_EQ(json_escape(std::string{"a\x01"} + "b"), "a\\u0001b");
  EXPECT_EQ(json_escape(std::string{'a', '\0', 'b'}), "a\\u0000b");
  EXPECT_EQ(json_escape("a\x1f"), "a\\u001f");
}

TEST(JsonEscape, HostileExceptionMessage) {
  // The kind of message a failing run can inject into telemetry: quotes,
  // newlines, backspaces, and a path with backslashes, all at once.
  const std::string hostile = "parse \"cfg\\x\" failed:\n\tbad byte \b\f\x02 at offset 7";
  const std::string escaped = json_escape(hostile);
  EXPECT_EQ(escaped,
            "parse \\\"cfg\\\\x\\\" failed:\\n\\tbad byte \\b\\f\\u0002 at offset 7");
  // No raw control bytes or quotes survive.
  for (const char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(JsonEscape, Utf8PassesThrough) {
  const std::string utf8 = "station \xc3\xa9\xe2\x82\xac";  // é€
  EXPECT_EQ(json_escape(utf8), utf8);
}

TEST(JsonNumber, IntegersAndRoundTrip) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-7.0), "-7");
  EXPECT_EQ(json_number(1.5), "1.5");
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(json_number(v)), v);  // shortest round-trip
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonNumber, RoundTripsNegativeZeroAndLargeValues) {
  const std::vector<double> values{
      -1.0,
      -0.0625,
      -123456.789,
      0.0,
      1e-308,                                   // subnormal territory
      4.9406564584124654e-324,                  // smallest subnormal
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      6.02214076e23,
      -2.99792458e8,
  };
  for (const double v : values) {
    const std::string s = json_number(v);
    // strtod, not stod: stod raises out_of_range on subnormal inputs.
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    // Deterministic: the same value always yields the same bytes.
    EXPECT_EQ(json_number(v), s);
  }
  EXPECT_EQ(json_number(0.0), "0");
}

TEST(JsonNumber, NoFormatFlipsAcrossToleranceBoundaries) {
  // Values that straddle the magnitudes where printf "%g" flips between
  // fixed and scientific notation must each format to a single stable
  // spelling — a drift gate diffing BENCH_*.json at a tolerance boundary
  // sees value changes, never formatting changes, for equal values.
  EXPECT_EQ(json_number(0.001), "0.001");
  EXPECT_EQ(json_number(0.0001), "1e-04");  // scientific once it is shorter
  EXPECT_EQ(json_number(1e-5), "1e-05");
  EXPECT_EQ(json_number(999999.0), "999999");
  EXPECT_EQ(json_number(1e6), "1000000");  // integral values keep integer form
  EXPECT_EQ(json_number(-3e5), "-300000");
  EXPECT_EQ(json_number(1e16), "1e+16");   // past 2^53: shortest form
  // A 1-ulp sweep around a tolerance-shaped constant: every neighbour
  // parses back exactly (shortest-round-trip guarantee).
  double v = 0.05;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(std::stod(json_number(v)), v);
    v = std::nextafter(v, 1.0);
  }
}

// RAII: force a de_DE-style numeric environment (comma decimal point)
// through both the C locale (printf family) and the global C++ locale
// (iostreams), restoring on destruction.
class CommaLocaleGuard {
 public:
  CommaLocaleGuard() : saved_c_(std::setlocale(LC_NUMERIC, nullptr)) {
    for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8"}) {
      if (std::setlocale(LC_NUMERIC, name) != nullptr) {
        c_locale_applied_ = true;
        break;
      }
    }
    saved_cpp_ = std::locale::global(std::locale(std::locale::classic(), new CommaPunct));
  }
  ~CommaLocaleGuard() {
    std::setlocale(LC_NUMERIC, saved_c_.c_str());
    std::locale::global(saved_cpp_);
  }
  [[nodiscard]] bool c_locale_applied() const { return c_locale_applied_; }

 private:
  struct CommaPunct : std::numpunct<char> {
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
  };
  std::string saved_c_;
  std::locale saved_cpp_;
  bool c_locale_applied_ = false;
};

TEST(JsonNumber, LocaleIndependentUnderCommaDecimalLocale) {
  const CommaLocaleGuard guard;
  // The C++ side (custom numpunct) always applies; the C side depends on
  // which locales the host has generated — both paths must leave
  // json_number untouched.
  EXPECT_EQ(json_number(3.14), "3.14");
  EXPECT_EQ(json_number(-0.5), "-0.5");
  EXPECT_EQ(json_number(1234.5), "1234.5");
  EXPECT_EQ(json_number(1e-5), "1e-05");
  if (!guard.c_locale_applied()) {
    // Still a real test via the global C++ locale; note the C half.
    SUCCEED() << "no de_DE-style C locale available on this host";
  }
}

TEST(JsonEscapeAndNumber, ComposeUnderCommaLocale) {
  const CommaLocaleGuard guard;
  // A metrics-snapshot-shaped fragment built under the hostile locale
  // must be byte-identical to the classic-locale rendering.
  const std::string fragment = "{\"kbps\":" + json_number(4821.75) + ",\"loss\":" +
                               json_number(0.035) + ",\"note\":\"" + json_escape("ok\n") + "\"}";
  EXPECT_EQ(fragment, "{\"kbps\":4821.75,\"loss\":0.035,\"note\":\"ok\\n\"}");
}

}  // namespace
}  // namespace adhoc::obs
