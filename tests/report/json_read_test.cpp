// Serve-protocol JSON reader: full grammar the obs/report emitters
// produce, strict errors with byte offsets.

#include "report/json_read.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/json.hpp"

namespace adhoc {
namespace {

TEST(JsonRead, ParsesScalars) {
  EXPECT_TRUE(report::JsonValue::parse("null").is_null());
  EXPECT_TRUE(report::JsonValue::parse("true").boolean());
  EXPECT_FALSE(report::JsonValue::parse("false").boolean());
  EXPECT_DOUBLE_EQ(report::JsonValue::parse("-2.5e3").number(), -2500.0);
  EXPECT_DOUBLE_EQ(report::JsonValue::parse("0").number(), 0.0);
  EXPECT_EQ(report::JsonValue::parse("\"hi\"").str(), "hi");
}

TEST(JsonRead, ParsesStringEscapes) {
  const report::JsonValue v =
      report::JsonValue::parse(R"("a\"b\\c\/d\n\t\r\b\fAé")");
  EXPECT_EQ(v.str(), "a\"b\\c/d\n\t\r\b\f" "A" "\xc3\xa9");
}

TEST(JsonRead, ParsesNestedStructures) {
  const report::JsonValue v = report::JsonValue::parse(
      R"({"cells":[{"id":"a","sim":1.5},{"id":"b","sim":2}],"schema":1})");
  ASSERT_TRUE(v.is_object());
  const auto& cells = v.find("cells")->array();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].find("id")->str(), "a");
  EXPECT_DOUBLE_EQ(cells[1].find("sim")->number(), 2.0);
  EXPECT_DOUBLE_EQ(v.number_or("schema", -1.0), 1.0);
  EXPECT_DOUBLE_EQ(v.number_or("missing", -1.0), -1.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonRead, RoundTripsObsJsonNumberOutput) {
  // The reader must reconstruct exactly what the emitter's shortest
  // round-trip formatting wrote.
  for (const double v : {0.1, -0.25, 1e-04, 999999.0, 1000000.0, 5.5e15, 1e16}) {
    const std::string text = obs::json_number(v);
    EXPECT_DOUBLE_EQ(report::JsonValue::parse(text).number(), v) << text;
  }
}

TEST(JsonRead, TypedAccessorsThrowOnKindMismatch) {
  const report::JsonValue num = report::JsonValue::parse("1");
  EXPECT_THROW((void)num.str(), std::runtime_error);
  EXPECT_THROW((void)num.array(), std::runtime_error);
  EXPECT_THROW((void)num.object(), std::runtime_error);
  EXPECT_THROW((void)num.boolean(), std::runtime_error);
  EXPECT_THROW((void)report::JsonValue::parse("\"s\"").number(), std::runtime_error);
}

TEST(JsonRead, RejectsMalformedDocumentsWithByteOffset) {
  EXPECT_THROW((void)report::JsonValue::parse(""), std::runtime_error);
  EXPECT_THROW((void)report::JsonValue::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW((void)report::JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)report::JsonValue::parse("nul"), std::runtime_error);
  EXPECT_THROW((void)report::JsonValue::parse("{} trailing"), std::runtime_error);
  try {
    (void)report::JsonValue::parse("[1, x]");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    // The offset of the bad token must be named.
    EXPECT_NE(std::string{e.what()}.find("4"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace adhoc
