// Unit tests for the JSON parser/serializer.
#include <gtest/gtest.h>

#include <cmath>

#include "common/json.hpp"

namespace climate::common {
namespace {

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_TRUE(Json::parse("true")->as_bool());
  EXPECT_FALSE(Json::parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.25")->as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-17")->as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3")->as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
}

TEST(Json, ParseNested) {
  auto doc = Json::parse(R"({"a": [1, 2, {"b": true}], "c": {"d": null}})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)["a"].size(), 3u);
  EXPECT_TRUE((*doc)["a"][2]["b"].as_bool());
  EXPECT_TRUE((*doc)["c"]["d"].is_null());
}

TEST(Json, ParseEscapes) {
  auto doc = Json::parse(R"("line\nbreak\t\"quoted\" \\ A é")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->as_string(), "line\nbreak\t\"quoted\" \\ A \xc3\xa9");
}

TEST(Json, ParseSurrogatePair) {
  auto doc = Json::parse(R"("😀")");  // emoji
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->as_string(), "\xF0\x9F\x98\x80");
}

TEST(Json, RejectsMalformed) {
  EXPECT_FALSE(Json::parse("{").ok());
  EXPECT_FALSE(Json::parse("[1,").ok());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::parse("tru").ok());
  EXPECT_FALSE(Json::parse("1 2").ok());
  EXPECT_FALSE(Json::parse("\"unterminated").ok());
}

TEST(Json, RoundTripStability) {
  const std::string text =
      R"({"array":[1,2.5,"x"],"bool":false,"nested":{"deep":[{"k":"v"}]},"null":null})";
  auto doc = Json::parse(text);
  ASSERT_TRUE(doc.ok());
  auto again = Json::parse(doc->dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*doc, *again);
  EXPECT_EQ(doc->dump(), again->dump());
}

TEST(Json, DumpEscapesControlCharacters) {
  Json value(std::string("a\x01" "b\n"));
  EXPECT_EQ(value.dump(), "\"a\\u0001b\\n\"");
}

TEST(Json, IntegersSerializeWithoutDecimalPoint) {
  Json value(42);
  EXPECT_EQ(value.dump(), "42");
  Json big(static_cast<std::int64_t>(1234567890123LL));
  EXPECT_EQ(big.dump(), "1234567890123");
}

TEST(Json, ObjectAccessors) {
  Json object = Json::object();
  object["name"] = "zeus";
  object["nodes"] = 348;
  object["active"] = true;
  EXPECT_EQ(object.get_string("name"), "zeus");
  EXPECT_EQ(object.get_int("nodes"), 348);
  EXPECT_TRUE(object.get_bool("active"));
  EXPECT_EQ(object.get_string("missing", "fallback"), "fallback");
  EXPECT_EQ(object.get_int("name", -1), -1);  // wrong type -> fallback
  EXPECT_TRUE(object.contains("name"));
  EXPECT_FALSE(object.contains("missing"));
}

TEST(Json, ConstLookupOfMissingKeyIsNull) {
  const Json object = Json::object();
  EXPECT_TRUE(object["anything"].is_null());
}

TEST(Json, ArrayBuilding) {
  Json array = Json::array();
  array.push_back(1);
  array.push_back("two");
  EXPECT_EQ(array.size(), 2u);
  EXPECT_EQ(array[1].as_string(), "two");
}

TEST(Json, PrettyPrintParsesBack) {
  Json object = Json::object();
  object["list"] = Json(Json::Array{Json(1), Json(2)});
  object["obj"] = Json::object();
  object["obj"]["x"] = 1.5;
  auto parsed = Json::parse(object.dump_pretty());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, object);
}

}  // namespace
}  // namespace climate::common

namespace climate::common {
namespace {

TEST(Json, DeepNestingRoundTrip) {
  std::string text = "1";
  for (int i = 0; i < 60; ++i) text = "[" + text + "]";
  auto doc = Json::parse(text);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->dump(), text);
}

TEST(Json, WhitespaceEverywhere) {
  auto doc = Json::parse(" \n\t{ \"a\" :\n [ 1 ,\t2 ] }\n ");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)["a"].size(), 2u);
}

TEST(Json, NumberEdgeCases) {
  EXPECT_DOUBLE_EQ(Json::parse("0.5e-2")->as_number(), 0.005);
  EXPECT_DOUBLE_EQ(Json::parse("-0")->as_number(), 0.0);
  EXPECT_FALSE(Json::parse("01abc").ok());
}

TEST(Json, NonFiniteNumbersDumpAsNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(HUGE_VAL).dump(), "null");
  EXPECT_EQ(Json(-HUGE_VAL).dump(), "null");
  Json ratios = Json::array();
  ratios.push_back(Json(0.25));
  ratios.push_back(Json(std::nan("")));
  const std::string text = ratios.dump();
  EXPECT_EQ(text, "[0.25,null]");
  auto again = Json::parse(text);
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_TRUE((*again)[1].is_null());
}

TEST(Json, RejectsNumbersThatOverflow) {
  EXPECT_FALSE(Json::parse("[2.5e358]").ok());
  EXPECT_FALSE(Json::parse("-1e400").ok());
  EXPECT_FALSE(Json::parse("{\"x\": 1e999}").ok());
  EXPECT_DOUBLE_EQ(Json::parse("1.7976931348623157e308")->as_number(), 1.7976931348623157e308);
  EXPECT_DOUBLE_EQ(Json::parse("1e-400")->as_number(), 0.0);  // underflow is kept
}

}  // namespace
}  // namespace climate::common
