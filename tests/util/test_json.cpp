#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/error.hpp"

namespace gaia::util {
namespace {

TEST(Json, ParsesScalarsAndStructure) {
  const JsonValue v = parse_json(
      R"({"a": 1.5, "b": "text", "c": [true, false, null], "d": {"e": -2e3}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.find("a")->number, 1.5);
  EXPECT_EQ(v.find("b")->string, "text");
  const JsonValue* c = v.find("c");
  ASSERT_TRUE(c != nullptr && c->is_array());
  ASSERT_EQ(c->array.size(), 3u);
  EXPECT_TRUE(c->array[0].boolean);
  EXPECT_FALSE(c->array[1].boolean);
  EXPECT_TRUE(c->array[2].is_null());
  EXPECT_DOUBLE_EQ(v.find("d")->find("e")->number, -2000.0);
}

TEST(Json, MemberOrderIsPreserved) {
  const JsonValue v = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_EQ(v.object.size(), 3u);
  EXPECT_EQ(v.object[0].first, "z");
  EXPECT_EQ(v.object[1].first, "a");
  EXPECT_EQ(v.object[2].first, "m");
}

TEST(Json, StringEscapesRoundTrip) {
  const JsonValue v =
      parse_json(R"({"s": "line\nbreak\ttab \"q\" back\\slash é"})");
  EXPECT_EQ(v.find("s")->string, "line\nbreak\ttab \"q\" back\\slash \xc3\xa9");
  // dump() re-escapes; re-parsing yields the same string.
  const JsonValue again = parse_json(v.dump());
  EXPECT_EQ(again.find("s")->string, v.find("s")->string);
}

TEST(Json, DumpRoundTripsNestedDocuments) {
  const std::string src =
      R"({"ev":[{"name":"k","ts":1.25,"args":{"n":3,"ok":true}},{"name":"m"}]})";
  const JsonValue v = parse_json(src);
  const JsonValue rt = parse_json(v.dump());
  ASSERT_TRUE(rt.is_object());
  const JsonValue* ev = rt.find("ev");
  ASSERT_TRUE(ev != nullptr && ev->is_array());
  ASSERT_EQ(ev->array.size(), 2u);
  EXPECT_EQ(ev->array[0].find("name")->string, "k");
  EXPECT_DOUBLE_EQ(ev->array[0].find("ts")->number, 1.25);
  EXPECT_DOUBLE_EQ(ev->array[0].find("args")->find("n")->number, 3.0);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), Error);
  EXPECT_THROW(parse_json("{"), Error);                 // truncated
  EXPECT_THROW(parse_json(R"({"a": })"), Error);        // missing value
  EXPECT_THROW(parse_json(R"({"a": 1,})"), Error);      // trailing comma
  EXPECT_THROW(parse_json(R"({"a": 1} extra)"), Error); // trailing garbage
  EXPECT_THROW(parse_json(R"({'a': 1})"), Error);       // single quotes
  EXPECT_THROW(parse_json(R"({"a": 01})"), Error);      // leading zero
  EXPECT_THROW(parse_json(R"({"a": +1})"), Error);      // leading plus
  EXPECT_THROW(parse_json(R"({"a": nul})"), Error);     // bad literal
  EXPECT_THROW(parse_json("{\"a\": \"\x01\"}"), Error); // bare control char
  EXPECT_THROW(parse_json(R"({"a": "\q"})"), Error);    // bad escape
  EXPECT_THROW(parse_json(R"({"a" 1})"), Error);        // missing colon
}

TEST(Json, ErrorsCarryByteOffsets) {
  try {
    (void)parse_json(R"({"ok": 1, "bad": )");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(Json, NumberGrammarIsStrict) {
  EXPECT_DOUBLE_EQ(parse_json("0.5").number, 0.5);
  EXPECT_DOUBLE_EQ(parse_json("-0").number, 0.0);
  EXPECT_DOUBLE_EQ(parse_json("12e-2").number, 0.12);
  EXPECT_THROW(parse_json("."), Error);
  EXPECT_THROW(parse_json("1."), Error);
  EXPECT_THROW(parse_json(".5"), Error);
  EXPECT_THROW(parse_json("1e"), Error);
}

TEST(Json, NestingDepthIsBounded) {
  // A million '[' used to recurse until the stack overflowed.
  try {
    (void)parse_json(std::string(1000000, '['));
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }
  EXPECT_THROW(parse_json(std::string(kMaxJsonDepth + 1, '{')), Error);
  // The bound itself is fine.
  const std::string deepest = std::string(kMaxJsonDepth, '[') +
                              std::string(kMaxJsonDepth, ']');
  EXPECT_NO_THROW((void)parse_json(deepest));
}

TEST(Json, NumbersOverflowingToInfinityAreRejected) {
  EXPECT_THROW(parse_json("1e999"), Error);
  EXPECT_THROW(parse_json("-1e999"), Error);
  EXPECT_THROW(parse_json(R"({"a": [1, 2e400]})"), Error);
  EXPECT_DOUBLE_EQ(parse_json("1e308").number, 1e308);
  EXPECT_DOUBLE_EQ(parse_json("1e-999").number, 0.0);  // underflow is fine
}

TEST(Json, QuoteEscapesForTheParser) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c\nd\re\tf\x01g"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\"");
  const std::string all = "q\"\\\x1f\n\xc3\xa9";
  EXPECT_EQ(parse_json(json_quote(all)).string, all);
}

TEST(JsonFields, ReadsTypedMembers) {
  const JsonValue v = parse_json(
      R"({"s": "x", "n": 2.5, "i": -3, "b": true, "a": [1], "o": {}, "z": null})");
  JsonFields f(v, "test doc");
  EXPECT_TRUE(f.has("s"));
  EXPECT_FALSE(f.has("missing"));
  EXPECT_EQ(f.string("s"), "x");
  EXPECT_DOUBLE_EQ(f.number("n", 0, 3), 2.5);
  EXPECT_EQ(f.integer("i", -5, 5), -3);
  EXPECT_TRUE(f.boolean("b"));
  EXPECT_EQ(f.array("a").size(), 1u);
  EXPECT_TRUE(f.object("o").is_object());
  EXPECT_TRUE(std::isnan(f.number_or_null("z")));
  EXPECT_NO_THROW(f.done());
}

TEST(JsonFields, RejectsDuplicateKeys) {
  // find() returns the first of two equal keys and ignores the second;
  // the fields helper refuses the document instead.
  const JsonValue v = parse_json(R"({"version": 1, "name": "a", "version": 2})");
  EXPECT_DOUBLE_EQ(v.find("version")->number, 1.0);
  try {
    JsonFields f(v, "test doc");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test doc"), std::string::npos) << what;
    EXPECT_NE(what.find("'version'"), std::string::npos) << what;
    EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
  }
}

TEST(JsonFields, RejectsWrongTypesRangesAndUnreadKeys) {
  const JsonValue v = parse_json(
      R"({"s": 1, "f": 1.5, "big": 1e300, "neg": -1, "two63": 9223372036854775808})");
  const auto throws = [&](auto read) {
    JsonFields f(v, "test doc");
    EXPECT_THROW(read(f), Error);
  };
  throws([](JsonFields& f) { (void)f.string("s"); });         // not a string
  throws([](JsonFields& f) { (void)f.string("absent"); });    // missing
  throws([](JsonFields& f) { (void)f.integer("f", 0, 9); });  // fractional
  throws([](JsonFields& f) { (void)f.integer("big", 0, 1); });
  throws([](JsonFields& f) {
    (void)f.integer("two63", 0, std::numeric_limits<std::int64_t>::max());
  });
  throws([](JsonFields& f) { (void)f.integer("neg", 0, 9); });
  throws([](JsonFields& f) { (void)f.number("neg", 0); });
  throws([](JsonFields& f) { (void)f.number_or_null("absent"); });
  throws([](JsonFields& f) { (void)f.boolean("s"); });
  // Every read succeeded but one key was never asked for.
  JsonFields f(v, "test doc");
  (void)f.number("s");
  (void)f.number("f");
  (void)f.number("big");
  (void)f.number("neg");
  try {
    f.done();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'two63'"), std::string::npos);
  }
  EXPECT_THROW((void)f.object("f"), Error);  // not an object
  const JsonValue array = parse_json("[]");
  EXPECT_THROW(JsonFields(array, "test doc"), Error);  // not an object
}

}  // namespace
}  // namespace gaia::util
