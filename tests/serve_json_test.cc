#include "serve/json.h"

#include <map>
#include <string>

#include <gtest/gtest.h>

namespace pa::serve {
namespace {

TEST(JsonParseTest, ParsesFlatObject) {
  std::map<std::string, JsonValue> obj;
  std::string error;
  ASSERT_TRUE(ParseFlatObject(
      R"({"op":"topk","user":3,"k":10,"fast":true,"note":null,"q":-1.5})",
      &obj, &error))
      << error;
  EXPECT_EQ(obj["op"].string, "topk");
  EXPECT_EQ(obj["user"].number, 3.0);
  EXPECT_EQ(obj["k"].number, 10.0);
  EXPECT_TRUE(obj["fast"].boolean);
  EXPECT_EQ(obj["note"].type, JsonValue::Type::kNull);
  EXPECT_DOUBLE_EQ(obj["q"].number, -1.5);
}

TEST(JsonParseTest, ParsesEmptyObjectAndWhitespace) {
  std::map<std::string, JsonValue> obj;
  ASSERT_TRUE(ParseFlatObject("  { }  ", &obj));
  EXPECT_TRUE(obj.empty());
  ASSERT_TRUE(ParseFlatObject("{ \"a\" : 1 , \"b\" : \"x\" }", &obj));
  EXPECT_EQ(obj.size(), 2u);
}

TEST(JsonParseTest, DecodesEscapes) {
  std::map<std::string, JsonValue> obj;
  ASSERT_TRUE(ParseFlatObject(R"({"s":"a\"b\\c\ndA"})", &obj));
  EXPECT_EQ(obj["s"].string, "a\"b\\c\ndA");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  std::map<std::string, JsonValue> obj;
  std::string error;
  EXPECT_FALSE(ParseFlatObject("", &obj, &error));
  EXPECT_FALSE(ParseFlatObject("[1,2]", &obj, &error));
  EXPECT_FALSE(ParseFlatObject("{\"a\":1", &obj, &error));
  EXPECT_FALSE(ParseFlatObject("{\"a\" 1}", &obj, &error));
  EXPECT_FALSE(ParseFlatObject("{\"a\":tru}", &obj, &error));
  EXPECT_FALSE(ParseFlatObject("{\"a\":1} trailing", &obj, &error));
}

TEST(JsonParseTest, RejectsNestedContainers) {
  std::map<std::string, JsonValue> obj;
  std::string error;
  EXPECT_FALSE(ParseFlatObject(R"({"a":{"b":1}})", &obj, &error));
  EXPECT_NE(error.find("nested"), std::string::npos) << error;
  EXPECT_FALSE(ParseFlatObject(R"({"a":[1]})", &obj, &error));
}

TEST(JsonParseTest, DuplicateKeysKeepLast) {
  std::map<std::string, JsonValue> obj;
  ASSERT_TRUE(ParseFlatObject(R"({"a":1,"a":2})", &obj));
  EXPECT_EQ(obj["a"].number, 2.0);
}

TEST(JsonWriteTest, BuildsObjectsArraysAndEscapes) {
  JsonWriter w;
  w.BeginObject()
      .Field("ok", true)
      .Field("name", "a\"b\n")
      .Field("n", 3)
      .Field("x", 1.5);
  w.BeginArray("pois").Element(int64_t{4}).Element(int64_t{7}).EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            R"({"ok":true,"name":"a\"b\n","n":3,"x":1.5,"pois":[4,7]})");
}

TEST(JsonWriteTest, IntegralDoublesPrintWithoutFraction) {
  JsonWriter w;
  w.BeginObject().Field("a", 3.0).Field("b", 0.25).EndObject();
  EXPECT_EQ(w.str(), R"({"a":3,"b":0.25})");
}

TEST(JsonWriteTest, OutputRoundTripsThroughParser) {
  JsonWriter w;
  w.BeginObject()
      .Field("op", "topk")
      .Field("user", 12)
      .Field("latency", 93.5)
      .Field("ok", true)
      .EndObject();
  std::map<std::string, JsonValue> obj;
  std::string error;
  ASSERT_TRUE(ParseFlatObject(w.str(), &obj, &error)) << error;
  EXPECT_EQ(obj["op"].string, "topk");
  EXPECT_EQ(obj["user"].number, 12.0);
  EXPECT_DOUBLE_EQ(obj["latency"].number, 93.5);
  EXPECT_TRUE(obj["ok"].boolean);
}

}  // namespace
}  // namespace pa::serve
