#include "util/jsonl.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/report.hpp"
#include "core/result.hpp"

namespace saim {
namespace {

// ----------------------------------------------------------------- parse

TEST(JsonParse, FlatObject) {
  const auto v = util::parse_json(
      R"({"id":"j1","iterations":200,"eta":0.05,"cache":true,"x":null})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("id")->as_string(), "j1");
  EXPECT_EQ(v.find("iterations")->as_int(), 200);
  EXPECT_DOUBLE_EQ(v.find("eta")->as_double(), 0.05);
  EXPECT_TRUE(v.find("cache")->as_bool());
  EXPECT_TRUE(v.find("x")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, NestedStructures) {
  const auto v = util::parse_json(R"({"a":{"b":[1,2,3]},"c":[{"d":-1.5e2}]})");
  const auto* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->find("b")->array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->find("b")->array()[1].as_double(), 2.0);
  EXPECT_DOUBLE_EQ(v.find("c")->array()[0].find("d")->as_double(), -150.0);
}

TEST(JsonParse, StringEscapes) {
  const auto v = util::parse_json(R"({"s":"a\"b\\c\n\tAé"})");
  EXPECT_EQ(v.find("s")->as_string(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(JsonParse, SurrogatePair) {
  // U+1F600 escaped as a surrogate pair -> 4-byte UTF-8.
  const auto v = util::parse_json(R"(["\ud83d\ude00"])");
  EXPECT_EQ(v.array()[0].as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, WhitespaceTolerant) {
  const auto v = util::parse_json("  { \"a\" :\t[ 1 , 2 ] }\r\n");
  EXPECT_EQ(v.find("a")->array().size(), 2u);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(util::parse_json(""), std::runtime_error);
  EXPECT_THROW(util::parse_json("{"), std::runtime_error);
  EXPECT_THROW(util::parse_json("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(util::parse_json("{} trailing"), std::runtime_error);
  EXPECT_THROW(util::parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(util::parse_json("truthy"), std::runtime_error);
  EXPECT_THROW(util::parse_json("1.2.3"), std::runtime_error);
  EXPECT_THROW(util::parse_json(R"("lone \ud800")"), std::runtime_error);
}

TEST(JsonParse, NestingCapAcceptsTheCapAndRejectsOneMore) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(util::parse_json(nested(util::kMaxJsonDepth)));
  EXPECT_THROW(util::parse_json(nested(util::kMaxJsonDepth + 1)),
               std::runtime_error);
  std::string objects;
  for (std::size_t d = 0; d <= util::kMaxJsonDepth; ++d) objects += "{\"a\":";
  objects += "1" + std::string(util::kMaxJsonDepth + 1, '}');
  EXPECT_THROW(util::parse_json(objects), std::runtime_error);
}

TEST(JsonParse, HostileNestingThrowsInsteadOfOverflowingTheStack) {
  // One unterminated line of '[' — and the same inside a job field —
  // used to recurse once per byte until the stack overflowed.
  const std::string deep(100000, '[');
  try {
    util::parse_json(deep);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(util::parse_json(R"({"id":"x","gen":)" + deep),
               std::runtime_error);
}

TEST(JsonParse, ErrorNamesByteOffset) {
  try {
    util::parse_json(R"({"a": nope})");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(JsonParse, TypedAccessorsDoNotCoerce) {
  const auto v = util::parse_json(R"({"n": 5, "s": "x"})");
  EXPECT_EQ(v.find("s")->as_int(42), 42);      // string is not a number
  EXPECT_EQ(v.find("n")->as_string(), "");     // number is not a string
  EXPECT_FALSE(v.find("n")->as_bool(false));   // number is not a bool
}

// ----------------------------------------------------------------- write

TEST(JsonWriter, BuildsObjectInOrder) {
  util::JsonWriter w;
  w.field("s", "hi").field("i", std::int64_t{-3}).field("b", false);
  EXPECT_EQ(w.str(), R"({"s":"hi","i":-3,"b":false})");
}

TEST(JsonWriter, EscapesStrings) {
  util::JsonWriter w;
  w.field("s", "a\"b\\c\nd\x01");
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\u0001\"}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  util::JsonWriter w;
  w.field("inf", std::numeric_limits<double>::infinity());
  EXPECT_EQ(w.str(), R"({"inf":null})");
}

TEST(JsonWriter, RoundTripsThroughParser) {
  util::JsonWriter w;
  w.field("cost", -1234.5678).field("ok", true).raw_field("sub", "[1,2]");
  const auto v = util::parse_json(w.str());
  EXPECT_DOUBLE_EQ(v.find("cost")->as_double(), -1234.5678);
  EXPECT_TRUE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("sub")->array().size(), 2u);
}

// ------------------------------------------------------------ round trip
//
// ISSUE 4 satellite: json_escape emits \u00XX for control chars and the
// parser decodes \uXXXX (including surrogate pairs); pin the full
// encode/decode loop over the hostile corners so the two sides can never
// drift apart.

TEST(JsonRoundTrip, EveryControlCharSurvivesEscapeAndParse) {
  for (int c = 0; c < 0x20; ++c) {
    std::string raw(1, static_cast<char>(c));
    raw += "x";  // make sure escaping composes with plain text
    const std::string doc = "\"" + util::json_escape(raw) + "\"";
    EXPECT_EQ(util::parse_json(doc).as_string(), raw) << "control char " << c;
  }
}

TEST(JsonRoundTrip, Utf8AndSurrogatePairsSurviveToJson) {
  // Escaped surrogate pair (U+1F600), 3-byte UTF-8 (é via raw bytes), and
  // a 2-byte char: parse -> serialize -> parse is the identity, and the
  // serialized form carries the UTF-8 bytes through untouched.
  const auto v = util::parse_json(R"(["😀", "Aé", "é"])");
  EXPECT_EQ(v.array()[0].as_string(), "\xf0\x9f\x98\x80");
  EXPECT_EQ(v.array()[2].as_string(), "\xc3\xa9");
  const std::string serialized = util::to_json(v);
  EXPECT_NE(serialized.find("\xf0\x9f\x98\x80"), std::string::npos);
  const auto again = util::parse_json(serialized);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(again.array()[i].as_string(), v.array()[i].as_string());
  }
}

TEST(JsonRoundTrip, MaxCodepointAndBoundarySurrogates) {
  // U+10FFFF = 􏿿 (4-byte UTF-8), U+10000 = 𐀀.
  const auto v = util::parse_json(R"(["􏿿", "𐀀"])");
  EXPECT_EQ(v.array()[0].as_string(), "\xf4\x8f\xbf\xbf");
  EXPECT_EQ(v.array()[1].as_string(), "\xf0\x90\x80\x80");
  EXPECT_EQ(util::parse_json(util::to_json(v)).array()[0].as_string(),
            v.array()[0].as_string());
}

TEST(JsonRoundTrip, InvalidEscapesAllThrow) {
  // Bad \u escapes, lone/mismatched surrogates, truncated escapes: every
  // one must throw, never mis-decode.
  for (const char* doc : {
           R"("\uZZZZ")",        // non-hex digits
           R"("\u12")",          // truncated hex
           R"("\ud800")",        // lone high surrogate at end of string
           R"("\ud800x")",       // high surrogate not followed by \u
           R"("\ud800A")",  // high surrogate + non-surrogate
           R"("\ud800\ud800")",  // high surrogate + high surrogate
           R"("\udc00")",        // lone low surrogate
           R"("\x41")",          // unknown escape letter
           "\"\\",               // escape at end of input
       }) {
    EXPECT_THROW(util::parse_json(doc), std::runtime_error) << doc;
  }
}

TEST(JsonRoundTrip, FuzzishStringsThroughEscapeParseLoop) {
  // Deterministic pseudo-random byte strings (all byte values, embedded
  // NULs, quote/backslash runs): escape -> parse must reproduce the
  // input bytes exactly.
  std::uint64_t state = 0x243f6a8885a308d3ULL;
  for (int round = 0; round < 200; ++round) {
    std::string raw;
    const std::size_t len = 1 + (state >> 58);
    for (std::size_t i = 0; i < len; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      unsigned char byte = static_cast<unsigned char>(state >> 33);
      if (byte >= 0x80) byte &= 0x7f;  // keep it valid single-byte UTF-8
      raw.push_back(static_cast<char>(byte));
    }
    const std::string doc = "\"" + util::json_escape(raw) + "\"";
    EXPECT_EQ(util::parse_json(doc).as_string(), raw);
  }
}

TEST(JsonRoundTrip, ToJsonReproducesDocuments) {
  // Nested document with the number corners that must survive re-reading
  // (17 significant digits, negative zero collapse is NOT applied here —
  // the writer emits what the double holds).
  const std::string doc =
      R"({"a":[1,2.5,-3e-05,null,true,false],"b":{"c":"x\ny","d":[]},)"
      R"("n":9007199254740992})";
  const auto v = util::parse_json(doc);
  const std::string serialized = util::to_json(v);
  const auto again = util::parse_json(serialized);
  EXPECT_DOUBLE_EQ(again.find("a")->array()[2].as_double(), -3e-05);
  EXPECT_EQ(again.find("b")->find("c")->as_string(), "x\ny");
  EXPECT_EQ(again.find("b")->find("d")->array().size(), 0u);
  EXPECT_EQ(again.find("n")->as_uint(), 9007199254740992ULL);
  // Serialization is a fixed point: to_json(parse(to_json(x))) == to_json(x).
  EXPECT_EQ(util::to_json(again), serialized);
}

TEST(JsonRoundTrip, ToJsonEscapesKeysAndHandlesNonFinite) {
  util::JsonValue::Object obj;
  obj["k\n"] = util::JsonValue("v");
  obj["inf"] = util::JsonValue(std::numeric_limits<double>::infinity());
  const std::string serialized = util::to_json(util::JsonValue(obj));
  EXPECT_EQ(serialized, "{\"inf\":null,\"k\\n\":\"v\"}");
}

// ------------------------------------------------------- result_to_jsonl

TEST(ResultJsonl, SerializesAndParsesBack) {
  core::SolveResult result;
  result.found_feasible = true;
  result.best_cost = -987.0;
  result.feasible_count = 12;
  result.total_runs = 100;
  result.total_sweeps = 100000;

  core::JsonlContext context;
  context.id = "job-1";
  context.instance = "300-50-8";
  context.backend = "pbit";
  context.wall_ms = 12.5;
  context.cache_hit = true;
  context.fingerprint = 0xdeadbeefULL;

  const std::string line = core::result_to_jsonl(result, context);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line, by contract

  const auto v = util::parse_json(line);
  EXPECT_EQ(v.find("id")->as_string(), "job-1");
  EXPECT_EQ(v.find("instance")->as_string(), "300-50-8");
  EXPECT_EQ(v.find("backend")->as_string(), "pbit");
  EXPECT_EQ(v.find("status")->as_string(), "completed");
  EXPECT_TRUE(v.find("found_feasible")->as_bool());
  EXPECT_DOUBLE_EQ(v.find("best_cost")->as_double(), -987.0);
  EXPECT_EQ(v.find("feasible_count")->as_int(), 12);
  EXPECT_EQ(v.find("iterations")->as_int(), 100);
  EXPECT_EQ(v.find("total_sweeps")->as_int(), 100000);
  EXPECT_DOUBLE_EQ(v.find("wall_ms")->as_double(), 12.5);
  EXPECT_TRUE(v.find("cache_hit")->as_bool());
  EXPECT_EQ(v.find("fingerprint")->as_string(), "00000000deadbeef");
}

TEST(ResultJsonl, InfeasibleResultHasNullCostAndStatusString) {
  core::SolveResult result;
  result.status = core::Status::kDeadline;
  const auto v = util::parse_json(core::result_to_jsonl(result, {}));
  EXPECT_EQ(v.find("status")->as_string(), "deadline");
  EXPECT_FALSE(v.find("found_feasible")->as_bool());
  EXPECT_TRUE(v.find("best_cost")->is_null());
}

}  // namespace
}  // namespace saim
