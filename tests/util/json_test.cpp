#include "vpmem/util/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>

namespace vpmem {
namespace {

TEST(Json, DefaultIsNull) {
  const Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.dump(), "null");
}

TEST(Json, Scalars) {
  EXPECT_EQ(Json{true}.dump(), "true");
  EXPECT_EQ(Json{false}.dump(), "false");
  EXPECT_EQ(Json{i64{42}}.dump(), "42");
  EXPECT_EQ(Json{-7}.dump(), "-7");
  EXPECT_EQ(Json{"hi"}.dump(), "\"hi\"");
  EXPECT_EQ(Json{std::size_t{3}}.dump(), "3");
}

TEST(Json, IntegralDoubleKeepsDecimalPoint) {
  // A double that happens to be integral must not round-trip into an int.
  EXPECT_EQ(Json{2.0}.dump(), "2.0");
  const Json back = Json::parse(Json{2.0}.dump());
  EXPECT_TRUE(back.is_double());
}

TEST(Json, NonFiniteDoublesSerializeAsNull) {
  EXPECT_EQ(Json{std::numeric_limits<double>::infinity()}.dump(), "null");
  EXPECT_EQ(Json{std::numeric_limits<double>::quiet_NaN()}.dump(), "null");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j["zebra"] = 1;
  j["alpha"] = 2;
  j["mid"] = 3;
  EXPECT_EQ(j.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
  j["alpha"] = 9;  // update in place, order unchanged
  EXPECT_EQ(j.dump(), "{\"zebra\":1,\"alpha\":9,\"mid\":3}");
}

TEST(Json, ArrayAndNestedAccess) {
  Json j = Json::object();
  j["rows"] = Json::array();
  j["rows"].push_back(1);
  j["rows"].push_back("two");
  EXPECT_EQ(j.at("rows").size(), 2u);
  EXPECT_EQ(j.at("rows").at(0).as_int(), 1);
  EXPECT_EQ(j.at("rows").at(1).as_string(), "two");
  EXPECT_TRUE(j.contains("rows"));
  EXPECT_FALSE(j.contains("cols"));
  EXPECT_THROW((void)j.at("cols"), std::out_of_range);
  EXPECT_THROW((void)j.at("rows").at(2), std::out_of_range);
}

TEST(Json, TypeMismatchThrows) {
  const Json j{i64{1}};
  EXPECT_THROW((void)j.as_string(), std::runtime_error);
  EXPECT_THROW((void)j.as_array(), std::runtime_error);
  EXPECT_THROW((void)j.as_bool(), std::runtime_error);
  // as_double accepts ints (common for metrics).
  EXPECT_DOUBLE_EQ(j.as_double(), 1.0);
}

TEST(Json, StringEscaping) {
  const Json j{std::string{"a\"b\\c\n\t\x01"}};
  EXPECT_EQ(j.dump(), "\"a\\\"b\\\\c\\n\\t\\u0001\"");
  EXPECT_EQ(Json::parse(j.dump()), j);
}

TEST(Json, ParseWhitespaceAndLiterals) {
  const Json j = Json::parse("  { \"a\" : [ true , false , null ] }  ");
  EXPECT_EQ(j.at("a").size(), 3u);
  EXPECT_TRUE(j.at("a").at(2).is_null());
}

TEST(Json, ParseNumbers) {
  EXPECT_EQ(Json::parse("123").as_int(), 123);
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<i64>::min());
  EXPECT_TRUE(Json::parse("1e3").is_double());
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(Json::parse("-0.5").as_double(), -0.5);
  // Past-i64 integers degrade to double instead of failing.
  EXPECT_TRUE(Json::parse("9223372036854775808").is_double());
}

TEST(Json, ParseUnicodeEscapes) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(Json::parse("\"\\uD83D\\uDE00\"").as_string(), "\xF0\x9F\x98\x80");
  EXPECT_THROW(Json::parse("\"\\uD83D\""), std::runtime_error);   // unpaired high
  EXPECT_THROW(Json::parse("\"\\uDE00\""), std::runtime_error);   // unpaired low
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("truee"), std::runtime_error);
  EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(Json::parse("-"), std::runtime_error);
}

TEST(Json, ParseErrorsCarryBytePosition) {
  // Positioned diagnostics: a truncated report should say *where* it
  // broke, not just that it did.
  try {
    static_cast<void>(Json::parse("{\"a\": 1, \"b\": }"));
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("at offset 14"), std::string::npos) << e.what();
  }
}

TEST(Json, ParseRejectsDeepNestingWithoutOverflow) {
  // kMaxDepth guards the recursive descent: 10k brackets must fail
  // cleanly instead of overflowing the stack (UB reachable from any
  // attacker-supplied --plan / --replay file).
  const std::string deep_arrays(10'000, '[');
  EXPECT_THROW(Json::parse(deep_arrays), std::runtime_error);
  std::string deep_objects;
  for (int i = 0; i < 10'000; ++i) deep_objects += "{\"k\":";
  EXPECT_THROW(Json::parse(deep_objects), std::runtime_error);
  // Exactly at the limit still parses (127 nested arrays < kMaxDepth=128).
  std::string ok(127, '[');
  ok += "1";
  ok += std::string(127, ']');
  EXPECT_NO_THROW(static_cast<void>(Json::parse(ok)));
}

TEST(Json, ParseRejectsTruncatedDocuments) {
  // Every prefix of a valid document must fail loudly, never read out
  // of bounds, and never parse as something else.
  const std::string doc =
      "{\"schema\":\"vpmem.run_report/1\",\"window\":{\"cycles\":10,"
      "\"bandwidth\":0.8},\"bank_grants\":[4,0,4,0],\"ok\":true}";
  ASSERT_NO_THROW(Json::parse(doc));
  for (std::size_t len = 0; len < doc.size(); ++len) {
    EXPECT_THROW(Json::parse(doc.substr(0, len)), std::runtime_error) << "prefix length " << len;
  }
}

TEST(Json, ParseRejectsControlCharactersAndBadEscapes) {
  EXPECT_THROW(Json::parse(std::string{"\"a\x01b\""}), std::runtime_error);
  EXPECT_THROW(Json::parse("\"a\\q\""), std::runtime_error);   // unknown escape
  EXPECT_THROW(Json::parse("\"\\u12\""), std::runtime_error);  // short \u escape
  EXPECT_THROW(Json::parse("\"\\uZZZZ\""), std::runtime_error);
  EXPECT_THROW(Json::parse("\"trailing backslash\\"), std::runtime_error);
}

TEST(Json, ParseRejectsMalformedNumbers) {
  EXPECT_THROW(Json::parse("01"), std::runtime_error);  // leading zero... or trailing garbage
  EXPECT_THROW(Json::parse("1e"), std::runtime_error);
  EXPECT_THROW(Json::parse("+1"), std::runtime_error);
  EXPECT_THROW(Json::parse("0x10"), std::runtime_error);
  EXPECT_THROW(Json::parse("--1"), std::runtime_error);
  EXPECT_THROW(Json::parse("1."), std::runtime_error);
}

TEST(Json, PrettyPrint) {
  Json j = Json::object();
  j["a"] = 1;
  j["b"] = Json::array();
  j["b"].push_back(2);
  EXPECT_EQ(j.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
  EXPECT_EQ(Json::parse(j.dump(2)), j);
}

TEST(Json, RoundTripComplexDocument) {
  Json doc = Json::object();
  doc["name"] = "vpmem";
  doc["pi"] = 3.141592653589793;
  doc["counts"] = Json::array();
  for (int i = 0; i < 5; ++i) doc["counts"].push_back(i * i);
  doc["nested"] = Json::object();
  doc["nested"]["deep"] = Json::array();
  doc["nested"]["deep"].push_back(Json{nullptr});
  const Json back = Json::parse(doc.dump());
  EXPECT_EQ(back, doc);
  EXPECT_DOUBLE_EQ(back.at("pi").as_double(), 3.141592653589793);
}

TEST(Json, AppendJsonl) {
  std::ostringstream out;
  Json a = Json::object();
  a["x"] = 1;
  append_jsonl(out, a);
  append_jsonl(out, Json{i64{2}});
  EXPECT_EQ(out.str(), "{\"x\":1}\n2\n");
}

// --- Writer property test ------------------------------------------------
//
// The writer appends into one buffer.  Its bytes are pinned against a
// naive reference kept here: one `<<` per character, exactly the
// ostream writer the library used before.

void ref_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c) & 0xffu);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void ref_double(std::ostream& os, double d) {
  if (!std::isfinite(d)) {
    os << "null";
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, d);
  ASSERT_EQ(ec, std::errc{});
  const std::string_view text{buf, static_cast<std::size_t>(ptr - buf)};
  os << text;
  if (text.find_first_of(".eE") == std::string_view::npos) os << ".0";
}

void ref_write(std::ostream& os, const Json& v, int indent, int depth) {
  const auto newline = [&](int level) {
    if (indent < 0) return;
    os << '\n' << std::string(static_cast<std::size_t>(indent * level), ' ');
  };
  if (v.is_null()) {
    os << "null";
  } else if (v.is_bool()) {
    os << (v.as_bool() ? "true" : "false");
  } else if (v.is_int()) {
    os << v.as_int();
  } else if (v.is_double()) {
    ref_double(os, v.as_double());
  } else if (v.is_string()) {
    ref_escaped(os, v.as_string());
  } else if (v.is_array()) {
    const Json::Array& a = v.as_array();
    if (a.empty()) {
      os << "[]";
      return;
    }
    os << '[';
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i > 0) os << ',';
      newline(depth + 1);
      ref_write(os, a[i], indent, depth + 1);
    }
    newline(depth);
    os << ']';
  } else {
    const Json::Object& o = v.as_object();
    if (o.empty()) {
      os << "{}";
      return;
    }
    os << '{';
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i > 0) os << ',';
      newline(depth + 1);
      ref_escaped(os, o[i].first);
      os << (indent < 0 ? ":" : ": ");
      ref_write(os, o[i].second, indent, depth + 1);
    }
    newline(depth);
    os << '}';
  }
}

std::string ref_dump(const Json& v, int indent) {
  std::ostringstream os;
  ref_write(os, v, indent, 0);
  return os.str();
}

/// Seeded generator of adversarial documents: every control character,
/// quotes and backslashes in keys and values, multi-byte UTF-8, integer
/// extremes, integral / negative-zero / subnormal doubles, and empty and
/// nested containers.
class DocGen {
 public:
  explicit DocGen(std::uint64_t seed) : rng_{seed} {}

  Json value(int depth) {
    const std::uint64_t kind = pick(depth >= 4 ? 6 : 8);
    switch (kind) {
      case 0: return Json{};
      case 1: return Json{pick(2) == 0};
      case 2: return Json{integer()};
      case 3: return Json{real()};
      case 4:
      case 5: return Json{text()};
      case 6: {
        Json a = Json::array();
        for (std::uint64_t n = pick(5); n > 0; --n) a.push_back(value(depth + 1));
        return a;
      }
      default: {
        Json::Object o;
        for (std::uint64_t n = pick(5); n > 0; --n) o.emplace_back(text(), value(depth + 1));
        return Json{std::move(o)};
      }
    }
  }

  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

  std::string text() {
    static constexpr const char* kPieces[] = {
        "\"", "\\", "/", "plain", " ", "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80",
        "\xe6\x97\xa5\xe6\x9c\xac", "\x7f", "a\"b\\c"};
    std::string s;
    for (std::uint64_t n = pick(7); n > 0; --n) {
      if (pick(3) == 0) {
        s += static_cast<char>(pick(0x20));  // one of 0x00..0x1f
      } else {
        s += kPieces[pick(std::size(kPieces))];
      }
    }
    return s;
  }

  i64 integer() {
    switch (pick(5)) {
      case 0: return std::numeric_limits<i64>::min();
      case 1: return std::numeric_limits<i64>::max();
      case 2: return static_cast<i64>(pick(21)) - 10;
      default: return static_cast<i64>(rng_());
    }
  }

  double real() {
    switch (pick(7)) {
      case 0: return -0.0;
      case 1: return static_cast<double>(static_cast<i64>(pick(2001)) - 1000);  // integral
      case 2: return std::numeric_limits<double>::denorm_min() * static_cast<double>(1 + pick(1000));
      case 3: return std::numeric_limits<double>::max();
      case 4: return 1e22 * static_cast<double>(1 + pick(9));  // integral, exponent form
      default: {
        double d = 0.0;
        const std::uint64_t bits = rng_();
        std::memcpy(&d, &bits, sizeof d);
        return std::isfinite(d) ? d : 0.5;
      }
    }
  }

 private:
  std::mt19937_64 rng_;
};

/// A stream buffer that keeps what it is given and the largest single
/// write, to show that dump(os) streams in bounded chunks.  Only bulk
/// writes are accepted: a single-character put fails the stream.
class ChunkRecorder : public std::streambuf {
 public:
  std::string text;
  std::size_t writes = 0;
  std::size_t largest = 0;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const auto len = static_cast<std::size_t>(n);
    text.append(s, len);
    ++writes;
    largest = std::max(largest, len);
    return n;
  }
};

constexpr int kIndents[] = {-1, 0, 1, 2, 4};

TEST(JsonWriter, MatchesReferenceAndRoundTripsOnSeededDocuments) {
  DocGen gen{0x5eed15};
  for (int doc = 0; doc < 2'000; ++doc) {
    const Json x = gen.value(0);
    for (const int indent : kIndents) {
      const std::string text = x.dump(indent);
      ASSERT_EQ(text, ref_dump(x, indent)) << "document " << doc << ", indent " << indent;
      std::ostringstream os;
      x.dump(os, indent);
      ASSERT_EQ(os.str(), text) << "document " << doc << ", indent " << indent;
      ASSERT_EQ(Json::parse(text), x) << "document " << doc << ", indent " << indent;
    }
  }
}

TEST(JsonWriter, ControlCharactersAndExtremesMatchReference) {
  std::string every_control;
  for (int c = 0; c < 0x20; ++c) every_control += static_cast<char>(c);
  every_control += "\"\\\xc3\xa9";
  Json::Object o;
  o.emplace_back(every_control, every_control);
  o.emplace_back("min", std::numeric_limits<i64>::min());
  o.emplace_back("max", std::numeric_limits<i64>::max());
  o.emplace_back("neg_zero", -0.0);
  o.emplace_back("integral", 3.0);
  o.emplace_back("subnormal", std::numeric_limits<double>::denorm_min());
  o.emplace_back("empty_array", Json::array());
  o.emplace_back("empty_object", Json::object());
  const Json x{std::move(o)};
  for (const int indent : kIndents) {
    EXPECT_EQ(x.dump(indent), ref_dump(x, indent)) << "indent " << indent;
    EXPECT_EQ(Json::parse(x.dump(indent)), x) << "indent " << indent;
  }
  EXPECT_EQ(Json{-0.0}.dump(), "-0.0");
  EXPECT_EQ(Json{std::numeric_limits<i64>::min()}.dump(), "-9223372036854775808");
}

TEST(JsonWriter, StreamDumpFlushesInBoundedChunks) {
  // Documents several times the 64 KiB flush size: the stream receives
  // the same bytes as dump(), in more than one write, none of them the
  // whole text.
  DocGen gen{0xb16d0c};
  for (int doc = 0; doc < 4; ++doc) {
    Json big = Json::array();
    while (big.dump().size() < 6 * 64 * 1024) {
      for (int i = 0; i < 2'000; ++i) big.push_back(gen.value(1));
    }
    for (const int indent : kIndents) {
      const std::string text = big.dump(indent);
      ASSERT_EQ(text, ref_dump(big, indent));
      ChunkRecorder sink;
      std::ostream os{&sink};
      big.dump(os, indent);
      ASSERT_EQ(sink.text, text) << "indent " << indent;
      EXPECT_GE(sink.writes, 4u) << "indent " << indent;
      EXPECT_LT(sink.largest, 2 * 64 * 1024u) << "indent " << indent;
    }
  }
}

}  // namespace
}  // namespace vpmem
