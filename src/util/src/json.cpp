#include "vpmem/util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace vpmem {

namespace {

[[noreturn]] void type_error(const char* expected) {
  throw std::runtime_error{std::string{"Json: value is not "} + expected};
}

/// Strict recursive-descent parser over a string_view.
///
/// Nesting depth is capped: adversarial input like ten thousand '['s
/// would otherwise recurse once per bracket and overflow the stack —
/// undefined behaviour reachable from any file we parse (fuzz --replay
/// corpora, report round-trips).  No legitimate vpmem.* document nests
/// more than a handful of levels.
class Parser {
 public:
  /// Maximum container nesting accepted by parse().
  static constexpr int kMaxDepth = 128;

  explicit Parser(std::string_view text) : text_{text} {}

  Json run() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error{"Json::parse: " + what + " at offset " + std::to_string(pos_)};
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value() {
    skip_ws();
    switch (peek()) {
      case '{': {
        if (depth_ >= kMaxDepth) fail("nesting too deep");
        ++depth_;
        Json v = object();
        --depth_;
        return v;
      }
      case '[': {
        if (depth_ >= kMaxDepth) fail("nesting too deep");
        ++depth_;
        Json v = array();
        --depth_;
        return v;
      }
      case '"': return Json{string()};
      case 't':
        if (consume_literal("true")) return Json{true};
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json{false};
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json{nullptr};
        fail("invalid literal");
      default: return number();
    }
  }

  Json object() {
    expect('{');
    Json::Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json{std::move(members)};
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json{std::move(members)};
    }
  }

  Json array() {
    expect('[');
    Json::Array elements;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json{std::move(elements)};
    }
    while (true) {
      elements.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json{std::move(elements)};
    }
  }

  unsigned hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      code <<= 4u;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80u) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800u) {
      out += static_cast<char>(0xC0u | (cp >> 6u));
      out += static_cast<char>(0x80u | (cp & 0x3Fu));
    } else if (cp < 0x10000u) {
      out += static_cast<char>(0xE0u | (cp >> 12u));
      out += static_cast<char>(0x80u | ((cp >> 6u) & 0x3Fu));
      out += static_cast<char>(0x80u | (cp & 0x3Fu));
    } else {
      out += static_cast<char>(0xF0u | (cp >> 18u));
      out += static_cast<char>(0x80u | ((cp >> 12u) & 0x3Fu));
      out += static_cast<char>(0x80u | ((cp >> 6u) & 0x3Fu));
      out += static_cast<char>(0x80u | (cp & 0x3Fu));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xD800u && cp <= 0xDBFFu) {  // high surrogate: pair required
            if (peek() != '\\') fail("unpaired surrogate");
            ++pos_;
            if (peek() != 'u') fail("unpaired surrogate");
            ++pos_;
            const unsigned lo = hex4();
            if (lo < 0xDC00u || lo > 0xDFFFu) fail("invalid low surrogate");
            cp = 0x10000u + ((cp - 0xD800u) << 10u) + (lo - 0xDC00u);
          } else if (cp >= 0xDC00u && cp <= 0xDFFFu) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  Json number() {
    // Strict RFC 8259 grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    // "01", "1." and "1e" are rejected rather than passed to from_chars,
    // which is more lenient than JSON.
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    const std::size_t int_start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
      ++pos_;
    }
    if (pos_ == int_start) fail("invalid number");
    if (text_[int_start] == '0' && pos_ - int_start > 1) fail("leading zero in number");
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      const std::size_t frac_start = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
        ++pos_;
      }
      if (pos_ == frac_start) fail("missing digits after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      const std::size_t exp_start = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
        ++pos_;
      }
      if (pos_ == exp_start) fail("missing digits in exponent");
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (!is_double) {
      i64 n = 0;
      const auto [ptr, ec] = std::from_chars(first, last, n);
      if (ec == std::errc{} && ptr == last) return Json{n};
      // Integer overflow: fall through to double.
    }
    double d = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, d);
    if (ec != std::errc{} || ptr != last) fail("invalid number");
    return Json{d};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  type_error("a bool");
}

i64 Json::as_int() const {
  if (const i64* n = std::get_if<i64>(&value_)) return *n;
  type_error("an integer");
}

double Json::as_double() const {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  if (const i64* n = std::get_if<i64>(&value_)) return static_cast<double>(*n);
  type_error("a number");
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  type_error("a string");
}

const Json::Array& Json::as_array() const {
  if (const Array* a = std::get_if<Array>(&value_)) return *a;
  type_error("an array");
}

const Json::Object& Json::as_object() const {
  if (const Object* o = std::get_if<Object>(&value_)) return *o;
  type_error("an object");
}

Json& Json::operator[](std::string_view key) {
  if (is_null()) value_ = Object{};
  Object* o = std::get_if<Object>(&value_);
  if (o == nullptr) type_error("an object");
  for (auto& [k, v] : *o) {
    if (k == key) return v;
  }
  o->emplace_back(std::string{key}, Json{});
  return o->back().second;
}

const Json& Json::at(std::string_view key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) return v;
  }
  throw std::out_of_range{"Json: no member '" + std::string{key} + "'"};
}

bool Json::contains(std::string_view key) const {
  const Object* o = std::get_if<Object>(&value_);
  if (o == nullptr) return false;
  for (const auto& [k, v] : *o) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::at(std::size_t index) const {
  const Array& a = as_array();
  if (index >= a.size()) throw std::out_of_range{"Json: array index out of range"};
  return a[index];
}

void Json::push_back(Json element) {
  if (is_null()) value_ = Array{};
  Array* a = std::get_if<Array>(&value_);
  if (a == nullptr) type_error("an array");
  a->push_back(std::move(element));
}

std::size_t Json::size() const noexcept {
  if (const Array* a = std::get_if<Array>(&value_)) return a->size();
  if (const Object* o = std::get_if<Object>(&value_)) return o->size();
  return 0;
}

/// The one JSON serializer.  Appends into a single buffer: integers and
/// doubles through std::to_chars, each run of characters that need no
/// escape with one append, indentation in place.  With a sink stream the
/// buffer is handed over whenever it reaches kFlushBytes, so the text is
/// never held whole.
class Json::Writer {
 public:
  static constexpr std::size_t kFlushBytes = 64 * 1024;

  Writer(int indent, std::ostream* sink) : indent_{indent}, sink_{sink} {}

  void write(const Json& v) {
    std::visit(*this, v.value_);
    maybe_flush();
  }

  /// The text written so far (all of it when there is no sink).
  std::string take() { return std::move(out_); }

  void flush() {
    sink_->write(out_.data(), static_cast<std::streamsize>(out_.size()));
    out_.clear();
  }

  void operator()(std::nullptr_t) { out_ += "null"; }
  void operator()(bool b) { out_ += b ? "true" : "false"; }

  void operator()(i64 n) {
    char buf[24];  // 20 digits and a sign
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, n).ptr);
  }

  void operator()(double d) {
    if (!std::isfinite(d)) {  // JSON has no Inf/NaN literal
      out_ += "null";
      return;
    }
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, d);
    if (ec != std::errc{}) type_error("a representable double");
    const std::string_view text{buf, static_cast<std::size_t>(ptr - buf)};
    out_ += text;
    // Keep integral doubles visibly doubles so a round-trip preserves type.
    if (text.find_first_of(".eE") == std::string_view::npos) out_ += ".0";
  }

  void operator()(const std::string& s) { escaped(s); }

  void operator()(const Array& a) {
    if (a.empty()) {
      out_ += "[]";
      return;
    }
    out_ += '[';
    ++depth_;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i > 0) out_ += ',';
      newline();
      write(a[i]);
    }
    --depth_;
    newline();
    out_ += ']';
  }

  void operator()(const Object& o) {
    if (o.empty()) {
      out_ += "{}";
      return;
    }
    out_ += '{';
    ++depth_;
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i > 0) out_ += ',';
      newline();
      escaped(o[i].first);
      out_ += indent_ < 0 ? std::string_view{":"} : std::string_view{": "};
      write(o[i].second);
    }
    --depth_;
    newline();
    out_ += '}';
  }

 private:
  void newline() {
    if (indent_ < 0) return;
    out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_ * depth_), ' ');
  }

  void maybe_flush() {
    if (sink_ != nullptr && out_.size() >= kFlushBytes) flush();
  }

  void escaped(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    out_ += '"';
    std::size_t plain = 0;  // start of the pending run of unescaped bytes
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto c = static_cast<unsigned char>(s[i]);
      if (c >= 0x20 && c != '"' && c != '\\') continue;
      out_.append(s.data() + plain, i - plain);
      plain = i + 1;
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\b': out_ += "\\b"; break;
        case '\f': out_ += "\\f"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default: {
          const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4u], kHex[c & 0xfu]};
          out_.append(u, sizeof u);
        }
      }
    }
    out_.append(s.data() + plain, s.size() - plain);
    out_ += '"';
  }

  std::string out_;
  int indent_;
  int depth_ = 0;
  std::ostream* sink_;
};

std::string Json::dump(int indent) const {
  Writer w{indent, nullptr};
  w.write(*this);
  return w.take();
}

void Json::dump(std::ostream& os, int indent) const {
  Writer w{indent, &os};
  w.write(*this);
  w.flush();
}

Json Json::parse(std::string_view text) { return Parser{text}.run(); }

void append_jsonl(std::ostream& os, const Json& value) {
  value.dump(os, /*indent=*/-1);
  os << '\n';
}

}  // namespace vpmem
