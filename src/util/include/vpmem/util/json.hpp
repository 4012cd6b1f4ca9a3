// Minimal JSON document model, writer and parser — the serialization
// backbone of vpmem::obs run reports and the bench telemetry files.
//
// Scope is deliberately small: the value model of RFC 8259 with ordered
// objects (members serialize in insertion order, so reports are stable
// and diffable), shortest-round-trip doubles, and a strict recursive
// parser for the round-trip tests.  Not a general-purpose library: no
// comments, no NaN/Inf literals (non-finite doubles serialize as null).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "vpmem/util/numeric.hpp"

namespace vpmem {

/// One JSON value: null, bool, integer, double, string, array or object.
/// Integers are kept distinct from doubles so counters survive a
/// round-trip exactly.
class Json {
 public:
  using Array = std::vector<Json>;
  /// Insertion-ordered object representation.  Lookup is linear — report
  /// objects hold tens of keys, never thousands.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() noexcept : value_{nullptr} {}
  Json(std::nullptr_t) noexcept : value_{nullptr} {}          // NOLINT(google-explicit-constructor)
  Json(bool b) noexcept : value_{b} {}                        // NOLINT(google-explicit-constructor)
  Json(i64 n) noexcept : value_{n} {}                         // NOLINT(google-explicit-constructor)
  Json(int n) noexcept : value_{static_cast<i64>(n)} {}       // NOLINT(google-explicit-constructor)
  Json(std::size_t n) noexcept : value_{static_cast<i64>(n)} {}  // NOLINT(google-explicit-constructor)
  Json(double d) noexcept : value_{d} {}                      // NOLINT(google-explicit-constructor)
  Json(const char* s) : value_{std::string{s}} {}             // NOLINT(google-explicit-constructor)
  Json(std::string s) : value_{std::move(s)} {}               // NOLINT(google-explicit-constructor)
  Json(Array a) : value_{std::move(a)} {}                     // NOLINT(google-explicit-constructor)
  Json(Object o) : value_{std::move(o)} {}                    // NOLINT(google-explicit-constructor)

  [[nodiscard]] static Json array() { return Json{Array{}}; }
  [[nodiscard]] static Json object() { return Json{Object{}}; }

  [[nodiscard]] bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_bool() const noexcept { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_int() const noexcept { return std::holds_alternative<i64>(value_); }
  [[nodiscard]] bool is_double() const noexcept { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_number() const noexcept { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const noexcept { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_array() const noexcept { return std::holds_alternative<Array>(value_); }
  [[nodiscard]] bool is_object() const noexcept { return std::holds_alternative<Object>(value_); }

  /// Typed accessors; throw std::runtime_error on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] i64 as_int() const;       ///< integer values only
  [[nodiscard]] double as_double() const; ///< any number (int widens)
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member access: inserts a null member on first use (mutable
  /// overload), throws std::out_of_range if absent (const overload).
  Json& operator[](std::string_view key);
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const;

  /// Array element access (const; throws std::out_of_range).
  [[nodiscard]] const Json& at(std::size_t index) const;

  /// Append to an array (value must be an array or null; null becomes []).
  void push_back(Json element);

  /// Number of members/elements (object or array; 0 otherwise).
  [[nodiscard]] std::size_t size() const noexcept;

  /// Serialize.  indent < 0: compact single line; indent >= 0: pretty-
  /// printed with that many spaces per level.  Both overloads run the
  /// same writer, which appends into one buffer; the stream overload
  /// hands it to `os` every 64 KiB, so it never holds the whole text.
  [[nodiscard]] std::string dump(int indent = -1) const;
  void dump(std::ostream& os, int indent = -1) const;

  /// Strict parser; throws std::runtime_error with an offset-annotated
  /// message on malformed input or trailing garbage.
  [[nodiscard]] static Json parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b) noexcept = default;

 private:
  class Writer;  // the serializer behind both dump() overloads

  std::variant<std::nullptr_t, bool, i64, double, std::string, Array, Object> value_;
};

/// Append `value` as one line of an JSONL (JSON Lines) file.
void append_jsonl(std::ostream& os, const Json& value);

}  // namespace vpmem
