// Minimal JSON value type with serializer and parser.
//
// Used by the tuner to persist search results (best kernel parameters per
// device/precision) and by benches to emit machine-readable series. Supports
// the JSON subset the library emits: objects, arrays, strings, finite
// numbers, booleans and null; no unicode escapes beyond \uXXXX pass-through.
// A parsed integer literal (no '.', 'e' or 'E') that fits int64 keeps its
// exact value beside the double, so integers past 2^53 read back and dump
// unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace gemmtune {

/// Tagged-union JSON value with value semantics.
class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() : kind_(Kind::Null) {}
  Json(std::nullptr_t) : kind_(Kind::Null) {}
  Json(bool b) : kind_(Kind::Bool), bool_(b) {}
  Json(double d) : kind_(Kind::Number), num_(d) {}
  Json(int i) : kind_(Kind::Number), num_(i) {}
  Json(std::int64_t i) : kind_(Kind::Number), num_(static_cast<double>(i)) {}
  Json(const char* s) : kind_(Kind::String), str_(s) {}
  Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

  /// Creates an empty array / object.
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }

  /// Typed accessors; throw gemmtune::Error on kind mismatch. as_int()
  /// also throws, naming the number and the range, when the number rounds
  /// to no int64. as_number() of a parsed integer literal is the nearest
  /// double; as_int() and int_in() read its exact value.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;

  /// The number rounded to the nearest integer (a parsed integer literal's
  /// exact value), or nullopt when that lies outside [lo, hi]; throws
  /// gemmtune::Error when this is not a number.
  std::optional<std::int64_t> int_in(std::int64_t lo, std::int64_t hi) const;

  /// Array operations.
  void push_back(Json v);
  std::size_t size() const;
  const Json& at(std::size_t i) const;

  /// Object operations. operator[] inserts null on missing key (non-const).
  Json& operator[](const std::string& key);
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  /// Removes a key from an object (no-op when absent).
  void erase(const std::string& key);
  const std::map<std::string, Json>& items() const;

  /// Serializes; `indent` > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

  /// Parses a complete JSON document; throws gemmtune::Error on syntax error.
  static Json parse(const std::string& text);

  friend bool operator==(const Json& a, const Json& b);

 private:
  friend class JsonParser;

  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  /// The exact value of a parsed integer literal that fits int64.
  std::optional<std::int64_t> int_;
  std::string str_;
  std::vector<Json> arr_;
  std::map<std::string, Json> obj_;
};

}  // namespace gemmtune
