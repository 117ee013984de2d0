#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace gemmtune {

Json Json::array() {
  Json j;
  j.kind_ = Kind::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::Object;
  return j;
}

bool Json::as_bool() const {
  check(kind_ == Kind::Bool, "Json: not a bool");
  return bool_;
}

double Json::as_number() const {
  check(kind_ == Kind::Number, "Json: not a number");
  return num_;
}

std::optional<std::int64_t> Json::int_in(std::int64_t lo,
                                         std::int64_t hi) const {
  check(kind_ == Kind::Number, "Json: not a number");
  std::int64_t n = 0;
  if (int_) {
    n = *int_;
  } else {
    // Every double in [-2^63, 2^63) rounds to an int64; no other does.
    constexpr double kTwo63 = 9223372036854775808.0;
    if (!(num_ >= -kTwo63 && num_ < kTwo63)) return std::nullopt;
    n = std::llround(num_);
  }
  if (n < lo || n > hi) return std::nullopt;
  return n;
}

std::int64_t Json::as_int() const {
  constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  if (const std::optional<std::int64_t> n = int_in(lo, hi)) return *n;
  fail(strf("Json: %s is outside the int64 range [%lld, %lld]",
            dump().c_str(), static_cast<long long>(lo),
            static_cast<long long>(hi)));
}

const std::string& Json::as_string() const {
  check(kind_ == Kind::String, "Json: not a string");
  return str_;
}

void Json::push_back(Json v) {
  check(kind_ == Kind::Array, "Json: push_back on non-array");
  arr_.push_back(std::move(v));
}

std::size_t Json::size() const {
  if (kind_ == Kind::Array) return arr_.size();
  if (kind_ == Kind::Object) return obj_.size();
  fail("Json: size() on non-container");
}

const Json& Json::at(std::size_t i) const {
  check(kind_ == Kind::Array, "Json: at(index) on non-array");
  check(i < arr_.size(), "Json: array index out of range");
  return arr_[i];
}

Json& Json::operator[](const std::string& key) {
  check(kind_ == Kind::Object || kind_ == Kind::Null,
        "Json: operator[] on non-object");
  kind_ = Kind::Object;
  return obj_[key];
}

const Json& Json::at(const std::string& key) const {
  check(kind_ == Kind::Object, "Json: at(key) on non-object");
  auto it = obj_.find(key);
  if (it == obj_.end()) fail("Json: missing key '" + key + "'");
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return kind_ == Kind::Object && obj_.count(key) > 0;
}

void Json::erase(const std::string& key) {
  check(kind_ == Kind::Object, "Json: erase(key) on non-object");
  obj_.erase(key);
}

const std::map<std::string, Json>& Json::items() const {
  check(kind_ == Kind::Object, "Json: items() on non-object");
  return obj_;
}

namespace {
void escape_to(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void number_to(double d, std::string& out) {
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    out += strf("%lld", static_cast<long long>(d));
  } else {
    out += strf("%.17g", d);
  }
}
}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string nl = indent > 0 ? "\n" : "";
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ') : "";
  const std::string padend =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ') : "";
  switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += bool_ ? "true" : "false"; break;
    case Kind::Number:
      if (int_) {
        out += strf("%lld", static_cast<long long>(*int_));
      } else {
        number_to(num_, out);
      }
      break;
    case Kind::String: escape_to(str_, out); break;
    case Kind::Array: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        out += pad;
        arr_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < arr_.size()) out += ',';
        out += nl;
      }
      out += padend;
      out += ']';
      break;
    }
    case Kind::Object: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      std::size_t i = 0;
      for (const auto& [k, v] : obj_) {
        out += pad;
        escape_to(k, out);
        out += indent > 0 ? ": " : ":";
        v.dump_to(out, indent, depth + 1);
        if (++i < obj_.size()) out += ',';
        out += nl;
      }
      out += padend;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    check(pos_ == s_.size(), "Json: trailing characters at " +
                                 std::to_string(pos_));
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    check(pos_ < s_.size(), "Json: unexpected end of input");
    return s_[pos_];
  }

  char take() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    // The message names the offset just before the unexpected character,
    // as it always has.
    const std::size_t at = pos_ - 1;
    if (take() != c) fail(strf("Json: expected '%c' at %zu", c, at));
  }

  bool consume_literal(const char* lit) {
    std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json(parse_string());
    if (consume_literal("true")) return Json(true);
    if (consume_literal("false")) return Json(false);
    if (consume_literal("null")) return Json(nullptr);
    return parse_number();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = take();
      if (c == '"') break;
      if (c == '\\') {
        char e = take();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            check(pos_ + 4 <= s_.size(), "Json: bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("Json: bad hex digit in \\u escape");
            }
            // ASCII-only round trip is sufficient for our own documents.
            check(code < 0x80, "Json: non-ASCII \\u escape unsupported");
            out += static_cast<char>(code);
            break;
          }
          default: fail("Json: bad escape character");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    check(pos_ > start, "Json: invalid number");
    const std::string text = s_.substr(start, pos_ - start);
    Json j(std::stod(text));
    std::int64_t n = 0;
    const char* const end = text.data() + text.size();
    const auto [last, ec] = std::from_chars(text.data(), end, n);
    if (ec == std::errc() && last == end) j.int_ = n;
    return j;
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      char c = take();
      if (c == ']') break;
      check(c == ',', "Json: expected ',' or ']' in array");
    }
    return arr;
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      char c = take();
      if (c == '}') break;
      check(c == ',', "Json: expected ',' or '}' in object");
    }
    return obj;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

Json Json::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

bool operator==(const Json& a, const Json& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Json::Kind::Null: return true;
    case Json::Kind::Bool: return a.bool_ == b.bool_;
    case Json::Kind::Number:
      return a.int_ && b.int_ ? *a.int_ == *b.int_ : a.num_ == b.num_;
    case Json::Kind::String: return a.str_ == b.str_;
    case Json::Kind::Array: return a.arr_ == b.arr_;
    case Json::Kind::Object: return a.obj_ == b.obj_;
  }
  return false;
}

}  // namespace gemmtune
