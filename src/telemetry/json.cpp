#include "telemetry/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/check.hpp"

namespace morph::telemetry {

bool Json::as_bool() const {
  MORPH_CHECK_MSG(type_ == Type::kBool, "JSON value is not a bool");
  return bool_;
}

double Json::as_double() const {
  MORPH_CHECK_MSG(type_ == Type::kNumber, "JSON value is not a number");
  return num_;
}

std::int64_t Json::as_int() const {
  MORPH_CHECK_MSG(type_ == Type::kNumber, "JSON value is not a number");
  if (is_int_) return int_;
  // Converting a double outside int64's range is undefined behaviour.
  MORPH_CHECK_MSG(num_ >= -0x1p63 && num_ < 0x1p63,
                  "JSON number is outside the int64 range");
  return static_cast<std::int64_t>(num_);
}

std::optional<std::uint64_t> Json::as_uint(std::uint64_t max) const {
  if (type_ != Type::kNumber) return std::nullopt;
  std::uint64_t v = 0;
  if (is_int_) {
    if (int_ < 0) return std::nullopt;
    v = static_cast<std::uint64_t>(int_);
  } else {
    // Range first: converting an out-of-range double is undefined. The
    // int64 ceiling also refuses literals the parser could not hold exactly.
    if (!(num_ >= 0.0 && num_ < 0x1p63) || std::trunc(num_) != num_) {
      return std::nullopt;
    }
    v = static_cast<std::uint64_t>(num_);
  }
  if (v > max) return std::nullopt;
  return v;
}

const std::string& Json::as_string() const {
  MORPH_CHECK_MSG(type_ == Type::kString, "JSON value is not a string");
  return str_;
}

void Json::push_back(Json v) {
  MORPH_CHECK_MSG(type_ == Type::kArray, "JSON value is not an array");
  arr_.push_back(std::move(v));
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  MORPH_CHECK_MSG(false, "JSON value has no size");
  return 0;
}

const Json& Json::at(std::size_t i) const {
  MORPH_CHECK_MSG(type_ == Type::kArray, "JSON value is not an array");
  MORPH_CHECK_MSG(i < arr_.size(), "JSON array index out of range");
  return arr_[i];
}

Json& Json::set(const std::string& key, Json v) {
  MORPH_CHECK_MSG(type_ == Type::kObject, "JSON value is not an object");
  for (auto& [k, val] : obj_) {
    if (k == key) {
      val = std::move(v);
      return val;
    }
  }
  obj_.emplace_back(key, std::move(v));
  return obj_.back().second;
}

const Json* Json::find(const std::string& key) const {
  MORPH_CHECK_MSG(type_ == Type::kObject, "JSON value is not an object");
  for (const auto& [k, val] : obj_) {
    if (k == key) return &val;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  MORPH_CHECK_MSG(v != nullptr, "JSON object has no key \"" << key << "\"");
  return *v;
}

const std::vector<std::pair<std::string, Json>>& Json::items() const {
  MORPH_CHECK_MSG(type_ == Type::kObject, "JSON value is not an object");
  return obj_;
}

std::string Json::number_to_string(double v) {
  MORPH_CHECK_MSG(std::isfinite(v), "JSON cannot represent non-finite number");
  // Exact integers in the double-exact range print without a fraction.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  // Shortest form that round-trips through strtod.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

namespace {

void escape_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        // Escape control bytes and everything >= 0x80: the escape keeps the
        // emitted JSON plain ASCII whatever bytes a caller-supplied string
        // holds. The cast through unsigned char matters — passing a plain
        // (signed) char >= 0x80 to %x sign-extends into "￿ffXX".
        const unsigned char uc = static_cast<unsigned char>(c);
        if (uc < 0x20 || uc >= 0x80) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", uc);
          out += buf;
        } else {
          out += c;
        }
      }
    }
  }
  out += '"';
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber:
      out += is_int_ ? std::to_string(int_) : number_to_string(num_);
      break;
    case Type::kString: escape_string(out, str_); break;
    case Type::kArray: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        newline_indent(out, indent, depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        newline_indent(out, indent, depth + 1);
        escape_string(out, obj_[i].first);
        out += indent < 0 ? ":" : ": ";
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
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

namespace {

/// Recursive-descent parser over the raw text.
class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    MORPH_CHECK_MSG(pos_ == s_.size(), "JSON: trailing garbage at byte "
                                           << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    MORPH_CHECK_MSG(pos_ < s_.size(), "JSON: unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    MORPH_CHECK_MSG(peek() == c, "JSON: expected '" << c << "' at byte "
                                                    << pos_);
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        MORPH_CHECK_MSG(consume_literal("true"), "JSON: bad literal");
        return Json(true);
      case 'f':
        MORPH_CHECK_MSG(consume_literal("false"), "JSON: bad literal");
        return Json(false);
      case 'n':
        MORPH_CHECK_MSG(consume_literal("null"), "JSON: bad literal");
        return Json();
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      const std::string key = parse_string();
      expect(':');
      obj.set(key, parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      MORPH_CHECK_MSG(c == ',', "JSON: expected ',' or '}' at byte " << pos_);
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      MORPH_CHECK_MSG(c == ',', "JSON: expected ',' or ']' at byte " << pos_);
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      MORPH_CHECK_MSG(pos_ < s_.size(), "JSON: unterminated escape");
      c = s_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          MORPH_CHECK_MSG(pos_ + 4 <= s_.size(), "JSON: bad \\u escape");
          const unsigned code = static_cast<unsigned>(
              std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16));
          pos_ += 4;
          // Single-byte escapes only (all this codebase ever emits — the
          // writer escapes each byte separately); wider code points are
          // passed through as '?' rather than mis-encoded.
          out += code < 0x100 ? static_cast<char>(code) : '?';
          break;
        }
        default: MORPH_CHECK_MSG(false, "JSON: bad escape '\\" << c << "'");
      }
    }
    MORPH_CHECK_MSG(pos_ < s_.size(), "JSON: unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  Json parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    if (integral) {
      errno = 0;
      const long long v = std::strtoll(tok.c_str(), &end, 10);
      MORPH_CHECK_MSG(end && *end == '\0' && !tok.empty(),
                      "JSON: bad number \"" << tok << "\"");
      // A literal past int64 keeps its (inexact) double value instead of
      // saturating silently; checked readers then refuse it.
      if (errno != ERANGE) return Json(static_cast<std::int64_t>(v));
    }
    const double v = std::strtod(tok.c_str(), &end);
    MORPH_CHECK_MSG(end && *end == '\0' && !tok.empty(),
                    "JSON: bad number \"" << tok << "\"");
    return Json(v);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace morph::telemetry
