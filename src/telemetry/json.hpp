// Minimal JSON document model for the telemetry subsystem.
//
// The repo bakes in no JSON dependency, and the telemetry formats (Chrome
// trace events, BenchReport) need both deterministic serialization — byte
// identical output for bit-identical inputs, which is what lets tier-1 diff
// two traces — and parsing (morph-report reads reports back). This is a
// deliberately small value type: null/bool/number/string/array/object,
// insertion-ordered object keys, and shortest-round-trip number printing.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace morph::telemetry {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), num_(v) {}
  Json(std::int64_t v)
      : type_(Type::kNumber), num_(static_cast<double>(v)), int_(v),
        is_int_(true) {}
  /// Values past int64 are held as the double the reader parses them to
  /// (as_uint refuses both), never wrapped negative.
  Json(std::uint64_t v)
      : type_(Type::kNumber), num_(static_cast<double>(v)),
        is_int_(v <= static_cast<std::uint64_t>(
                         std::numeric_limits<std::int64_t>::max())) {
    if (is_int_) int_ = static_cast<std::int64_t>(v);
  }
  Json(int v) : Json(static_cast<std::int64_t>(v)) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}

  static Json array() { return Json(Type::kArray); }
  static Json object() { return Json(Type::kObject); }

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }

  // Typed accessors; MORPH_CHECK on type mismatch.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;

  /// Checked read of an untrusted integer field: the value when this is a
  /// number holding an integer in [0, max], nullopt otherwise (a fraction
  /// such as 1.5, a negative, 1e30, or an integer literal past int64).
  std::optional<std::uint64_t> as_uint(
      std::uint64_t max = std::numeric_limits<std::int64_t>::max()) const;

  // --- arrays ---
  void push_back(Json v);
  std::size_t size() const;
  const Json& at(std::size_t i) const;

  // --- objects (insertion-ordered) ---
  Json& set(const std::string& key, Json v);  ///< insert or overwrite
  const Json* find(const std::string& key) const;  ///< nullptr when absent
  const Json& at(const std::string& key) const;    ///< MORPH_CHECK when absent
  const std::vector<std::pair<std::string, Json>>& items() const;

  /// Deterministic serialization; indent < 0 is compact single-line,
  /// indent >= 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = -1) const;

  /// Parses a complete JSON document; throws morph::CheckError on malformed
  /// input or trailing garbage.
  static Json parse(const std::string& text);

  /// Shortest decimal form of `v` that parses back to the same double
  /// (integers without exponent when exact). Used for all number output.
  static std::string number_to_string(double v);

 private:
  explicit Json(Type t) : type_(t) {}
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  bool is_int_ = false;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace morph::telemetry
