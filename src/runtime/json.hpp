// Minimal dependency-free JSON support for the runtime layer: a
// recursive-descent parser for the design-service requests (batch files
// and server frames). Writers escape through obs::append_json_escaped
// (obs/json_escape.hpp). Numbers are doubles (the request schema never
// needs more than 53-bit integers); object keys keep insertion order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace csdac::runtime {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }

  /// First member with the given key, or nullptr.
  const JsonValue* find(std::string_view key) const;

  // Typed getters with defaults, tolerant of missing keys (objects only;
  // return `def` otherwise). The service uses these to apply request
  // overrides on top of the library defaults.
  double number_or(std::string_view key, double def) const;
  std::int64_t int_or(std::string_view key, std::int64_t def) const;
  bool bool_or(std::string_view key, bool def) const;
  std::string string_or(std::string_view key, std::string_view def) const;
};

/// Parses `text` into `out`. On failure returns false and, if `err` is
/// non-null, stores a message with the byte offset of the problem.
bool parse_json(std::string_view text, JsonValue& out, std::string* err);

}  // namespace csdac::runtime
