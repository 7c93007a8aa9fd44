#include "runtime/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace csdac::runtime {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double def) const {
  const JsonValue* v = find(key);
  return v && v->is_number() ? v->num : def;
}

std::int64_t JsonValue::int_or(std::string_view key, std::int64_t def) const {
  const JsonValue* v = find(key);
  if (!v || !v->is_number()) return def;
  // Saturate before casting: converting a double beyond int64 range (a
  // hostile "chips": 1e999, or NaN) is undefined behavior. Saturated
  // values then fail the caller's bounds checks like any other
  // out-of-range input. The NaN comparison is deliberately inverted so
  // NaN lands in the first branch.
  const double n = v->num;
  if (!(n >= -9223372036854775808.0)) {
    return std::numeric_limits<std::int64_t>::min();
  }
  if (n >= 9223372036854775808.0) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return static_cast<std::int64_t>(n);
}

bool JsonValue::bool_or(std::string_view key, bool def) const {
  const JsonValue* v = find(key);
  return v && v->type == Type::kBool ? v->b : def;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string_view def) const {
  const JsonValue* v = find(key);
  return v && v->is_string() ? v->str : std::string(def);
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* err) : s_(text), err_(err) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const char* msg) {
    if (err_) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s at offset %zu", msg, pos_);
      *err_ = buf;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool value(JsonValue& out) {
    if (++depth_ > 64) return fail("nesting too deep");
    bool ok = value_inner(out);
    --depth_;
    return ok;
  }

  bool value_inner(JsonValue& out) {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    const char c = s_[pos_];
    switch (c) {
      case '{': return object(out);
      case '[': return array(out);
      case '"':
        out.type = JsonValue::Type::kString;
        return string(out.str);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.b = true;
        return literal("true") || fail("bad literal");
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.b = false;
        return literal("false") || fail("bad literal");
      case 'n':
        out.type = JsonValue::Type::kNull;
        return literal("null") || fail("bad literal");
      default: return number(out);
    }
  }

  bool object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected key");
      if (!string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!value(v)) return false;
      out.obj.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!value(v)) return false;
      out.arr.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (s_.size() - pos_ < 4) return fail("bad \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogate pairs in request
            // files are not supported; they decode as two replacement-ish
            // 3-byte sequences, which is harmless for config text).
            if (cp < 0x80) {
              out += static_cast<char>(cp);
            } else if (cp < 0x800) {
              out += static_cast<char>(0xc0 | (cp >> 6));
              out += static_cast<char>(0x80 | (cp & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (cp >> 12));
              out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (cp & 0x3f));
            }
            break;
          }
          default: return fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
      eat_digits();
    }
    if (!digits) return fail("expected value");
    out.type = JsonValue::Type::kNumber;
    out.num = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(),
                          nullptr);
    if (!std::isfinite(out.num)) return fail("non-finite number");
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string* err_;
};

}  // namespace

bool parse_json(std::string_view text, JsonValue& out, std::string* err) {
  return Parser(text, err).parse(out);
}

}  // namespace csdac::runtime
