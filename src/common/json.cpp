#include "common/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"

namespace fedhisyn::json {

namespace {

/// Deepest container nesting parse() accepts.  The parser recurses once per
/// level, so without a cap a hostile line of a few million '[' overflows the
/// stack; every document the repo owns nests fewer than ten levels.
constexpr std::size_t kMaxNesting = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value document() {
    Value value = parse_value();
    skip_ws();
    FEDHISYN_CHECK_MSG(pos_ == text_.size(),
                       "trailing characters after JSON document at offset " << pos_);
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    FEDHISYN_CHECK_MSG(pos_ < text_.size(), "unexpected end of JSON document");
    return text_[pos_];
  }

  void expect(char c) {
    FEDHISYN_CHECK_MSG(peek() == c, "expected '" << c << "' at offset " << pos_
                                                 << ", got '" << text_[pos_] << "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t len = 0;
    while (literal[len] != '\0') ++len;
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  /// `depth` counts the containers enclosing this value.
  Value parse_value(std::size_t depth = 0) {
    skip_ws();
    const char c = peek();
    FEDHISYN_CHECK_MSG((c != '{' && c != '[') || depth < kMaxNesting,
                       "JSON nesting deeper than " << kMaxNesting
                                                   << " levels at offset " << pos_);
    Value value;
    if (c == '{') {
      value.kind = Value::Kind::kObject;
      expect('{');
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return value;
      }
      for (;;) {
        skip_ws();
        std::string key = parse_string_token();
        skip_ws();
        expect(':');
        value.members.emplace_back(std::move(key), parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return value;
      }
    }
    if (c == '[') {
      value.kind = Value::Kind::kArray;
      expect('[');
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return value;
      }
      for (;;) {
        value.items.push_back(parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return value;
      }
    }
    if (c == '"') {
      value.kind = Value::Kind::kString;
      value.text = parse_string_token();
      return value;
    }
    if (c == 't') {
      FEDHISYN_CHECK_MSG(consume_literal("true"), "bad literal at offset " << pos_);
      value.kind = Value::Kind::kBool;
      value.boolean = true;
      return value;
    }
    if (c == 'f') {
      FEDHISYN_CHECK_MSG(consume_literal("false"), "bad literal at offset " << pos_);
      value.kind = Value::Kind::kBool;
      value.boolean = false;
      return value;
    }
    if (c == 'n') {
      FEDHISYN_CHECK_MSG(consume_literal("null"), "bad literal at offset " << pos_);
      value.kind = Value::Kind::kNull;
      return value;
    }
    // Number: capture the raw token and validate it parses.
    const std::size_t start = pos_;
    if (peek() == '-' || peek() == '+') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    value.kind = Value::Kind::kNumber;
    value.text = text_.substr(start, pos_ - start);
    char* end = nullptr;
    std::strtod(value.text.c_str(), &end);
    FEDHISYN_CHECK_MSG(!value.text.empty() && end == value.text.c_str() + value.text.size(),
                       "malformed JSON number '" << value.text << "' at offset "
                                                 << start);
    return value;
  }

  std::string parse_string_token() {
    expect('"');
    std::string out;
    for (;;) {
      FEDHISYN_CHECK_MSG(pos_ < text_.size(), "unterminated JSON string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      FEDHISYN_CHECK_MSG(pos_ < text_.size(), "unterminated JSON escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          FEDHISYN_CHECK_MSG(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else FEDHISYN_CHECK_MSG(false, "bad hex digit in \\u escape");
          }
          // Our writers only emit \u00XX for control bytes; decode the
          // low byte and reject the code points we never produce.
          FEDHISYN_CHECK_MSG(code <= 0xFF, "\\u escape beyond latin-1 unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          FEDHISYN_CHECK_MSG(false, "unknown JSON escape '\\" << esc << "'");
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool Value::as_bool() const {
  FEDHISYN_CHECK_MSG(kind == Kind::kBool, "JSON value is not a bool");
  return boolean;
}

long long Value::as_long() const {
  FEDHISYN_CHECK_MSG(kind == Kind::kNumber, "JSON value is not a number");
  char* end = nullptr;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  FEDHISYN_CHECK_MSG(end == text.c_str() + text.size(),
                     "JSON number '" << text << "' is not an integer");
  return parsed;
}

double Value::as_double() const {
  FEDHISYN_CHECK_MSG(kind == Kind::kNumber, "JSON value is not a number");
  return std::strtod(text.c_str(), nullptr);
}

float Value::as_float() const {
  FEDHISYN_CHECK_MSG(kind == Kind::kNumber, "JSON value is not a number");
  return std::strtof(text.c_str(), nullptr);
}

const std::string& Value::as_string() const {
  FEDHISYN_CHECK_MSG(kind == Kind::kString, "JSON value is not a string");
  return text;
}

Value parse(const std::string& text) { return Parser(text).document(); }

std::optional<Value> try_parse(const std::string& text) {
  try {
    return Parser(text).document();
  } catch (const CheckError&) {
    return std::nullopt;
  }
}

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string fmt_float(float value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(value));
  return buf;
}

std::string fmt_double(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace fedhisyn::json
