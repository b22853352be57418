#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace climate::common {
namespace {

const Json& null_json() {
  static const Json kNull;
  return kNull;
}

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

// JSON (RFC 8259) has no NaN or infinity: those are written as null.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Json> parse_document() {
    skip_ws();
    Json value;
    Status st = parse_value(value);
    if (!st.ok()) return st;
    skip_ws();
    if (pos_ != text_.size()) return Status::InvalidArgument("trailing characters at offset " + std::to_string(pos_));
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  Status error(const std::string& what) {
    return Status::InvalidArgument(what + " at offset " + std::to_string(pos_));
  }

  Status parse_value(Json& out) {
    if (pos_ >= text_.size()) return error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        std::string s;
        CLIMATE_RETURN_IF_ERROR(parse_string(s));
        out = Json(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (text_.compare(pos_, 4, "true") == 0) { pos_ += 4; out = Json(true); return Status::Ok(); }
        return error("invalid literal");
      case 'f':
        if (text_.compare(pos_, 5, "false") == 0) { pos_ += 5; out = Json(false); return Status::Ok(); }
        return error("invalid literal");
      case 'n':
        if (text_.compare(pos_, 4, "null") == 0) { pos_ += 4; out = Json(nullptr); return Status::Ok(); }
        return error("invalid literal");
      default: return parse_number(out);
    }
  }

  Status parse_object(Json& out) {
    ++pos_;  // '{'
    Json::Object object;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') { ++pos_; out = Json(std::move(object)); return Status::Ok(); }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return error("expected object key");
      std::string key;
      CLIMATE_RETURN_IF_ERROR(parse_string(key));
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return error("expected ':'");
      ++pos_;
      skip_ws();
      Json value;
      CLIMATE_RETURN_IF_ERROR(parse_value(value));
      object[std::move(key)] = std::move(value);
      skip_ws();
      if (pos_ >= text_.size()) return error("unterminated object");
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == '}') { ++pos_; break; }
      return error("expected ',' or '}'");
    }
    out = Json(std::move(object));
    return Status::Ok();
  }

  Status parse_array(Json& out) {
    ++pos_;  // '['
    Json::Array array;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') { ++pos_; out = Json(std::move(array)); return Status::Ok(); }
    while (true) {
      skip_ws();
      Json value;
      CLIMATE_RETURN_IF_ERROR(parse_value(value));
      array.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return error("unterminated array");
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == ']') { ++pos_; break; }
      return error("expected ',' or ']'");
    }
    out = Json(std::move(array));
    return Status::Ok();
  }

  Status parse_string(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return error("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          CLIMATE_RETURN_IF_ERROR(parse_hex4(code));
          // Decode surrogate pairs.
          if (code >= 0xD800 && code <= 0xDBFF && pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
              text_[pos_ + 1] == 'u') {
            pos_ += 2;
            unsigned low = 0;
            CLIMATE_RETURN_IF_ERROR(parse_hex4(low));
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(out, code);
          break;
        }
        default: return error("invalid escape");
      }
    }
    return error("unterminated string");
  }

  Status parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return error("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<unsigned>(c - 'A' + 10);
      else return error("invalid hex digit");
    }
    return Status::Ok();
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status parse_number(Json& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool any = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        any = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') { ++pos_; eat_digits(); }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
      eat_digits();
    }
    if (!any) return error("invalid number");
    const double value = std::strtod(text_.c_str() + start, nullptr);
    // A literal beyond the double range would read as ±inf, which no JSON
    // text can hold (an underflow to 0 is kept).
    if (!std::isfinite(value)) return error("number out of range");
    out = Json(value);
    return Status::Ok();
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json& Json::operator[](const std::string& key) {
  if (type_ != Type::kObject) {
    *this = Json::object();
  }
  return object_[key];
}

const Json& Json::operator[](const std::string& key) const {
  if (type_ != Type::kObject) return null_json();
  auto it = object_.find(key);
  if (it == object_.end()) return null_json();
  return it->second;
}

std::string Json::get_string(const std::string& key, const std::string& fallback) const {
  const Json& v = (*this)[key];
  return v.is_string() ? v.as_string() : fallback;
}

double Json::get_number(const std::string& key, double fallback) const {
  const Json& v = (*this)[key];
  return v.is_number() ? v.as_number() : fallback;
}

std::int64_t Json::get_int(const std::string& key, std::int64_t fallback) const {
  const Json& v = (*this)[key];
  return v.is_number() ? v.as_int() : fallback;
}

bool Json::get_bool(const std::string& key, bool fallback) const {
  const Json& v = (*this)[key];
  return v.is_bool() ? v.as_bool() : fallback;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: append_number(out, number_); break;
    case Type::kString: append_escaped(out, string_); break;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& item : array_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        item.dump_to(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        append_escaped(out, key);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        value.dump_to(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0, 0);
  return out;
}

std::string Json::dump_pretty() const {
  std::string out;
  dump_to(out, 2, 0);
  return out;
}

Result<Json> Json::parse(const std::string& text) {
  Parser parser(text);
  return parser.parse_document();
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return number_ == other.number_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return array_ == other.array_;
    case Type::kObject: return object_ == other.object_;
  }
  return false;
}

}  // namespace climate::common
