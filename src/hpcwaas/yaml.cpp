#include "hpcwaas/yaml.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/strings.hpp"

namespace climate::hpcwaas {
namespace {

struct Line {
  int indent = 0;
  std::string content;  // without indentation or trailing comment
};

/// Strips a trailing comment that is not inside quotes.
std::string strip_comment(const std::string& line) {
  bool in_single = false, in_double = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\'' && !in_double) in_single = !in_single;
    else if (c == '"' && !in_single) in_double = !in_double;
    else if (c == '#' && !in_single && !in_double && (i == 0 || std::isspace(static_cast<unsigned char>(line[i - 1])))) {
      return line.substr(0, i);
    }
  }
  return line;
}

Result<std::vector<Line>> tokenize(const std::string& text) {
  std::vector<Line> lines;
  for (const std::string& raw : common::split(text, '\n')) {
    std::string stripped = strip_comment(raw);
    std::size_t indent = 0;
    while (indent < stripped.size() && stripped[indent] == ' ') ++indent;
    if (indent < stripped.size() && stripped[indent] == '\t') {
      return Status::InvalidArgument("tabs are not allowed for YAML indentation");
    }
    const std::string content = common::trim(stripped);
    if (content.empty() || content == "---") continue;
    lines.push_back({static_cast<int>(indent), content});
  }
  return lines;
}

/// Parses a scalar token: quoted string, bool, null, number, or raw string.
Json parse_scalar(const std::string& token) {
  if (token.size() >= 2 &&
      ((token.front() == '"' && token.back() == '"') ||
       (token.front() == '\'' && token.back() == '\''))) {
    return Json(token.substr(1, token.size() - 2));
  }
  if (token == "true" || token == "True") return Json(true);
  if (token == "false" || token == "False") return Json(false);
  if (token == "null" || token == "~") return Json(nullptr);
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  // "inf", "nan" or "1e999" stays a string: JSON has no non-finite numbers.
  if (end && *end == '\0' && end != token.c_str() && std::isfinite(value)) return Json(value);
  return Json(token);
}

/// Splits "key: value" at the first ':' followed by space/end, respecting
/// quotes. Returns false if the line is not a mapping entry.
bool split_key_value(const std::string& content, std::string* key, std::string* value) {
  bool in_single = false, in_double = false;
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (c == '\'' && !in_double) in_single = !in_single;
    else if (c == '"' && !in_single) in_double = !in_double;
    else if (c == ':' && !in_single && !in_double &&
             (i + 1 == content.size() || content[i + 1] == ' ')) {
      *key = common::trim(content.substr(0, i));
      *value = i + 1 < content.size() ? common::trim(content.substr(i + 1)) : "";
      if (key->size() >= 2 && ((key->front() == '"' && key->back() == '"') ||
                               (key->front() == '\'' && key->back() == '\''))) {
        *key = key->substr(1, key->size() - 2);
      }
      return !key->empty();
    }
  }
  return false;
}

class BlockParser {
 public:
  explicit BlockParser(std::vector<Line> lines) : lines_(std::move(lines)) {}

  Result<Json> parse() {
    if (lines_.empty()) return Json::object();
    Json root;
    Status st = parse_block(0, lines_[0].indent, &root);
    if (!st.ok()) return st;
    if (pos_ != lines_.size()) {
      return Status::InvalidArgument("inconsistent indentation near '" + lines_[pos_].content + "'");
    }
    return root;
  }

 private:
  Status parse_block(std::size_t start, int indent, Json* out) {
    pos_ = start;
    const bool is_sequence = lines_[pos_].content.rfind("- ", 0) == 0 || lines_[pos_].content == "-";
    if (is_sequence) {
      *out = Json::array();
      while (pos_ < lines_.size() && lines_[pos_].indent == indent &&
             (lines_[pos_].content.rfind("- ", 0) == 0 || lines_[pos_].content == "-")) {
        std::string item = lines_[pos_].content == "-" ? "" : common::trim(lines_[pos_].content.substr(2));
        const std::size_t item_line = pos_;
        ++pos_;
        if (item.empty()) {
          // Nested block under the dash.
          if (pos_ < lines_.size() && lines_[pos_].indent > indent) {
            Json child;
            CLIMATE_RETURN_IF_ERROR(parse_block(pos_, lines_[pos_].indent, &child));
            out->push_back(std::move(child));
          } else {
            out->push_back(Json(nullptr));
          }
          continue;
        }
        std::string key, value;
        if (split_key_value(item, &key, &value)) {
          // "- key: value" starts an inline mapping; further keys may follow
          // at a deeper indent.
          Json entry = Json::object();
          if (value.empty()) {
            if (pos_ < lines_.size() && lines_[pos_].indent > indent + 2 - 1 &&
                lines_[pos_].indent > indent) {
              Json child;
              CLIMATE_RETURN_IF_ERROR(parse_block(pos_, lines_[pos_].indent, &child));
              entry[key] = std::move(child);
            } else {
              entry[key] = Json(nullptr);
            }
          } else {
            entry[key] = parse_scalar(value);
          }
          // Continuation keys of the same mapping are indented to align past
          // the dash (indent + 2).
          while (pos_ < lines_.size() && lines_[pos_].indent == indent + 2 &&
                 lines_[pos_].content.rfind("- ", 0) != 0) {
            std::string k2, v2;
            if (!split_key_value(lines_[pos_].content, &k2, &v2)) {
              return Status::InvalidArgument("expected mapping entry in sequence item at line of '" +
                                             lines_[pos_].content + "'");
            }
            ++pos_;
            if (v2.empty()) {
              if (pos_ < lines_.size() && lines_[pos_].indent > indent + 2) {
                Json child;
                CLIMATE_RETURN_IF_ERROR(parse_block(pos_, lines_[pos_].indent, &child));
                entry[k2] = std::move(child);
              } else {
                entry[k2] = Json(nullptr);
              }
            } else {
              entry[k2] = parse_scalar(v2);
            }
          }
          out->push_back(std::move(entry));
        } else {
          (void)item_line;
          out->push_back(parse_scalar(item));
        }
      }
      return Status::Ok();
    }

    // Block mapping.
    *out = Json::object();
    while (pos_ < lines_.size() && lines_[pos_].indent == indent) {
      std::string key, value;
      if (!split_key_value(lines_[pos_].content, &key, &value)) {
        return Status::InvalidArgument("expected 'key: value' at '" + lines_[pos_].content + "'");
      }
      ++pos_;
      if (!value.empty()) {
        (*out)[key] = parse_scalar(value);
        continue;
      }
      if (pos_ < lines_.size() && lines_[pos_].indent > indent) {
        Json child;
        CLIMATE_RETURN_IF_ERROR(parse_block(pos_, lines_[pos_].indent, &child));
        (*out)[key] = std::move(child);
      } else {
        (*out)[key] = Json(nullptr);
      }
    }
    return Status::Ok();
  }

  std::vector<Line> lines_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Json> parse_yaml(const std::string& text) {
  auto lines = tokenize(text);
  if (!lines.ok()) return lines.status();
  BlockParser parser(std::move(*lines));
  return parser.parse();
}

}  // namespace climate::hpcwaas
