#pragma once

// The repo's one JSON reader (trace exports, the analyzer baseline).
// Standard-library only: perfbench builds gnrfet_trace_report, which
// includes this as "json.hpp", with no include path and no library.

#include <cctype>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace gnrfet::json {

/// Minimal JSON value: enough for the subset the trace writer emits
/// (objects, arrays, strings, numbers, bools, null). Objects keep
/// insertion order as key/value pairs.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool parse(Value& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == text_.size();
  }

  size_t error_pos() const { return pos_; }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            // The writer never emits \u escapes; accept and skip them.
            if (pos_ + 4 > text_.size()) return false;
            pos_ += 4;
            out += '?';
            break;
          default:
            return false;
        }
      } else {
        out += c;
      }
    }
    return false;
  }

  bool parse_number(double& out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    // strtod instead of stod: stod throws on subnormal magnitudes, which a
    // histogram sum can legitimately contain.
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    out = std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }

  bool parse_value(Value& out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = Value::Kind::kObject;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != ':') return false;
        ++pos_;
        Value v;
        if (!parse_value(v)) return false;
        out.object.emplace_back(std::move(key), std::move(v));
        skip_ws();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out.kind = Value::Kind::kArray;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        Value v;
        if (!parse_value(v)) return false;
        out.array.push_back(std::move(v));
        skip_ws();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out.kind = Value::Kind::kString;
      return parse_string(out.str);
    }
    if (c == 't') {
      out.kind = Value::Kind::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.kind = Value::Kind::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (c == 'n') {
      out.kind = Value::Kind::kNull;
      return literal("null");
    }
    out.kind = Value::Kind::kNumber;
    return parse_number(out.number);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace gnrfet::json
