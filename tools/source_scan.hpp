#pragma once

// Lexical scanning helpers for the analyzer passes (gnrfet_analyze) and
// their tests. Everything operates on
// whole-file strings; nothing here touches the filesystem.

#include <cctype>
#include <string>

namespace gnrfet::scan {

inline bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

namespace detail {

/// True when the '"' at `pos` opens a raw string literal: it is directly
/// preceded by `R` with an optional `u8`/`u`/`U`/`L` encoding prefix, and
/// that prefix is not the tail of a longer identifier (`FooR"..."` is a
/// macro call followed by a string, not a raw literal).
inline bool is_raw_string_quote(const std::string& in, size_t pos) {
  if (pos == 0 || in[pos - 1] != 'R') return false;
  size_t start = pos - 1;  // index of 'R'
  if (start >= 2 && in[start - 2] == 'u' && in[start - 1] == '8') {
    start -= 2;
  } else if (start >= 1 &&
             (in[start - 1] == 'u' || in[start - 1] == 'U' || in[start - 1] == 'L')) {
    start -= 1;
  }
  return start == 0 || !ident_char(in[start - 1]);
}

}  // namespace detail

/// Blank out comments and string/char literals, preserving newlines so line
/// numbers survive. Handles //, /* */, "..." and '...' with escapes, raw
/// string literals (R"delim(...)delim" with u8/u/U/L prefixes), escaped
/// newlines inside ordinary literals, and backslash-continued // comments.
/// Newlines inside literals and comments are kept, so the output has exactly
/// the input's line structure.
inline std::string strip_comments_and_strings(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State st = State::kCode;
  std::string raw_close;  // ")delim\"" terminator while in kRawString
  for (size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case State::kCode:
        if (c == '/' && next == '/') {
          st = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          st = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == '"' && detail::is_raw_string_quote(in, i)) {
          // R"delim( ... )delim" — the delimiter (up to 16 chars) ends at the
          // first '('; no escape processing happens until )delim" closes it.
          const size_t paren = in.find('(', i + 1);
          if (paren == std::string::npos || paren - (i + 1) > 16) {
            st = State::kString;  // malformed; degrade to an ordinary literal
            out += ' ';
            break;
          }
          raw_close = ")" + in.substr(i + 1, paren - (i + 1)) + "\"";
          for (size_t k = i; k <= paren; ++k) out += in[k] == '\n' ? '\n' : ' ';
          i = paren;
          st = State::kRawString;
        } else if (c == '"') {
          st = State::kString;
          out += ' ';
        } else if (c == '\'') {
          st = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kRawString:
        if (in.compare(i, raw_close.size(), raw_close) == 0) {
          out.append(raw_close.size(), ' ');
          i += raw_close.size() - 1;
          st = State::kCode;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\\' && next == '\n') {
          // Line continuation: the comment swallows the next line too.
          out += " \n";
          ++i;
        } else if (c == '\n') {
          st = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          st = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          out += ' ';
          out += next == '\n' ? '\n' : ' ';  // keep escaped newlines as lines
          ++i;
        } else if ((st == State::kString && c == '"') ||
                   (st == State::kChar && c == '\'')) {
          st = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

/// Position of `token` in `line` as a whole identifier (not a substring of
/// a longer identifier), or npos.
inline size_t find_token(const std::string& line, const std::string& token, size_t from = 0) {
  size_t pos = line.find(token, from);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(line[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !ident_char(line[end]);
    if (left_ok && right_ok) return pos;
    pos = line.find(token, pos + 1);
  }
  return std::string::npos;
}

/// `token` occurs as an identifier and the next non-space character is '('.
inline bool has_call(const std::string& line, const std::string& token) {
  size_t pos = find_token(line, token);
  while (pos != std::string::npos) {
    size_t i = pos + token.size();
    while (i < line.size() && line[i] == ' ') ++i;
    if (i < line.size() && line[i] == '(') return true;
    pos = find_token(line, token, pos + 1);
  }
  return false;
}

}  // namespace gnrfet::scan
