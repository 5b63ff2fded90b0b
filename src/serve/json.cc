#include "serve/json.h"

#include <cctype>
#include <charconv>
#include <cmath>

namespace pa::serve {

namespace {

struct Cursor {
  const char* p;
  const char* end;

  bool done() const { return p >= end; }
  char peek() const { return *p; }
  void SkipWs() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }
};

bool Fail(std::string* error, const std::string& why) {
  if (error) *error = why;
  return false;
}

// Parses a JSON string literal (cursor on the opening quote).
bool ParseString(Cursor& c, std::string* out, std::string* error) {
  ++c.p;  // opening quote
  out->clear();
  while (!c.done()) {
    const char ch = *c.p++;
    if (ch == '"') return true;
    if (ch != '\\') {
      out->push_back(ch);
      continue;
    }
    if (c.done()) break;
    const char esc = *c.p++;
    switch (esc) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (c.end - c.p < 4) return Fail(error, "truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = *c.p++;
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return Fail(error, "bad \\u escape");
        }
        // UTF-8 encode the BMP code point (surrogate pairs are passed
        // through as two 3-byte sequences; good enough for ids and names).
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xE0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        return Fail(error, "bad escape character");
    }
  }
  return Fail(error, "unterminated string");
}

bool ParseNumber(Cursor& c, double* out, std::string* error) {
  const char* start = c.p;
  if (!c.done() && (*c.p == '-' || *c.p == '+')) ++c.p;
  while (!c.done() && (std::isdigit(static_cast<unsigned char>(*c.p)) ||
                       *c.p == '.' || *c.p == 'e' || *c.p == 'E' ||
                       *c.p == '-' || *c.p == '+')) {
    ++c.p;
  }
  const auto [ptr, ec] = std::from_chars(start, c.p, *out);
  if (ec != std::errc() || ptr != c.p) return Fail(error, "bad number");
  return true;
}

bool ParseLiteral(Cursor& c, const char* word, std::string* error) {
  for (const char* w = word; *w; ++w) {
    if (c.done() || *c.p++ != *w) return Fail(error, "bad literal");
  }
  return true;
}

}  // namespace

bool ParseFlatObject(const std::string& text,
                     std::map<std::string, JsonValue>* out,
                     std::string* error) {
  out->clear();
  Cursor c{text.data(), text.data() + text.size()};
  c.SkipWs();
  if (c.done() || c.peek() != '{') return Fail(error, "expected '{'");
  ++c.p;
  c.SkipWs();
  if (!c.done() && c.peek() == '}') {
    ++c.p;
  } else {
    for (;;) {
      c.SkipWs();
      if (c.done() || c.peek() != '"') return Fail(error, "expected key");
      std::string key;
      if (!ParseString(c, &key, error)) return false;
      c.SkipWs();
      if (c.done() || c.peek() != ':') return Fail(error, "expected ':'");
      ++c.p;
      c.SkipWs();
      if (c.done()) return Fail(error, "truncated object");

      JsonValue value;
      const char ch = c.peek();
      if (ch == '"') {
        value.type = JsonValue::Type::kString;
        if (!ParseString(c, &value.string, error)) return false;
      } else if (ch == 't') {
        if (!ParseLiteral(c, "true", error)) return false;
        value.type = JsonValue::Type::kBool;
        value.boolean = true;
      } else if (ch == 'f') {
        if (!ParseLiteral(c, "false", error)) return false;
        value.type = JsonValue::Type::kBool;
        value.boolean = false;
      } else if (ch == 'n') {
        if (!ParseLiteral(c, "null", error)) return false;
        value.type = JsonValue::Type::kNull;
      } else if (ch == '{' || ch == '[') {
        return Fail(error, "nested containers are not supported");
      } else {
        value.type = JsonValue::Type::kNumber;
        if (!ParseNumber(c, &value.number, error)) return false;
      }
      (*out)[key] = std::move(value);

      c.SkipWs();
      if (c.done()) return Fail(error, "truncated object");
      if (c.peek() == ',') {
        ++c.p;
        continue;
      }
      if (c.peek() == '}') {
        ++c.p;
        break;
      }
      return Fail(error, "expected ',' or '}'");
    }
  }
  c.SkipWs();
  if (!c.done()) return Fail(error, "trailing characters after object");
  return true;
}

}  // namespace pa::serve
