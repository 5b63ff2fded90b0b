#include "obs/json.h"

#include <cmath>
#include <cstdio>

namespace pa::obs {

namespace {

// Appends `s` escaped for use inside a JSON string literal (no quotes).
void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (const char ch : s) {
    switch (ch) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          *out += buf;
        } else {
          *out += ch;
        }
    }
  }
}

}  // namespace

void AppendJsonNumber(double value, std::string* out) {
  if (!std::isfinite(value)) {
    *out += '0';
    return;
  }
  char buf[40];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  *out += buf;
}

JsonWriter& JsonWriter::BeginObject() {
  Comma();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::BeginObject(std::string_view key) {
  Key(key);
  out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Comma();
  out_ += '[';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::BeginArray(std::string_view key) {
  Key(key);
  out_ += '[';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

void JsonWriter::Comma() {
  if (need_comma_) out_ += ',';
}

void JsonWriter::Key(std::string_view key) {
  Comma();
  out_ += '"';
  AppendJsonEscaped(key, &out_);
  out_ += "\":";
}

JsonWriter& JsonWriter::Field(std::string_view key, std::string_view value) {
  Key(key);
  out_ += '"';
  AppendJsonEscaped(value, &out_);
  out_ += '"';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Field(std::string_view key, const char* value) {
  return Field(key, std::string_view(value));
}

JsonWriter& JsonWriter::Field(std::string_view key, double value) {
  Key(key);
  AppendJsonNumber(value, &out_);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Field(std::string_view key, int64_t value) {
  Key(key);
  out_ += std::to_string(value);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Field(std::string_view key, int value) {
  return Field(key, static_cast<int64_t>(value));
}

JsonWriter& JsonWriter::Field(std::string_view key, uint64_t value) {
  Key(key);
  out_ += std::to_string(value);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Field(std::string_view key, bool value) {
  Key(key);
  out_ += value ? "true" : "false";
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::FieldMicros(std::string_view key, uint64_t ns) {
  Key(key);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out_ += buf;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::RawField(std::string_view key, std::string_view json) {
  Key(key);
  out_ += json;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Element(int64_t value) {
  Comma();
  out_ += std::to_string(value);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Element(double value) {
  Comma();
  AppendJsonNumber(value, &out_);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::RawElement(std::string_view json) {
  Comma();
  out_ += json;
  need_comma_ = true;
  return *this;
}

}  // namespace pa::obs
