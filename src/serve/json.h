#ifndef PA_SERVE_JSON_H_
#define PA_SERVE_JSON_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>

namespace pa::serve {

/// Minimal JSON support for the serving frontends.
///
/// The `pa_serve` wire protocol is newline-delimited *flat* JSON objects —
/// scalar values only, no nesting — which keeps the hand-rolled parser
/// small enough to audit while staying interoperable with `jq`, Python,
/// shell pipelines, etc. Responses are emitted through `JsonWriter`, which
/// can produce nested objects and arrays (one-way generation is easy; only
/// parsing is restricted).

/// One scalar value of a flat JSON object.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;

  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  /// Checked integer read: true, with `*out` set, iff this is a number with
  /// no fractional part inside Int's range. The range test runs on the
  /// double before the cast, so no value (1e300, a NaN) ever reaches an
  /// undefined double -> integer conversion.
  template <typename Int>
  bool ToInt(Int* out) const {
    static_assert(std::is_integral_v<Int> && std::is_signed_v<Int>);
    // -2^(bits-1) is exact as a double, and so is its negation.
    const double limit = -static_cast<double>(std::numeric_limits<Int>::min());
    if (type != Type::kNumber || number != std::trunc(number) ||
        number < -limit || number >= limit) {
      return false;
    }
    *out = static_cast<Int>(number);
    return true;
  }
};

/// Parses `{"key": scalar, ...}`. Returns false (with a reason in `error`)
/// on malformed input or nested containers. Duplicate keys keep the last
/// value. An empty object `{}` is valid.
bool ParseFlatObject(const std::string& text,
                     std::map<std::string, JsonValue>* out,
                     std::string* error = nullptr);

/// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
std::string EscapeJson(const std::string& s);

/// Tiny append-style JSON builder:
///
///   JsonWriter w;
///   w.BeginObject().Field("ok", true).Field("n", 3).EndObject();
///   w.str()  // {"ok":true,"n":3}
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray(const std::string& key = "");
  JsonWriter& EndArray();
  JsonWriter& Field(const std::string& key, const std::string& value);
  JsonWriter& Field(const std::string& key, const char* value);
  JsonWriter& Field(const std::string& key, double value);
  JsonWriter& Field(const std::string& key, int64_t value);
  JsonWriter& Field(const std::string& key, int value);
  JsonWriter& Field(const std::string& key, uint64_t value);
  JsonWriter& Field(const std::string& key, bool value);
  /// Raw (pre-serialized) value, e.g. a nested object built separately.
  JsonWriter& RawField(const std::string& key, const std::string& json);
  JsonWriter& Element(int64_t value);
  JsonWriter& Element(double value);
  /// Raw (pre-serialized) array element, e.g. a nested object per entry.
  JsonWriter& RawElement(const std::string& json);

  const std::string& str() const { return out_; }

 private:
  void Comma();
  void Key(const std::string& key);

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace pa::serve

#endif  // PA_SERVE_JSON_H_
