#ifndef PA_SERVE_JSON_H_
#define PA_SERVE_JSON_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>

namespace pa::serve {

/// The request parser of the serving frontends.
///
/// The `pa_serve` wire protocol is newline-delimited *flat* JSON objects —
/// scalar values only, no nesting — which keeps the hand-rolled parser
/// small enough to audit while staying interoperable with `jq`, Python,
/// shell pipelines, etc. Responses are emitted through `obs::JsonWriter`
/// (obs/json.h), which can produce nested objects and arrays (one-way
/// generation is easy; only parsing is restricted).

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

}  // namespace pa::serve

#endif  // PA_SERVE_JSON_H_
