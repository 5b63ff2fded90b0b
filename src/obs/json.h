#ifndef PA_OBS_JSON_H_
#define PA_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace pa::obs {

/// The one JSON emitter: registry snapshots, health, traces, the NDJSON
/// serving envelopes and every BENCH file are written through it. It sits
/// in `pa_obs`, the lowest layer, so every other layer can use it.
///
/// Numbers: integers print as integers; a double with no fractional part
/// below 1e15 prints without one ("3", not "3.000000"), any other finite
/// double with 17 significant digits (it round-trips). JSON has no NaN or
/// infinity, and every numeric field stays a number (bench_compare.py
/// checks registry snapshots for that), so a non-finite double is written
/// as 0.

/// Appends `value` as a JSON number, by the rule above.
void AppendJsonNumber(double value, std::string* out);

/// Append-style builder:
///
///   JsonWriter w;
///   w.BeginObject().Field("ok", true).Field("n", 3).EndObject();
///   w.str()  // {"ok":true,"n":3}
///
/// BeginObject/BeginArray with a key open a member of the enclosing
/// object; without one, a bare value (the top level, or an array element).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& BeginObject(std::string_view key);
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& BeginArray(std::string_view key);
  JsonWriter& EndArray();
  JsonWriter& Field(std::string_view key, std::string_view value);
  // A string literal would otherwise pick the bool overload.
  JsonWriter& Field(std::string_view key, const char* value);
  JsonWriter& Field(std::string_view key, double value);
  JsonWriter& Field(std::string_view key, int64_t value);
  JsonWriter& Field(std::string_view key, int value);
  JsonWriter& Field(std::string_view key, uint64_t value);
  JsonWriter& Field(std::string_view key, bool value);
  /// `ns` nanoseconds as microseconds with three exact decimals ("12.345"),
  /// without a round trip through double (long traces stay exact).
  JsonWriter& FieldMicros(std::string_view key, uint64_t ns);
  /// Raw (pre-serialized) value, e.g. a nested object built separately.
  JsonWriter& RawField(std::string_view key, std::string_view json);
  JsonWriter& Element(int64_t value);
  JsonWriter& Element(double value);
  /// Raw (pre-serialized) array element, e.g. a nested object per entry.
  JsonWriter& RawElement(std::string_view json);

  const std::string& str() const { return out_; }

 private:
  void Comma();
  void Key(std::string_view key);

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace pa::obs

#endif  // PA_OBS_JSON_H_
