#pragma once
// Minimal JSON: escaping for the exporters and a recursive-descent
// parser so tests can round-trip the emitted Chrome-trace and metrics
// files without an external dependency.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tda::telemetry {

/// Escapes a string for embedding inside a JSON string literal
/// (without the surrounding quotes).
std::string json_escape(std::string_view s);

/// Formats a double as a JSON number (integral values without a
/// decimal point). Non-finite values serialize as `null` — never as a
/// fabricated number — and are tallied in nonfinite_dropped().
std::string json_number(double value);

/// Process-wide count of non-finite values the telemetry serializers
/// dropped to null (json_number and span-attr formatting). Exported as
/// the `telemetry.nonfinite_dropped` counter in metrics JSON.
std::uint64_t nonfinite_dropped();

/// Records one dropped non-finite value (serializer-internal).
void note_nonfinite_dropped();

/// One parsed JSON value. Object member order is preserved.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_object() const { return kind == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind == Kind::Array; }
  [[nodiscard]] bool is_number() const { return kind == Kind::Number; }

  /// Member lookup on objects; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Parses a complete JSON document; nullopt on any syntax error or
/// trailing garbage.
std::optional<JsonValue> json_parse(std::string_view text);

}  // namespace tda::telemetry
