// Minimal recursive-descent JSON reader.
//
// The observability layer renders plenty of JSON (journal, health, metrics,
// WAL payloads) but until the crash-consistency work nothing in-tree ever
// needed to read it back. Recovery does: the RecoveryCoordinator folds WAL
// payloads, the serve layer restores breaker snapshots, and the tests assert
// lossless render/parse round-trips. This is a deliberately small reader —
// no writer (the emitters already exist), no SAX interface, no comments —
// tuned for the repo's own output:
//
//   * objects preserve key order (vector of pairs, not a map) so a
//     parse→re-render pipeline can stay byte-comparable;
//   * numbers keep their raw spelling; `as_u64` re-parses the original
//     token so 64-bit counters (ps timestamps, CRCs) survive without a
//     trip through double;
//   * errors carry the byte offset of the failure, never an exception type
//     fancier than the Result<> used everywhere else in the tree.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace uparc::json {

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

[[nodiscard]] constexpr const char* to_string(Type t) {
  switch (t) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "unknown";
}

class Value {
 public:
  Type type = Type::kNull;
  bool boolean = false;
  std::string text;  ///< decoded string, or the raw number token
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;  ///< key order preserved

  [[nodiscard]] bool is(Type t) const noexcept { return type == t; }

  /// Member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// Member lookup that throws std::out_of_range naming the key.
  [[nodiscard]] const Value& at(std::string_view key) const;

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] u64 as_u64() const;  ///< exact, re-parsed from the raw token
  [[nodiscard]] const std::string& as_string() const;
};

/// Parses one JSON document; trailing non-whitespace is an error. The error
/// string is "byte N: what went wrong".
[[nodiscard]] Result<Value> parse(std::string_view text);

/// Re-serializes a Value compactly (no whitespace). Numbers keep their
/// original spelling, object key order is preserved, so
/// to_text(parse(x)) == strip_ws(x) for documents this reader produces.
[[nodiscard]] std::string to_text(const Value& value);

}  // namespace uparc::json
