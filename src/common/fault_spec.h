// The grammar both fault-injection specs share: comma-separated key=value items,
// with probability and non-negative integer values. ChaosSpec (network faults,
// src/fleet/chaos_transport.h) and ChaosFsSpec (storage faults,
// src/io/chaos_fs.h) parse through it; each keeps its own keys and error texts.
#ifndef SRC_COMMON_FAULT_SPEC_H_
#define SRC_COMMON_FAULT_SPEC_H_

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>

namespace tsvd {

// A probability in [0, 1], the whole of `value`.
inline bool ParseProbability(const std::string& value, double* out) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
    return false;
  }
  *out = p;
  return true;
}

// A non-negative decimal integer, the whole of `value`.
inline bool ParseNonNegative(const std::string& value, int64_t* out) {
  char* end = nullptr;
  const long long n = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || n < 0) {
    return false;
  }
  *out = n;
  return true;
}

// Calls item(key, value) for each non-empty item of `text` in order, and stops
// at the first that returns false (it sets `error`). An item without '=' fails
// with "<spec> item \"...\" is not key=value".
inline bool ForEachSpecItem(
    const std::string& text, const std::string& spec,
    const std::function<bool(const std::string& key, const std::string& value)>& item,
    std::string* error) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) {
      comma = text.size();
    }
    const std::string entry = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) {
      continue;
    }
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      *error = spec + " item \"" + entry + "\" is not key=value";
      return false;
    }
    if (!item(entry.substr(0, eq), entry.substr(eq + 1))) {
      return false;
    }
  }
  return true;
}

}  // namespace tsvd

#endif  // SRC_COMMON_FAULT_SPEC_H_
