#include "common/env.hpp"

#include <cstdlib>
#include <limits>

namespace gnrfet::common {

std::string env_or(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::string(v) : fallback;
}

namespace env {

EnvError::EnvError(std::string name, std::string value, const std::string& reason)
    : std::runtime_error(std::string(name) + "=\"" + value + "\": " + reason),
      name_(std::move(name)),
      value_(std::move(value)) {}

int get_positive_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  const std::string value(v);
  long parsed = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') {
      throw EnvError(name, value, "expected a positive decimal integer");
    }
    parsed = parsed * 10 + (c - '0');
    if (parsed > std::numeric_limits<int>::max()) {
      throw EnvError(name, value, "value does not fit in int");
    }
  }
  if (parsed < 1) throw EnvError(name, value, "value must be >= 1");
  return static_cast<int>(parsed);
}

}  // namespace env

}  // namespace gnrfet::common
