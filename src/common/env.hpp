#pragma once

#include <stdexcept>
#include <string>

/// Checked environment-variable access. Direct std::getenv returns a raw
/// pointer that is easy to dereference unchecked and easy to parse
/// inconsistently; these helpers centralize the null/empty/malformed
/// handling. The repo-rules pass of gnrfet_analyze bans std::getenv
/// outside src/common/ for that reason.
namespace gnrfet::common {

/// Value of `name`, or `fallback` when unset or empty.
std::string env_or(const char* name, const std::string& fallback);

namespace env {

/// A set-but-unusable environment variable. Thrown instead of silently
/// falling back: a malformed GNRFET_THREADS=1O would otherwise run the
/// whole job single-threaded with no hint why.
class EnvError : public std::runtime_error {
 public:
  EnvError(std::string name, std::string value, const std::string& reason);

  // Test seam: tests assert the rejected variable; callers only report what().
  const std::string& name() const { return name_; }
  // Test seam: tests assert the rejected value; callers only report what().
  const std::string& value() const { return value_; }

 private:
  std::string name_;
  std::string value_;
};

/// Strictly parsed positive integer: unset or empty yields `fallback`;
/// anything else must be all decimal digits, fit in int, and be >= 1, or
/// an EnvError is thrown. The one integer parser: GNRFET_THREADS and the
/// one bench knob, GNRFET_MC_SAMPLES, reject garbage alike.
int get_positive_int(const char* name, int fallback);

}  // namespace env

}  // namespace gnrfet::common
