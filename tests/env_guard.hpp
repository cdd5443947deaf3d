#pragma once

#include <cstdlib>
#include <string>

#include "common/env.hpp"

namespace gnrfet::tests {

/// Scoped set (or, with a null value, unset) of one environment variable,
/// restoring the prior state on exit so the single-process `ctest -L fast`
/// run sees no cross-test pollution.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value)
      : name_(name), previous_(common::env_or(name, "")) {
    if (value) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (!previous_.empty()) {
      ::setenv(name_.c_str(), previous_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::string name_;
  std::string previous_;  ///< the prior value; empty when unset (or set empty)
};

}  // namespace gnrfet::tests
