#include "common/contracts.hpp"

namespace gnrfet::contracts {

namespace {

std::string compose(const std::string& subsystem, const std::string& invariant,
                    const std::string& detail, const char* file, int line) {
  std::string msg = "contract violation [" + subsystem + "/" + invariant + "] at " + file + ":" +
                    std::to_string(line);
  if (!detail.empty()) msg += ": " + detail;
  return msg;
}

}  // namespace

ContractViolation::ContractViolation(std::string subsystem, std::string invariant,
                                     const std::string& detail, const char* file, int line)
    : std::runtime_error(compose(subsystem, invariant, detail, file, line)),
      subsystem_(std::move(subsystem)),
      invariant_(std::move(invariant)) {}

void fail(const char* subsystem, const char* invariant, const std::string& detail,
          const char* file, int line) {
  throw ContractViolation(subsystem, invariant, detail, file, line);
}

bool all_finite(const double* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

bool all_finite(const std::vector<double>& v) { return all_finite(v.data(), v.size()); }

bool all_finite(const std::vector<std::vector<double>>& v) {
  for (const auto& row : v) {
    if (!all_finite(row)) return false;
  }
  return true;
}

bool strictly_ascending(const std::vector<double>& axis) {
  if (!all_finite(axis)) return false;
  for (size_t i = 1; i < axis.size(); ++i) {
    if (!(axis[i] > axis[i - 1])) return false;
  }
  return true;
}

}  // namespace gnrfet::contracts
