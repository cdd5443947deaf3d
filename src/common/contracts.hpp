#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

/// Machine-checked physics and numerics contracts.
///
/// The paper's claims rest on identities the solvers would otherwise trust
/// silently: Hermiticity of the tight-binding Hamiltonian, the NEGF
/// spectral sum rule, bounded Poisson residuals, non-singular MNA stamps,
/// NaN-free bias tables.
/// GNRFET_REQUIRE (precondition), GNRFET_ENSURE (postcondition) and
/// GNRFET_CHECK_FINITE guard those invariants with a typed error
/// (ContractViolation) naming the subsystem and the invariant, so a
/// corrupted input is rejected at the layer where it originates instead of
/// surfacing three layers up as a wrong contour plot.
///
/// Checks are always compiled in: every build, Release included, runs
/// them.
namespace gnrfet::contracts {

/// Typed contract failure: which subsystem ("gnr", "negf", "poisson",
/// "device", "device/tablegen", "circuit", "model", ...) and which named
/// invariant; what() adds the site and a detail string quoting the
/// offending values.
class ContractViolation : public std::runtime_error {
 public:
  ContractViolation(std::string subsystem, std::string invariant, const std::string& detail,
                    const char* file, int line);

  // Test seam: tests assert which contract fired; callers only report what().
  const std::string& subsystem() const { return subsystem_; }
  // Test seam: tests assert which contract fired; callers only report what().
  const std::string& invariant() const { return invariant_; }

 private:
  std::string subsystem_;
  std::string invariant_;
};

/// Throws ContractViolation; out-of-line so call sites stay compact.
[[noreturn]] void fail(const char* subsystem, const char* invariant, const std::string& detail,
                       const char* file, int line);

/// True when every element is finite (no NaN, no infinity).
bool all_finite(const double* data, size_t n);
bool all_finite(const std::vector<double>& v);
bool all_finite(const std::vector<std::vector<double>>& v);

/// True when the axis is finite and strictly ascending (bias-table axes).
bool strictly_ascending(const std::vector<double>& axis);

}  // namespace gnrfet::contracts

#define GNRFET_REQUIRE(subsystem, invariant, cond, detail)                               \
  do {                                                                                   \
    if (!(cond)) {                                                                       \
      ::gnrfet::contracts::fail((subsystem), (invariant), (detail), __FILE__, __LINE__); \
    }                                                                                    \
  } while (0)

/// Postcondition flavour of GNRFET_REQUIRE: the solver promising something
/// about its own output rather than rejecting a caller's input.
#define GNRFET_ENSURE(subsystem, invariant, cond, detail) \
  GNRFET_REQUIRE(subsystem, invariant, cond, detail)

/// Single-scalar finiteness contract; quotes the offending value.
#define GNRFET_CHECK_FINITE(subsystem, invariant, value)      \
  GNRFET_REQUIRE(subsystem, invariant, std::isfinite(value),  \
                 std::string(#value " is not finite: ") + std::to_string(value))
