#pragma once

#include "linalg/preconditioner.hpp"

/// The device loop's Poisson solve is poisson::CapacitanceSolver
/// (poisson/capacitance.hpp), IC(0)-preconditioned; its full-grid oracle
/// lives in tests/support/poisson_oracles.hpp.
namespace gnrfet::poisson {

/// Read only by perfbench's record line; delete with the `[benchmark]` refresh.
inline linalg::PreconditionerKind preconditioner_kind_from_env() {
  return linalg::PreconditionerKind::kIc0;
}

}  // namespace gnrfet::poisson
