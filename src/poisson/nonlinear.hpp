#pragma once

/// Nonlinear Poisson problem of the Gummel loop.
///
/// The NEGF charge at the reference potential phi_ref is split into
/// electron (n0 >= 0) and hole (p0 >= 0) node populations. Within one
/// Gummel iteration the charge responds to the new potential through the
/// standard exponential linearization
///   q(phi) = -n0 exp((phi - phi_ref)/Vt) + p0 exp(-(phi - phi_ref)/Vt)
///            + rho_fixed,
/// which regularizes the fixed-point iteration (Trellakis/Gummel). The
/// device loop solves it on the ribbon's charge nodes
/// (poisson/capacitance.hpp). Its oracle, the full-grid Newton with an SPD
/// Jacobian (A + diag((n + p)/Vt)) and preconditioned, warm-started PCG
/// inner solves, lives in tests/support/poisson_oracles.hpp.
namespace gnrfet::poisson {

struct NonlinearOptions {
  double thermal_voltage_V = 0.02585;
  double tolerance_V = 1e-5;
  int max_newton_iterations = 60;
  double max_step_V = 0.1;  ///< per-iteration potential damping clamp
};

}  // namespace gnrfet::poisson
