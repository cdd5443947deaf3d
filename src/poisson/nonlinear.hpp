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

/// The Newton iteration stops once no node moves by more than this.
inline constexpr double kNewtonTolerance_V = 1e-5;
/// Per-iteration potential damping clamp.
inline constexpr double kMaxNewtonStep_V = 0.1;

/// The charge linearises at the room-temperature thermal voltage
/// (constants::kRoomTemperatureKT_eV).
struct NonlinearOptions {
  // Test seam: the forced non-convergence tests cap the Newton loop.
  int max_newton_iterations = 60;
};

}  // namespace gnrfet::poisson
