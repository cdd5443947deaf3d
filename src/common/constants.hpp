#pragma once

/// Physical constants and the unit conventions used throughout the library.
///
/// Device-physics layers (gnr, negf, poisson, device) work in
///   energy: eV, length: nm, potential: V, charge: units of |e|.
/// Circuit layers (model, circuit, cmos, explore) work in SI
///   (A, V, F, s, W, J).
/// The conversion boundary is src/device/tablegen + src/model, where
/// currents become amperes and charges become coulombs.
namespace gnrfet::constants {

/// Elementary charge [C].
inline constexpr double kElementaryCharge = 1.602176634e-19;

/// Planck constant [J s].
inline constexpr double kPlanck = 6.62607015e-34;

/// Boltzmann constant [J/K].
inline constexpr double kBoltzmann = 1.380649e-23;

/// Vacuum permittivity [F/m].
inline constexpr double kEpsilon0 = 8.8541878128e-12;

/// Vacuum permittivity in device units [e / (V nm)]:
/// eps0 * 1e-9 m/nm / e. Used by the Poisson solver so that
/// div(eps grad phi) = -rho with rho in e/nm^3 and phi in volts.
inline constexpr double kEpsilon0_e_per_V_nm = kEpsilon0 * 1e-9 / kElementaryCharge;

/// Thermal energy kT at room temperature (300 K) [eV], which is also the
/// thermal voltage kT/q in volts. The paper's device and circuits run at
/// this one temperature: NEGF occupations, the Poisson-Newton charge
/// linearisation and the CMOS compact model all read it.
inline constexpr double kRoomTemperatureKT_eV = 0.02585;

/// Landauer current prefactor, spin-degenerate, for energies in eV:
/// I [A] = kCurrentPrefactor * Integral T(E) (f1 - f2) dE[eV].
/// This is 2e/h with the eV->J conversion folded in, i.e. 2e^2/h = 77.48 uS.
inline constexpr double kCurrentPrefactor =
    2.0 * kElementaryCharge * kElementaryCharge / kPlanck;

/// Carbon-carbon bond length in graphene [nm].
inline constexpr double kCarbonBond_nm = 0.142;

/// Fermi-Dirac occupation for energy e relative to chemical potential mu,
/// both in eV, at thermal energy kT (eV).
double fermi(double e_minus_mu_eV, double kT_eV);

}  // namespace gnrfet::constants
