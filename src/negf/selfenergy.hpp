#pragma once

#include "linalg/dense.hpp"

/// Contact self-energies for the NEGF solver.
///
/// The paper's devices are Schottky-barrier FETs: the metal source/drain
/// enter (i) electrostatically, by pinning the channel mid-gap to the metal
/// Fermi level at the contact plane (Phi_Bn = Phi_Bp = Eg/2), and (ii)
/// quantum-mechanically through a broadening self-energy on the first/last
/// device slice. We use the wide-band limit for the metal (energy-
/// independent Gamma). The Sancho-Rubio surface Green's function of the
/// semi-infinite ideal ribbon, which validates the transport kernels
/// (transmission staircase of the perfect ribbon), is a test oracle in
/// tests/support/negf_oracles.hpp.
namespace gnrfet::negf {

/// Wide-band-limit metal self-energy: Sigma = -i * gamma/2 * I (dim x dim).
linalg::CMatrix wide_band_self_energy(size_t dim, double gamma_eV);

}  // namespace gnrfet::negf
