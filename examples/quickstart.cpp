/// Quickstart: build an armchair-GNR FET, run the self-consistent
/// NEGF-Poisson solver at a handful of bias points, and print the device
/// characteristics — the device-level half of the paper in ~40 lines.
///
/// Uses a shortened channel so it completes in seconds; the full 15 nm
/// paper device is just DeviceSpec{} (see tools/gen_tables.cpp).
#include <cstdio>

#include "device/geometry.hpp"
#include "device/sweeps.hpp"

using namespace gnrfet;

int main() {
  device::DeviceSpec spec;
  spec.n_index = 12;               // N=12 armchair ribbon, W = 1.35 nm
  spec.channel_length_nm = 8.0;    // shortened for the demo
  const device::DeviceGeometry geometry(spec);

  std::printf("N=%d A-GNR: width %.2f nm, band gap %.3f eV (%zu atoms, %d slices)\n",
              spec.n_index, geometry.lattice().width_nm(), geometry.modes().band_gap_eV(),
              geometry.lattice().atoms().size(), geometry.lattice().num_slices());

  device::SolveOptions opts;
  opts.energy_step_eV = 4e-3;  // demo resolution
  const auto axis = device::voltage_axis(0.0, 0.75, 7);
  std::printf("\nGate sweep at VD = 0.5 V (Schottky-barrier FET, ambipolar):\n");
  std::printf("%-8s %-14s %-14s\n", "VG (V)", "ID (A)", "Q (C)");
  for (const auto& p : device::sweep_gate(geometry, opts, 0.5, axis)) {
    std::printf("%-8.3f %-14.4e %-14.4e %s\n", p.vg, p.current_A, p.charge_C,
                p.converged ? "" : "(not converged)");
  }
  std::printf("\nNote the current minimum near VG = VD/2 = 0.25 V: both electrons and\n"
              "holes tunnel through the mid-gap-pinned Schottky contacts.\n");
  return 0;
}
