#include "cmos/nodes.hpp"

#include <stdexcept>

namespace gnrfet::cmos {

namespace {
/// Common deck with per-node strength/capacitance scaling. Wider, slower,
/// more capacitive devices at the older nodes reproduce the paper's
/// frequency and EDP ordering.
NodeDeck scaled_deck(double k_n, double cg, double w_n, double vth, double ioff) {
  NodeDeck d;
  d.nfet.polarity = model::Polarity::kN;
  d.nfet.width_um = w_n;
  d.nfet.vth_V = vth;
  d.nfet.k_A_per_um = k_n;
  d.nfet.cgate_fF_per_um = cg;
  d.nfet.ioff_A_per_um = ioff;
  d.pfet = d.nfet;
  d.pfet.polarity = model::Polarity::kP;
  d.pfet.width_um = 2.0 * w_n;       // mobility-ratio sizing
  d.pfet.k_A_per_um = 0.5 * k_n;
  d.parasitics.rs_ohm = 50.0;        // contact resistance per device
  d.parasitics.rd_ohm = 50.0;
  d.parasitics.cgs_e_F = 0.35e-15 * w_n;  // overlap capacitance
  d.parasitics.cgd_e_F = 0.35e-15 * w_n;
  return d;
}
}  // namespace

NodeDeck node_deck(Node node) {
  switch (node) {
    case Node::k22nm:
      return scaled_deck(1.08e-2, 1.10, 1.1, 0.32, 6e-8);
    case Node::k32nm:
      return scaled_deck(9.2e-3, 1.15, 1.5, 0.33, 4e-8);
    case Node::k45nm:
      return scaled_deck(8.2e-3, 1.20, 2.2, 0.35, 3e-8);
  }
  throw std::invalid_argument("node_deck: unknown node");
}

circuit::InverterModels make_cmos_inverter(Node node) {
  const NodeDeck d = node_deck(node);
  circuit::InverterModels m;
  m.nfet = model::make_extrinsic(make_cmos_fet(d.nfet), d.parasitics);
  m.pfet = model::make_extrinsic(make_cmos_fet(d.pfet), d.parasitics);
  return m;
}

const char* node_name(Node node) {
  switch (node) {
    case Node::k22nm:
      return "22nm";
    case Node::k32nm:
      return "32nm";
    case Node::k45nm:
      return "45nm";
  }
  return "?";
}

}  // namespace gnrfet::cmos
