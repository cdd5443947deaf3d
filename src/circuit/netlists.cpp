#include "circuit/netlists.hpp"

#include "circuit/dc.hpp"

namespace gnrfet::circuit {

void add_inverter(Circuit& ckt, const InverterModels& models, NodeId in, NodeId out,
                  NodeId vdd) {
  const NodeId nd = ckt.new_node();  // n-FET internal drain
  const NodeId ns = ckt.new_node();  // n-FET internal source
  const NodeId pd = ckt.new_node();
  const NodeId ps = ckt.new_node();
  ckt.add(std::make_unique<Fet>(models.nfet, out, in, kGround, nd, ns));
  ckt.add(std::make_unique<Fet>(models.pfet, out, in, vdd, pd, ps));
}

Fo4Testbench build_fo4_inverter(const InverterModels& driver, const InverterModels& load,
                                double vdd, VoltageSource::Waveform input) {
  Fo4Testbench tb;
  tb.vdd = vdd;
  tb.vdd_node = tb.ckt.new_node();
  tb.in = tb.ckt.new_node();
  tb.out = tb.ckt.new_node();
  auto vdd_src = std::make_unique<VoltageSource>(tb.vdd_node, kGround, vdd);
  tb.vdd_branch = vdd_src->branch();
  tb.ckt.add(std::move(vdd_src));
  tb.ckt.add(std::make_unique<VoltageSource>(tb.in, kGround, std::move(input)));
  add_inverter(tb.ckt, driver, tb.in, tb.out, tb.vdd_node);
  tb.ckt.add(std::make_unique<InverterGateLoad>(load.nfet, load.pfet, tb.out, vdd, 4));
  return tb;
}

RingOscillator build_ring_oscillator(const std::vector<InverterModels>& stages,
                                     const InverterModels& load, double vdd) {
  RingOscillator ro;
  ro.vdd = vdd;
  ro.vdd_node = ro.ckt.new_node();
  auto vdd_src = std::make_unique<VoltageSource>(ro.vdd_node, kGround, vdd);
  ro.vdd_branch = vdd_src->branch();
  ro.ckt.add(std::move(vdd_src));
  const size_t n = stages.size();
  ro.stage_out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ro.stage_out.push_back(ro.ckt.new_node());
  }
  for (size_t i = 0; i < n; ++i) {
    const NodeId in = ro.stage_out[(i + n - 1) % n];
    add_inverter(ro.ckt, stages[i], in, ro.stage_out[i], ro.vdd_node);
    ro.ckt.add(std::make_unique<InverterGateLoad>(load.nfet, load.pfet, ro.stage_out[i], vdd, 3));
  }
  return ro;
}

std::vector<double> RingOscillator::kick_state(bool* dc_converged) const {
  // Start from the ring's DC point (all stages near the metastable
  // switching threshold) and alternate a small perturbation around it;
  // the loop gain amplifies it into steady oscillation within a couple of
  // periods. A rail-to-rail initial guess would be too inconsistent for
  // the charge elements' quasi-Newton scheme.
  const DcResult dc = solve_dc(ckt);
  if (dc_converged) *dc_converged = dc.converged;
  std::vector<double> x = dc.converged ? dc.x : std::vector<double>(ckt.num_unknowns(), 0.0);
  const auto bump_node = [&](NodeId n, double dv) {
    const ptrdiff_t u = ckt.unknown_of_node(n);
    if (u >= 0) x[static_cast<size_t>(u)] += dv;
  };
  for (size_t i = 0; i < stage_out.size(); ++i) {
    bump_node(stage_out[i], (i % 2 == 0) ? 0.05 * vdd : -0.05 * vdd);
  }
  return x;
}

}  // namespace gnrfet::circuit
