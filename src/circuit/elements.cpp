#include "circuit/elements.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/strings.hpp"

namespace gnrfet::circuit {

namespace {

/// Stamp of a branch from a to b carrying current `i` (leaving a) with
/// conductance `g`: the residual and Jacobian adds of a resistor. Forced
/// inline, like the helper below: the charge branches and contact
/// resistors of every FET run it on every stamp, and GCC -O2 leaves it a
/// call.
[[gnu::always_inline]] inline void stamp_branch(Stamper& st, NodeId a, NodeId b, double i,
                                                double g) {
  st.add_residual(a, i);
  st.add_residual(b, -i);
  st.add_jacobian(a, a, g);
  st.add_jacobian(a, b, -g);
  st.add_jacobian(b, a, -g);
  st.add_jacobian(b, b, g);
}

/// Conductance `g` between nodes a and b.
[[gnu::always_inline]] inline void stamp_conductance(Stamper& st, NodeId a, NodeId b, double g) {
  stamp_branch(st, a, b, g * (st.v(a) - st.v(b)), g);
}

/// Trapezoidal step of a charge branch with capacitance `c_mid` from its
/// committed triplet `s` = [q_prev, i_prev, v_prev] to voltage `v`: the new
/// charge and the branch current. The stamp and the commit share it.
std::pair<double, double> trapezoid_step(const double* s, double c_mid, double v, double dt) {
  const double q_new = s[0] + c_mid * (v - s[2]);
  return {q_new, 2.0 / dt * (q_new - s[0]) - s[1]};
}

/// Trapezoidal companion stamp of `copies` identical charge branches in
/// parallel between nodes a and b, with (possibly bias-dependent)
/// capacitance evaluated at the voltage midpoint. State triplet of one
/// branch at `s0`: [q_prev, i_prev, v_prev].
///
/// The copies add their current and conductance one after another, as
/// `copies` separate elements stamped in a row would: `copies * i` added
/// once rounds differently, and would move every pinned ring waveform.
void stamp_charge_branch(Stamper& st, const TransientContext& ctx, NodeId a, NodeId b,
                         double c_mid, size_t s0, int copies = 1) {
  if (ctx.dt <= 0.0) return;  // open in DC
  const auto [q_new, i] = trapezoid_step(&(*ctx.state)[s0], c_mid, st.v(a) - st.v(b), ctx.dt);
  const double g = 2.0 * c_mid / ctx.dt;
  for (int k = 0; k < copies; ++k) stamp_branch(st, a, b, i, g);
}

/// Commit of the charge branch at `s0` to branch voltage `v`: the
/// trapezoidal step when dt > 0, else [0, 0, v].
void commit_charge_branch(std::vector<double>& state, size_t s0, double v, double c_mid,
                          double dt) {
  const auto [q, i] = dt > 0.0 ? trapezoid_step(&state[s0], c_mid, v, dt) : std::pair{0.0, 0.0};
  state[s0] = q;
  state[s0 + 1] = i;
  state[s0 + 2] = v;
}

/// Intrinsic {CGS, CGD} of `fet` from its Q table at the voltage midpoint
/// of the step from the committed FET state `s` to (vgs, vds) (Sec. 3:
/// CGD_i = |dQ/dVDS|, CGS_i = |dQ/dVGS| - CGD_i).
std::pair<double, double> midpoint_gate_caps(const model::ExtrinsicFet& fet, const double* s,
                                             double vgs, double vds) {
  const double vds_prev = s[2] - s[5];  // vgs' - vgd'
  const model::FetSample q = fet.intrinsic->charge(0.5 * (vgs + s[2]), 0.5 * (vds + vds_prev));
  const double cgd = std::abs(q.d_dvds);
  return {std::max(0.0, std::abs(q.d_dvgs) - cgd), cgd};
}

}  // namespace

Resistor::Resistor(NodeId a, NodeId b, double ohms) : a_(a), b_(b), g_(1.0 / ohms) {}

void Resistor::stamp(Stamper& st, const TransientContext&) const {
  stamp_conductance(st, a_, b_, g_);
}

Capacitor::Capacitor(NodeId a, NodeId b, double farads) : a_(a), b_(b), c_(farads) {}

void Capacitor::stamp(Stamper& st, const TransientContext& ctx) const {
  stamp_charge_branch(st, ctx, a_, b_, c_, state_offset_);
}

void Capacitor::commit(const Circuit& ckt, const std::vector<double>& x,
                       const TransientContext& ctx, std::vector<double>& state) const {
  commit_charge_branch(state, state_offset_, ckt.voltage(x, a_) - ckt.voltage(x, b_), c_, ctx.dt);
}

VoltageSource::VoltageSource(NodeId plus, NodeId minus, double dc_volts)
    : p_(plus), m_(minus), dc_(dc_volts) {}

VoltageSource::VoltageSource(NodeId plus, NodeId minus, Waveform waveform)
    : p_(plus), m_(minus), waveform_(std::move(waveform)) {}

void VoltageSource::stamp(Stamper& st, const TransientContext& ctx) const {
  const double target = (waveform_ ? waveform_(ctx.time) : dc_) * ctx.source_scale;
  const double i = st.branch_current(branch_offset_);
  st.add_residual(p_, i);
  st.add_residual(m_, -i);
  st.add_jacobian_node_branch(p_, branch_offset_, 1.0);
  st.add_jacobian_node_branch(m_, branch_offset_, -1.0);
  st.add_branch_residual(branch_offset_, st.v(p_) - st.v(m_) - target);
  st.add_jacobian_branch_node(branch_offset_, p_, 1.0);
  st.add_jacobian_branch_node(branch_offset_, m_, -1.0);
}

Fet::Fet(model::ExtrinsicFet fet, NodeId d, NodeId g, NodeId s, NodeId d_int, NodeId s_int)
    : fet_(std::move(fet)), d_(d), g_(g), s_(s), di_(d_int), si_(s_int) {}

void Fet::stamp(Stamper& st, const TransientContext& ctx) const {
  const auto& par = fet_.parasitics;
  // Contact resistances.
  stamp_conductance(st, d_, di_, 1.0 / par.rd_ohm);
  stamp_conductance(st, s_, si_, 1.0 / par.rs_ohm);

  const double vgs = st.v(g_) - st.v(si_);
  const double vds = st.v(di_) - st.v(si_);

  // Channel current between the internal drain/source nodes.
  {
    const model::FetSample cur = fet_.intrinsic->current(vgs, vds);
    st.add_residual(di_, cur.value);
    st.add_residual(si_, -cur.value);
    st.add_jacobian(di_, di_, cur.d_dvds);
    st.add_jacobian(di_, g_, cur.d_dvgs);
    st.add_jacobian(di_, si_, -cur.d_dvds - cur.d_dvgs);
    st.add_jacobian(si_, di_, -cur.d_dvds);
    st.add_jacobian(si_, g_, -cur.d_dvgs);
    st.add_jacobian(si_, si_, cur.d_dvds + cur.d_dvgs);
  }

  // Intrinsic gate capacitances from the Q tables at the voltage midpoint
  // of the step.
  if (ctx.dt > 0.0) {
    const auto [cgs, cgd] = midpoint_gate_caps(fet_, &(*ctx.state)[state_offset_], vgs, vds);
    stamp_charge_branch(st, ctx, g_, si_, cgs, state_offset_);
    stamp_charge_branch(st, ctx, g_, di_, cgd, state_offset_ + 3);
  }
  // Extrinsic junction capacitances at the external terminals.
  stamp_charge_branch(st, ctx, g_, s_, par.cgs_e_F, state_offset_ + 6);
  stamp_charge_branch(st, ctx, g_, d_, par.cgd_e_F, state_offset_ + 9);
}

void Fet::commit(const Circuit& ckt, const std::vector<double>& x, const TransientContext& ctx,
                 std::vector<double>& state) const {
  const auto v = [&](NodeId n) { return ckt.voltage(x, n); };
  const double vgs = v(g_) - v(si_);
  const double vds = v(di_) - v(si_);
  // Sampled before any slot is overwritten: the midpoint reads vgs', vgd'.
  const auto [cgs, cgd] = ctx.dt > 0.0 ? midpoint_gate_caps(fet_, &state[state_offset_], vgs, vds)
                                       : std::pair{0.0, 0.0};
  // The four charge branches of stamp(), in state order, each from the gate.
  const double c[4] = {cgs, cgd, fet_.parasitics.cgs_e_F, fet_.parasitics.cgd_e_F};
  const NodeId to[4] = {si_, di_, s_, d_};
  for (size_t k = 0; k < 4; ++k) {
    commit_charge_branch(state, state_offset_ + 3 * k, v(g_) - v(to[k]), c[k], ctx.dt);
  }
}

InverterGateLoad::InverterGateLoad(model::ExtrinsicFet nfet, model::ExtrinsicFet pfet,
                                   NodeId node, double vdd, int fanout)
    : n_(std::move(nfet)), p_(std::move(pfet)), node_(node), vdd_(vdd), fanout_(fanout) {
  if (fanout < 1) {
    throw std::invalid_argument(
        strings::format("InverterGateLoad: fanout = %d must be >= 1", fanout));
  }
}

double InverterGateLoad::capacitance(double v) const {
  const model::FetSample qn = n_.intrinsic->charge(v, vdd_ - v);
  const model::FetSample qp = p_.intrinsic->charge(v - vdd_, -v);
  const double cg_n = std::abs(qn.d_dvgs);
  const double cg_p = std::abs(qp.d_dvgs);
  return cg_n + cg_p + n_.parasitics.cgs_e_F + n_.parasitics.cgd_e_F + p_.parasitics.cgs_e_F +
         p_.parasitics.cgd_e_F;
}

void InverterGateLoad::stamp(Stamper& st, const TransientContext& ctx) const {
  if (ctx.dt <= 0.0) return;
  const double v_prev = (*ctx.state)[state_offset_ + 2];
  const double c = capacitance(0.5 * (st.v(node_) + v_prev));
  stamp_charge_branch(st, ctx, node_, kGround, c, state_offset_, fanout_);
}

void InverterGateLoad::commit(const Circuit& ckt, const std::vector<double>& x,
                              const TransientContext& ctx, std::vector<double>& state) const {
  const double v = ckt.voltage(x, node_);
  const double c = ctx.dt > 0.0 ? capacitance(0.5 * (v + state[state_offset_ + 2])) : 0.0;
  commit_charge_branch(state, state_offset_, v, c, ctx.dt);
}

}  // namespace gnrfet::circuit
