#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "circuit/measure.hpp"
#include "circuit/snm.hpp"
#include "common/metrics.hpp"
#include "golden.hpp"
#include "linalg/lu.hpp"
#include "synthetic_device.hpp"
#include "test_support.hpp"

namespace {

using namespace gnrfet;
using namespace gnrfet::circuit;
using model::Polarity;
using tests::counter;

using synthetic::build_latch;
using synthetic::Latch;
using synthetic::pulse_waveform;
using synthetic::synthetic_inverter;
using synthetic::uniform_array;

TEST(Dc, ResistorDivider) {
  Circuit ckt;
  const NodeId a = ckt.new_node();
  const NodeId b = ckt.new_node();
  ckt.add(std::make_unique<VoltageSource>(a, kGround, 1.0));
  ckt.add(std::make_unique<Resistor>(a, b, 1000.0));
  ckt.add(std::make_unique<Resistor>(b, kGround, 3000.0));
  const DcResult dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.x[static_cast<size_t>(ckt.unknown_of_node(b))], 0.75, 1e-9);
}

TEST(Dc, VoltageSourceBranchCurrentSign) {
  Circuit ckt;
  const NodeId a = ckt.new_node();
  auto src = std::make_unique<VoltageSource>(a, kGround, 2.0);
  const size_t branch = src->branch();
  ckt.add(std::move(src));
  ckt.add(std::make_unique<Resistor>(a, kGround, 1000.0));
  const DcResult dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged);
  // Load draws 2 mA from the supply: branch current (p->m through the
  // source) is -2 mA, so delivered power is -V*i = +4 mW.
  EXPECT_NEAR(dc.x[ckt.unknown_of_branch(branch)], -2e-3, 1e-9);
}

TEST(Dc, UnsolvableCircuitIsCountedUnconverged) {
  // Two ideal sources of different values on one node: the Jacobian is
  // singular, so the direct solve and every source-stepping rung fail.
  Circuit ckt;
  const NodeId a = ckt.new_node();
  ckt.add(std::make_unique<VoltageSource>(a, kGround, 1.0));
  ckt.add(std::make_unique<VoltageSource>(a, kGround, 2.0));
  const uint64_t before = counter(metrics::Counter::kDcUnconverged);
  EXPECT_FALSE(solve_dc(ckt).converged);
  EXPECT_EQ(counter(metrics::Counter::kDcUnconverged), before + 1);
}

TEST(Transient, SingularJacobianFailsTheRunWithoutThrowing) {
  Circuit ckt;
  const NodeId a = ckt.new_node();
  ckt.add(std::make_unique<VoltageSource>(a, kGround, 1.0));
  ckt.add(std::make_unique<VoltageSource>(a, kGround, 2.0));
  TransientOptions opts;
  opts.t_stop = 5e-12;
  opts.dt = 1e-12;
  opts.initial_x.assign(ckt.num_unknowns(), 0.0);
  const uint64_t before = counter(metrics::Counter::kTransientStepFailures);
  TransientResult tr;
  EXPECT_NO_THROW(tr = run_transient(ckt, opts));
  EXPECT_FALSE(tr.ok);
  EXPECT_EQ(counter(metrics::Counter::kTransientStepFailures), before + 1);
}

TEST(Transient, WholeNumberHorizonTakesExactlyThatManySteps) {
  // 1 ns / 0.5 ps is 2000.0000000000002 in doubles: exactly 2000 steps,
  // the last one ending at 1 ns.
  Circuit ckt;
  const NodeId a = ckt.new_node();
  ckt.add(std::make_unique<VoltageSource>(a, kGround, 1.0));
  ckt.add(std::make_unique<Resistor>(a, kGround, 1e3));
  TransientOptions opts;
  opts.t_stop = 1.0e-9;
  opts.dt = 0.5e-12;
  const uint64_t before = counter(metrics::Counter::kTransientSteps);
  const TransientResult tr = run_transient(ckt, opts);
  ASSERT_TRUE(tr.ok);
  EXPECT_EQ(counter(metrics::Counter::kTransientSteps) - before, 2000u);
  ASSERT_EQ(tr.waves.time.size(), 2001u);
  EXPECT_EQ(tr.waves.time.back(), 1.0e-9);
  // A horizon that is not a whole number of steps takes the ceiling and
  // ends at or past t_stop.
  opts.t_stop = 1.0e-9 + 0.3e-12;
  const TransientResult past = run_transient(ckt, opts);
  ASSERT_TRUE(past.ok);
  ASSERT_EQ(past.waves.time.size(), 2002u);
  EXPECT_GE(past.waves.time.back(), opts.t_stop);
}

/// 8 V (t / 1 ps)^2: a source whose 4 V second difference per 0.5 ps the
/// linear extrapolation of the Newton start cannot follow.
double quadratic_source(double t) { return 8.0 * (t / 1e-12) * (t / 1e-12); }

TEST(Transient, FailedStepIsRetriedAsTwoHalfSteps) {
  // The 0.3 V Newton clamp, halved every 12 iterations, walks a node at
  // most ~7 V in one step's 60 iterations. On quadratic_source the
  // extrapolated start of each 1 ps step misses by 8 V (the first, from
  // the lone start sample) or 12 V (the others), so every full step fails;
  // the start of each half step misses by at most 4 V, so every half step
  // converges.
  Circuit ckt;
  const NodeId a = ckt.new_node();
  ckt.add(std::make_unique<VoltageSource>(a, kGround, quadratic_source));
  ckt.add(std::make_unique<Resistor>(a, kGround, 1e3));
  TransientOptions opts;
  opts.t_stop = 3e-12;
  opts.dt = 1e-12;
  opts.initial_x.assign(ckt.num_unknowns(), 0.0);
  const uint64_t rejections = counter(metrics::Counter::kTransientStepRejections);
  const uint64_t failures = counter(metrics::Counter::kTransientStepFailures);
  const uint64_t steps = counter(metrics::Counter::kTransientSteps);
  const TransientResult tr = run_transient(ckt, opts);
  ASSERT_TRUE(tr.ok);
  EXPECT_EQ(counter(metrics::Counter::kTransientStepRejections) - rejections, 3u);
  EXPECT_EQ(counter(metrics::Counter::kTransientStepFailures), failures);
  EXPECT_EQ(counter(metrics::Counter::kTransientSteps) - steps, 6u);
  // Each accepted half step is a sample.
  ASSERT_EQ(tr.waves.time.size(), 7u);
  const std::vector<double> v = tr.waves.node(ckt, a);
  for (size_t k = 0; k < 7; ++k) {
    EXPECT_DOUBLE_EQ(tr.waves.time[k], 0.5e-12 * static_cast<double>(k)) << k;
    EXPECT_NEAR(v[k], quadratic_source(tr.waves.time[k]), 1e-6) << k;
  }
}

/// An element with no electrical effect that records its lifecycle: how
/// many times it is stamped, and the time and step of every commit.
class LifecycleProbe final : public Element {
 public:
  void stamp(Stamper&, const TransientContext&) const override { ++stamps; }
  void commit(const Circuit&, const std::vector<double>&, const TransientContext& ctx,
              std::vector<double>&) const override {
    commit_times.push_back(ctx.time);
    commit_dts.push_back(ctx.dt);
  }

  mutable uint64_t stamps = 0;
  mutable std::vector<double> commit_times, commit_dts;
};

TEST(Transient, StampsOncePerNewtonIterationAndCommitsOncePerAcceptedStep) {
  // An RC step from its DC point: every stamp is a Newton iteration (DC
  // ones included), with no extra stamp after a step is accepted; the
  // start point commits once at dt = 0, then each accepted step once.
  Circuit ckt;
  const NodeId in = ckt.new_node();
  const NodeId out = ckt.new_node();
  ckt.add(std::make_unique<VoltageSource>(in, kGround, pulse_waveform(0.0, 1.0, 5e-12, 1e-12)));
  ckt.add(std::make_unique<Resistor>(in, out, 10e3));
  ckt.add(std::make_unique<Capacitor>(out, kGround, 1e-15));
  auto owned = std::make_unique<LifecycleProbe>();
  const LifecycleProbe& probe = *owned;
  ckt.add(std::move(owned));
  TransientOptions opts;
  opts.t_stop = 20e-12;
  opts.dt = 0.5e-12;
  const uint64_t factorizations = counter(metrics::Counter::kMnaFactorizations);
  const uint64_t steps = counter(metrics::Counter::kTransientSteps);
  const TransientResult tr = run_transient(ckt, opts);
  ASSERT_TRUE(tr.ok);
  EXPECT_EQ(counter(metrics::Counter::kTransientSteps) - steps, 40u);
  EXPECT_EQ(probe.stamps, counter(metrics::Counter::kMnaFactorizations) - factorizations);
  ASSERT_EQ(probe.commit_times.size(), 41u);
  EXPECT_EQ(probe.commit_times, tr.waves.time);
  EXPECT_EQ(probe.commit_dts.front(), 0.0);
  for (size_t k = 1; k < probe.commit_dts.size(); ++k) EXPECT_EQ(probe.commit_dts[k], opts.dt);
}

TEST(Transient, RejectedStepCommitsNothing) {
  // The source of FailedStepIsRetriedAsTwoHalfSteps: each of the three
  // full steps is rejected, and only the six accepted half steps commit.
  Circuit ckt;
  const NodeId a = ckt.new_node();
  ckt.add(std::make_unique<VoltageSource>(a, kGround, quadratic_source));
  ckt.add(std::make_unique<Resistor>(a, kGround, 1e3));
  auto owned = std::make_unique<LifecycleProbe>();
  const LifecycleProbe& probe = *owned;
  ckt.add(std::move(owned));
  TransientOptions opts;
  opts.t_stop = 3e-12;
  opts.dt = 1e-12;
  opts.initial_x.assign(ckt.num_unknowns(), 0.0);
  const uint64_t factorizations = counter(metrics::Counter::kMnaFactorizations);
  const uint64_t rejections = counter(metrics::Counter::kTransientStepRejections);
  const TransientResult tr = run_transient(ckt, opts);
  ASSERT_TRUE(tr.ok);
  EXPECT_EQ(counter(metrics::Counter::kTransientStepRejections) - rejections, 3u);
  EXPECT_EQ(probe.stamps, counter(metrics::Counter::kMnaFactorizations) - factorizations);
  ASSERT_EQ(probe.commit_times.size(), 7u);
  EXPECT_EQ(probe.commit_times, tr.waves.time);
  EXPECT_EQ(probe.commit_dts.front(), 0.0);
  for (size_t k = 1; k < probe.commit_dts.size(); ++k) EXPECT_EQ(probe.commit_dts[k], 0.5e-12);
}

TEST(Transient, ExtrapolatedStartSolvesARampInOneFactorization) {
  // A 1 mV-per-step ramp across a resistor. The first step starts from the
  // lone start sample: one factorization lands on the solution, a second
  // accepts it. Every later step starts on the extrapolated line, where
  // the first factorization already meets the tolerance.
  Circuit ckt;
  const NodeId a = ckt.new_node();
  ckt.add(std::make_unique<VoltageSource>(a, kGround, [](double t) { return t / 1e-9; }));
  ckt.add(std::make_unique<Resistor>(a, kGround, 1e3));
  TransientOptions opts;
  opts.t_stop = 200e-12;
  opts.dt = 1e-12;
  opts.initial_x.assign(ckt.num_unknowns(), 0.0);
  const uint64_t factorizations = counter(metrics::Counter::kMnaFactorizations);
  const uint64_t steps = counter(metrics::Counter::kTransientSteps);
  const TransientResult tr = run_transient(ckt, opts);
  ASSERT_TRUE(tr.ok);
  EXPECT_EQ(counter(metrics::Counter::kTransientSteps) - steps, 200u);
  EXPECT_EQ(counter(metrics::Counter::kMnaFactorizations) - factorizations, 201u);
  EXPECT_NEAR(tr.waves.node(ckt, a).back(), 0.2, 1e-9);
}

TEST(Transient, RcStepResponseMatchesAnalytic) {
  Circuit ckt;
  const NodeId in = ckt.new_node();
  const NodeId out = ckt.new_node();
  const double r = 10e3, c = 1e-15;  // tau = 10 ps
  ckt.add(std::make_unique<VoltageSource>(in, kGround, pulse_waveform(0.0, 1.0, 5e-12, 1e-15)));
  ckt.add(std::make_unique<Resistor>(in, out, r));
  ckt.add(std::make_unique<Capacitor>(out, kGround, c));
  TransientOptions opts;
  opts.t_stop = 60e-12;
  opts.dt = 0.05e-12;
  const TransientResult tr = run_transient(ckt, opts);
  ASSERT_TRUE(tr.ok);
  const auto v = tr.waves.node(ckt, out);
  for (size_t i = 0; i < tr.waves.time.size(); i += 100) {
    const double t = tr.waves.time[i] - 5e-12;
    const double expected = t <= 0 ? 0.0 : 1.0 - std::exp(-t / (r * c));
    EXPECT_NEAR(v[i], expected, 0.01) << "t=" << tr.waves.time[i];
  }
}

TEST(Transient, CapacitorBlocksDc) {
  Circuit ckt;
  const NodeId a = ckt.new_node();
  const NodeId b = ckt.new_node();
  ckt.add(std::make_unique<VoltageSource>(a, kGround, 1.0));
  ckt.add(std::make_unique<Resistor>(a, b, 1e3));
  ckt.add(std::make_unique<Capacitor>(b, kGround, 1e-15));
  TransientOptions opts;
  opts.t_stop = 50e-12;
  opts.dt = 0.5e-12;
  const TransientResult tr = run_transient(ckt, opts);
  ASSERT_TRUE(tr.ok);
  // Started from DC: the capacitor is already charged, nothing moves.
  const auto v = tr.waves.node(ckt, b);
  EXPECT_NEAR(v.back(), 1.0, 1e-6);
}

TEST(Vtc, InverterIsMonotoneAndRailToRail) {
  const InverterModels inv = synthetic_inverter();
  const Vtc vtc = compute_vtc(inv, 0.4);
  EXPECT_GT(vtc.vout.front(), 0.9 * 0.4);
  EXPECT_LT(vtc.vout.back(), 0.1 * 0.4);
  for (size_t i = 1; i < vtc.vout.size(); ++i) {
    // Allow a small ambipolar ripple: the off device weakens as vin rises.
    EXPECT_LE(vtc.vout[i], vtc.vout[i - 1] + 2.5e-3);
  }
}

TEST(Vtc, SymmetricInverterSwitchesAtMidRail) {
  const InverterModels inv = synthetic_inverter();
  const Vtc vtc = compute_vtc(inv, 0.4);
  // Find the input where vout crosses VDD/2.
  double v_switch = 0.0;
  for (size_t i = 1; i < vtc.vin.size(); ++i) {
    if (vtc.vout[i - 1] >= 0.2 && vtc.vout[i] < 0.2) {
      v_switch = 0.5 * (vtc.vin[i - 1] + vtc.vin[i]);
      break;
    }
  }
  EXPECT_NEAR(v_switch, 0.2, 0.03);
}

TEST(Snm, SymmetricButterflyLobesAreEqual) {
  const InverterModels inv = synthetic_inverter();
  const Vtc vtc = compute_vtc(inv, 0.4);
  const double l1 = butterfly_lobe(vtc, vtc);
  const Vtc ivt = invert_vtc(vtc);
  const double l2 = butterfly_lobe(ivt, ivt);
  EXPECT_GT(l1, 0.02);
  EXPECT_NEAR(l1, l2, 0.01);
  EXPECT_NEAR(butterfly_snm(vtc, vtc), std::min(l1, l2), 1e-9);
}

TEST(Snm, DegradedInverterReducesSnm) {
  const InverterModels good = synthetic_inverter(0.12);
  // Skewed pair: weak offset mismatches the VTC switching point.
  InverterModels skewed = good;
  const auto par = model::Parasitics::from_per_width(0.05, 40.0);
  skewed.nfet =
      model::make_extrinsic(uniform_array(synthetic::synthetic_fet(Polarity::kN, 0.3), 4), par);
  const Vtc a = compute_vtc(good, 0.4);
  const Vtc b = compute_vtc(skewed, 0.4);
  EXPECT_LT(butterfly_snm(b, b), butterfly_snm(a, a));
}

TEST(Measure, CrossingTimesAndFrequency) {
  std::vector<double> t, v;
  const double f = 2e9;
  for (int i = 0; i <= 2000; ++i) {
    t.push_back(i * 1e-12);
    v.push_back(0.5 + 0.4 * std::sin(2 * M_PI * f * t.back()));
  }
  const auto rises = crossing_times(t, v, 0.5, true);
  EXPECT_GE(rises.size(), 3u);
}

TEST(Measure, InverterMetricsAreSane) {
  const InverterModels inv = synthetic_inverter();
  const InverterMetrics m = measure_inverter(inv, inv, 0.4);
  ASSERT_TRUE(m.ok);
  EXPECT_GT(m.delay_s, 0.1e-12);
  EXPECT_LT(m.delay_s, 40e-12);
  EXPECT_GT(m.dynamic_power_W, 0.0);
  EXPECT_GT(m.static_power_W, 0.0);
  EXPECT_GT(m.snm_V, 0.02);
}

TEST(Measure, RingOscillatorOscillates) {
  const InverterModels inv = synthetic_inverter();
  RingMeasureOptions opts;
  opts.t_stop_s = 1.0e-9;
  opts.dt_s = 0.5e-12;
  const RingMetrics m =
      measure_ring_oscillator(std::vector<InverterModels>(15, inv), inv, 0.4, opts);
  ASSERT_TRUE(m.ok);
  EXPECT_GT(m.frequency_Hz, 0.5e9);
  EXPECT_LT(m.frequency_Hz, 100e9);
  EXPECT_GT(m.total_power_W, m.static_power_W);
  EXPECT_GT(m.edp_Js, 0.0);
}

TEST(Latch, IsBistable) {
  const InverterModels inv = synthetic_inverter();
  Latch latch = build_latch(inv, inv, 0.4);
  // Seed Newton at the two states.
  std::vector<double> seed_a(latch.ckt.num_unknowns(), 0.0);
  seed_a[static_cast<size_t>(latch.ckt.unknown_of_node(latch.vdd_node))] = 0.4;
  std::vector<double> seed_b = seed_a;
  seed_a[static_cast<size_t>(latch.ckt.unknown_of_node(latch.q))] = 0.4;
  seed_b[static_cast<size_t>(latch.ckt.unknown_of_node(latch.qb))] = 0.4;
  const DcResult a = solve_dc(latch.ckt, seed_a);
  const DcResult b = solve_dc(latch.ckt, seed_b);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  // Two distinct stable states near the rails (which seed lands on which
  // state is solver-dependent; bistability is what matters).
  const double qa = a.x[static_cast<size_t>(latch.ckt.unknown_of_node(latch.q))];
  const double qb = b.x[static_cast<size_t>(latch.ckt.unknown_of_node(latch.q))];
  EXPECT_GT(std::abs(qa - qb), 0.25);
  EXPECT_GT(std::max(qa, qb), 0.3);
  EXPECT_LT(std::min(qa, qb), 0.1);
}

// Bit pins of the circuit layer's Newton paths: the ring of
// Measure.RingOscillatorOscillates (figures of merit and every waveform
// sample) over 2001 steps of 0.5 ps, the horizon its pins were captured
// on, one VTC sweep (warm-started DC), and one DC solve that falls back to
// source stepping. The source-stepping pin dates from before the
// DC and transient loops were merged into one; the ring and VTC pins were
// re-captured when the MNA LU took its minimum-degree elimination order,
// which moved them by round-off only (RingWithinRoundoffOfNaturalOrderPins),
// and again when each step's Newton started from the extrapolated
// waveform: a different start converges to a different point within the
// Newton tolerance, here 65 ulp (1.4e-14 relative) in frequency.
TEST(CircuitGolden, RingOscillatorIsBitPinned) {
  const InverterModels inv = synthetic_inverter();
  RingMeasureOptions opts;
  opts.dt_s = 0.5e-12;
  opts.t_stop_s = 2001 * opts.dt_s;
  const std::vector<InverterModels> stages(15, inv);
  const RingMetrics m = measure_ring_oscillator(stages, inv, 0.4, opts);
  ASSERT_TRUE(m.ok);
  EXPECT_EQ(m.frequency_Hz, 0x1.6dd39d4acbcf8p+31);
  EXPECT_EQ(m.edp_Js, 0x1.cc67203060998p-88);
  EXPECT_EQ(m.total_power_W, 0x1.b8b4fdbb9b312p-20);

  // The same transient measure_ring_oscillator runs, sample by sample.
  const RingOscillator ro = build_ring_oscillator(stages, inv, 0.4);
  TransientOptions topt;
  topt.t_stop = opts.t_stop_s;
  topt.dt = opts.dt_s;
  topt.initial_x = ro.kick_state();
  const TransientResult tr = run_transient(ro.ckt, topt);
  ASSERT_TRUE(tr.ok);
  EXPECT_EQ(tr.waves.samples.size(), 2002u);
  EXPECT_EQ(tests::fnv1a(tr.waves.time), 8131123661160158497ull);
  EXPECT_EQ(tests::fnv1a(tests::flatten(tr.waves.samples)), 15658825890555733341ull);
}

TEST(CircuitGolden, RingWithinRoundoffOfNaturalOrderPins) {
  // The ring's figures of merit as the natural-order LU computed them: the
  // elimination order may move them by round-off, not more.
  const InverterModels inv = synthetic_inverter();
  RingMeasureOptions opts;
  opts.dt_s = 0.5e-12;
  opts.t_stop_s = 2001 * opts.dt_s;
  const RingMetrics m =
      measure_ring_oscillator(std::vector<InverterModels>(15, inv), inv, 0.4, opts);
  ASSERT_TRUE(m.ok);
  const auto near = [](double value, double natural) {
    return std::abs(value - natural) <= 1e-12 * std::abs(natural);
  };
  EXPECT_TRUE(near(m.frequency_Hz, 0x1.6dd39d4acbd39p+31)) << m.frequency_Hz;
  EXPECT_TRUE(near(m.edp_Js, 0x1.cc6720306090bp-88)) << m.edp_Js;
  EXPECT_TRUE(near(m.total_power_W, 0x1.b8b4fdbb9b328p-20)) << m.total_power_W;
}

TEST(CircuitGolden, VtcIsBitPinned) {
  const Vtc vtc = compute_vtc(synthetic_inverter(), 0.4);
  ASSERT_EQ(vtc.vout.size(), 161u);
  EXPECT_EQ(tests::fnv1a(vtc.vout), 17495634895622936021ull);
  EXPECT_EQ(tests::fnv1a(vtc.supply_current_A), 10679967707624430390ull);
}

TEST(CircuitGolden, SourceSteppingDcIsBitPinned) {
  // A seed 100 V off the operating point: the 0.3 V Newton clamp cannot walk
  // it back within the iteration budget, so solve_dc falls back to source
  // stepping from zero.
  const InverterModels inv = synthetic_inverter();
  Latch latch = build_latch(inv, inv, 0.4);
  const std::vector<double> seed(latch.ckt.num_unknowns(), 100.0);
  const auto factorizations = [] {
    return metrics::snapshot()
        .counters[static_cast<size_t>(metrics::Counter::kMnaFactorizations)];
  };
  const uint64_t before = factorizations();
  const DcResult dc = solve_dc(latch.ckt, seed);
  ASSERT_TRUE(dc.converged);
  // More factorizations than the direct solve's 200-iteration budget: the
  // source-stepping fallback ran.
  EXPECT_EQ(factorizations() - before, 267u);
  EXPECT_EQ(tests::fnv1a(dc.x), 1035355205725986633ull);
}

/// A conductance between two nodes that stamps only for t1 < time <= t2:
/// its off-diagonal Jacobian entries join the MNA pattern mid-transient
/// and stop being stamped later.
class WindowedConductance final : public Element {
 public:
  WindowedConductance(NodeId a, NodeId b, double siemens, double t1, double t2)
      : a_(a), b_(b), g_(siemens), t1_(t1), t2_(t2) {}
  void stamp(Stamper& st, const TransientContext& ctx) const override {
    if (ctx.time <= t1_ || ctx.time > t2_) return;
    const double i = g_ * (st.v(a_) - st.v(b_));
    st.add_residual(a_, i);
    st.add_residual(b_, -i);
    st.add_jacobian(a_, a_, g_);
    st.add_jacobian(a_, b_, -g_);
    st.add_jacobian(b_, a_, -g_);
    st.add_jacobian(b_, b_, g_);
  }

 private:
  NodeId a_, b_;
  double g_, t1_, t2_;
};

/// newton_solve's iteration on a fully zeroed Jacobian each time, factored
/// by a dense LU<double> in the minimum-degree order of the first stamp
/// (`order`, set on the first call): the oracle of the replayed Newton loop.
bool dense_newton(const Circuit& ckt, const TransientContext& ctx, const NewtonPolicy& policy,
                  std::vector<double>& x, std::vector<size_t>& order) {
  const size_t n = ckt.num_unknowns();
  const size_t nodes = n - ckt.num_branches();
  double clamp_V = policy.clamp_V;
  for (int it = 0; it < policy.max_iterations; ++it) {
    if (policy.clamp_halving_period > 0 && it > 0 && it % policy.clamp_halving_period == 0) {
      clamp_V *= 0.5;
    }
    MnaWorkspace fresh(n);
    fresh.stamp(ckt, x, ctx);
    if (order.empty()) order = linalg::minimum_degree_order(fresh.jac);
    double res_norm = 0.0;
    for (const double r : fresh.res) res_norm = std::max(res_norm, std::abs(r));
    for (size_t i = 0; i < nodes; ++i) fresh.jac(i, i) += 1e-12;
    for (size_t i = 0; i < n; ++i) fresh.rhs[i] = -fresh.res[i];
    linalg::LU<double> lu;
    try {
      lu.factor(tests::permuted(fresh.jac, order));
    } catch (const std::runtime_error&) {
      return false;
    }
    std::vector<double> pb(n), xp;
    for (size_t i = 0; i < n; ++i) pb[i] = fresh.rhs[order[i]];
    lu.solve_into(pb, xp);
    for (size_t i = 0; i < n; ++i) fresh.dx[order[i]] = xp[i];
    double max_dx = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = i < nodes ? std::clamp(fresh.dx[i], -clamp_V, clamp_V) : fresh.dx[i];
      x[i] += d;
      if (i < nodes) max_dx = std::max(max_dx, std::abs(d));
    }
    if (max_dx < policy.update_tol_V && res_norm < policy.residual_tol_A) return true;
  }
  return false;
}

TEST(MnaReplay, StampOutsideThePatternReanalysesAndMatchesTheDenseOracle) {
  // in -R- mid -C- gnd and far -R- gnd, C to gnd: mid and far couple only
  // while the windowed conductance stamps (t1 = 10 ps, t2 = 20 ps).
  Circuit ckt;
  const NodeId in = ckt.new_node();
  const NodeId mid = ckt.new_node();
  const NodeId far = ckt.new_node();
  ckt.add(std::make_unique<VoltageSource>(in, kGround, pulse_waveform(0.0, 1.0, 2e-12, 1e-12)));
  ckt.add(std::make_unique<Resistor>(in, mid, 10e3));
  ckt.add(std::make_unique<Capacitor>(mid, kGround, 1e-15));
  ckt.add(std::make_unique<Resistor>(far, kGround, 20e3));
  ckt.add(std::make_unique<Capacitor>(far, kGround, 2e-15));
  ckt.add(std::make_unique<WindowedConductance>(mid, far, 1e-4, 10e-12, 20e-12));
  TransientOptions opts;
  opts.t_stop = 30e-12;
  opts.dt = 0.25e-12;
  opts.initial_x.assign(ckt.num_unknowns(), 0.0);

  const uint64_t before = counter(metrics::Counter::kMnaSymbolicAnalyses);
  const TransientResult tr = run_transient(ckt, opts);
  ASSERT_TRUE(tr.ok);
  // The first analysis, and one more when the conductance starts stamping.
  EXPECT_EQ(counter(metrics::Counter::kMnaSymbolicAnalyses) - before, 2u);

  // The same transient on the dense oracle, step by step, each Newton
  // started from the same extrapolation.
  Waveforms oracle;
  oracle.time.push_back(0.0);
  oracle.samples.push_back(opts.initial_x);
  std::vector<double> x;
  std::vector<double> state(ckt.state_size(), 0.0);
  for (const auto& e : ckt.elements()) e->commit(ckt, opts.initial_x, TransientContext{}, state);
  std::vector<size_t> order;
  ASSERT_EQ(tr.waves.samples.size(), 121u);
  for (size_t step = 1; step < tr.waves.samples.size(); ++step) {
    TransientContext ctx;
    ctx.time = static_cast<double>(step) * opts.dt;
    ctx.dt = opts.dt;
    ctx.state = &state;
    extrapolate_start(oracle, opts.dt, x);
    ASSERT_TRUE(dense_newton(ckt, ctx, kTransientNewton, x, order)) << step;
    for (const auto& e : ckt.elements()) e->commit(ckt, x, ctx, state);
    EXPECT_EQ(tests::fnv1a(tr.waves.samples[step]), tests::fnv1a(x)) << step;
    oracle.time.push_back(ctx.time);
    oracle.samples.push_back(x);
  }
  // The coupling moved far: the window mattered.
  const size_t u_far = static_cast<size_t>(ckt.unknown_of_node(far));
  EXPECT_GT(std::abs(tr.waves.samples.back()[u_far]), 1e-3);
}

TEST(MnaReplay, EntryLeavingTheStampLeavesNoStaleValue) {
  // One workspace stamped before, inside and after the conductance's
  // window: its Jacobian must equal a freshly zeroed one's every time.
  Circuit ckt;
  const NodeId a = ckt.new_node();
  const NodeId b = ckt.new_node();
  ckt.add(std::make_unique<VoltageSource>(a, kGround, 1.0));
  ckt.add(std::make_unique<Resistor>(b, kGround, 1e3));
  ckt.add(std::make_unique<WindowedConductance>(a, b, 1e-3, 1e-12, 2e-12));
  const size_t n = ckt.num_unknowns();
  const std::vector<double> x = {1.0, 0.25, -1e-3};
  MnaWorkspace ws(n);
  const size_t ab = static_cast<size_t>(ckt.unknown_of_node(a)) * n +
                    static_cast<size_t>(ckt.unknown_of_node(b));
  for (const double t : {0.5e-12, 1.5e-12, 2.5e-12}) {
    TransientContext ctx;
    ctx.time = t;
    ws.stamp(ckt, x, ctx);
    MnaWorkspace fresh(n);
    fresh.stamp(ckt, x, ctx);
    for (size_t k = 0; k < n * n; ++k) {
      EXPECT_EQ(std::bit_cast<uint64_t>(ws.jac.data()[k]),
                std::bit_cast<uint64_t>(fresh.jac.data()[k]))
          << "t = " << t << ", entry " << k;
    }
    EXPECT_EQ(ws.in_pattern[ab] != 0, t > 1e-12) << t;  // joined, and stays
  }
}

TEST(MnaReplay, GoldenRingTransientAnalysesOnce) {
  // The ring transient of CircuitGolden.RingOscillatorIsBitPinned: one
  // analysis on its first factorization, then only replays. Its step and
  // factorization counts are pinned exactly, so a change in Newton work
  // fails in either direction.
  const InverterModels inv = synthetic_inverter();
  const RingOscillator ro = build_ring_oscillator(std::vector<InverterModels>(15, inv), inv, 0.4);
  TransientOptions topt;
  topt.dt = 0.5e-12;
  topt.t_stop = 2001 * topt.dt;
  topt.initial_x = ro.kick_state();  // a DC solve, whose pivots move as it converges
  metrics::reset();  // from here on the counters cover the transient alone
  ASSERT_TRUE(run_transient(ro.ckt, topt).ok);
  EXPECT_EQ(counter(metrics::Counter::kMnaSymbolicAnalyses), 1u);
  EXPECT_EQ(counter(metrics::Counter::kTransientSteps), 2001u);
  EXPECT_EQ(counter(metrics::Counter::kMnaFactorizations), 5870u);
}

/// Bit-for-bit equality of two double vectors, naming the first mismatch.
::testing::AssertionResult same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "sizes " << a.size() << " vs " << b.size();
  }
  for (size_t k = 0; k < a.size(); ++k) {
    if (std::bit_cast<uint64_t>(a[k]) != std::bit_cast<uint64_t>(b[k])) {
      return ::testing::AssertionFailure() << "entry " << k << ": " << a[k] << " vs " << b[k];
    }
  }
  return ::testing::AssertionSuccess();
}

/// run_transient's step loop by hand, from `x0`, so the element state after
/// the last accepted step can be read: every accepted iterate, then the
/// final state vector.
struct SteppedTransient {
  Waveforms waves;
  std::vector<double> state;
};

SteppedTransient step_transient(const Circuit& ckt, const std::vector<double>& x0, double dt,
                                size_t steps) {
  SteppedTransient out;
  out.state.assign(ckt.state_size(), 0.0);
  for (const auto& e : ckt.elements()) e->commit(ckt, x0, TransientContext{}, out.state);
  MnaWorkspace ws(ckt.num_unknowns());
  out.waves.time.push_back(0.0);
  out.waves.samples.push_back(x0);
  std::vector<double> x;
  for (size_t step = 1; step <= steps; ++step) {
    TransientContext ctx;
    ctx.time = static_cast<double>(step) * dt;
    ctx.dt = dt;
    ctx.state = &out.state;
    extrapolate_start(out.waves, dt, x);
    if (!newton_solve(ckt, ctx, kTransientNewton, x, ws)) {
      ADD_FAILURE() << "step " << step << " failed";
      break;
    }
    for (const auto& e : ckt.elements()) e->commit(ckt, x, ctx, out.state);
    out.waves.time.push_back(ctx.time);
    out.waves.samples.push_back(x);
  }
  return out;
}

/// Bit-compare the element state of `grouped`, whose gate loads are
/// fanout groups, with that of `single`, the same circuit built with
/// `fanout` single-gate loads in each group's place: every other element's
/// state as is, and each group's [q, i, v] against each of its loads'.
void expect_same_state(const Circuit& grouped, const std::vector<double>& grouped_state,
                       const std::vector<double>& single_state, int fanout) {
  size_t g = 0, s = 0;
  for (const auto& e : grouped.elements()) {
    const size_t n = e->state_size();
    const bool group = dynamic_cast<const InverterGateLoad*>(e.get()) != nullptr;
    for (int copy = 0; copy < (group ? fanout : 1); ++copy) {
      ASSERT_LE(s + n, single_state.size());
      const std::vector<double> a(grouped_state.begin() + static_cast<ptrdiff_t>(g),
                                  grouped_state.begin() + static_cast<ptrdiff_t>(g + n));
      const std::vector<double> b(single_state.begin() + static_cast<ptrdiff_t>(s),
                                  single_state.begin() + static_cast<ptrdiff_t>(s + n));
      EXPECT_TRUE(same_bits(a, b)) << "state at " << g << " vs " << s;
      s += n;
    }
    g += n;
  }
  EXPECT_EQ(g, grouped_state.size());
  EXPECT_EQ(s, single_state.size());
}

TEST(Elements, FanoutGroupMatchesSeparateLoadsBitForBit) {
  const InverterModels inv = synthetic_inverter();
  const double vdd = 0.4;

  // The ring of CircuitGolden.RingOscillatorIsBitPinned, and the same ring
  // hand-built with three single-gate loads per stage node.
  const std::vector<InverterModels> stages(15, inv);
  const RingOscillator grouped = build_ring_oscillator(stages, inv, vdd);
  RingOscillator single;
  single.vdd = vdd;
  single.vdd_node = single.ckt.new_node();
  single.ckt.add(std::make_unique<VoltageSource>(single.vdd_node, kGround, vdd));
  for (size_t i = 0; i < stages.size(); ++i) {
    single.stage_out.push_back(single.ckt.new_node());
  }
  for (size_t i = 0; i < stages.size(); ++i) {
    const NodeId out = single.stage_out[i];
    add_inverter(single.ckt, stages[i], single.stage_out[(i + stages.size() - 1) % stages.size()],
                 out, single.vdd_node);
    for (int k = 0; k < 3; ++k) {
      single.ckt.add(std::make_unique<InverterGateLoad>(inv.nfet, inv.pfet, out, vdd));
    }
  }
  EXPECT_EQ(grouped.ckt.elements().size(), 46u);
  EXPECT_EQ(single.ckt.elements().size(), 76u);
  ASSERT_EQ(grouped.ckt.num_unknowns(), single.ckt.num_unknowns());

  TransientOptions topt;
  topt.dt = 0.5e-12;
  topt.t_stop = 2001 * topt.dt;
  topt.initial_x = grouped.kick_state();
  ASSERT_TRUE(same_bits(single.kick_state(), topt.initial_x));
  const TransientResult tg = run_transient(grouped.ckt, topt);
  const TransientResult ts = run_transient(single.ckt, topt);
  ASSERT_TRUE(tg.ok);
  ASSERT_TRUE(ts.ok);
  ASSERT_EQ(tg.waves.samples.size(), 2002u);
  ASSERT_EQ(ts.waves.samples.size(), 2002u);
  for (size_t k = 0; k < tg.waves.samples.size(); ++k) {
    ASSERT_TRUE(same_bits(tg.waves.samples[k], ts.waves.samples[k])) << "sample " << k;
  }
  const SteppedTransient sg = step_transient(grouped.ckt, topt.initial_x, topt.dt, 2001);
  const SteppedTransient ss = step_transient(single.ckt, topt.initial_x, topt.dt, 2001);
  ASSERT_TRUE(same_bits(sg.waves.samples.back(), tg.waves.samples.back()));
  ASSERT_TRUE(same_bits(ss.waves.samples.back(), ts.waves.samples.back()));
  expect_same_state(grouped.ckt, sg.state, ss.state, 3);

  // The FO4 testbench: one group of 4 against four single-gate loads, from
  // the DC point, through one input rise and fall.
  const auto input = [vdd](double t) {
    if (t < 25e-12 || t >= 77e-12) return 0.0;
    if (t < 27e-12) return vdd * (t - 25e-12) / 2e-12;
    if (t < 75e-12) return vdd;
    return vdd * (1.0 - (t - 75e-12) / 2e-12);
  };
  const Fo4Testbench fo4 = build_fo4_inverter(inv, inv, vdd, input);
  Fo4Testbench fo4_single;
  fo4_single.vdd_node = fo4_single.ckt.new_node();
  fo4_single.in = fo4_single.ckt.new_node();
  fo4_single.out = fo4_single.ckt.new_node();
  fo4_single.ckt.add(std::make_unique<VoltageSource>(fo4_single.vdd_node, kGround, vdd));
  fo4_single.ckt.add(std::make_unique<VoltageSource>(fo4_single.in, kGround, input));
  add_inverter(fo4_single.ckt, inv, fo4_single.in, fo4_single.out, fo4_single.vdd_node);
  for (int k = 0; k < 4; ++k) {
    fo4_single.ckt.add(std::make_unique<InverterGateLoad>(inv.nfet, inv.pfet, fo4_single.out, vdd));
  }
  EXPECT_EQ(fo4.ckt.elements().size(), 5u);
  EXPECT_EQ(fo4_single.ckt.elements().size(), 8u);

  TransientOptions fopt;
  fopt.t_stop = 100e-12;
  fopt.dt = 0.1e-12;
  const TransientResult fg = run_transient(fo4.ckt, fopt);
  const TransientResult fs = run_transient(fo4_single.ckt, fopt);
  ASSERT_TRUE(fg.ok);
  ASSERT_TRUE(fs.ok);
  ASSERT_EQ(fg.waves.samples.size(), fs.waves.samples.size());
  for (size_t k = 0; k < fg.waves.samples.size(); ++k) {
    ASSERT_TRUE(same_bits(fg.waves.samples[k], fs.waves.samples[k])) << "sample " << k;
  }
  // The output switched both ways, so the loads were charged and drained.
  const std::vector<double> vout = fg.waves.node(fo4.ckt, fo4.out);
  EXPECT_LT(*std::min_element(vout.begin(), vout.end()), 0.1 * vdd);
  EXPECT_GT(vout.back(), 0.9 * vdd);
  const size_t fsteps = fg.waves.samples.size() - 1;
  const SteppedTransient fsg = step_transient(fo4.ckt, fg.waves.samples.front(), fopt.dt, fsteps);
  const SteppedTransient fss =
      step_transient(fo4_single.ckt, fs.waves.samples.front(), fopt.dt, fsteps);
  ASSERT_TRUE(same_bits(fsg.waves.samples.back(), fg.waves.samples.back()));
  ASSERT_TRUE(same_bits(fss.waves.samples.back(), fs.waves.samples.back()));
  expect_same_state(fo4.ckt, fsg.state, fss.state, 4);
}

TEST(Elements, FanoutGroupRejectsFanoutBelowOne) {
  const InverterModels inv = synthetic_inverter();
  Circuit ckt;
  const NodeId n = ckt.new_node();
  EXPECT_THROW(InverterGateLoad(inv.nfet, inv.pfet, n, 0.4, 0), std::invalid_argument);
  EXPECT_THROW(InverterGateLoad(inv.nfet, inv.pfet, n, 0.4, -1), std::invalid_argument);
  EXPECT_NO_THROW(InverterGateLoad(inv.nfet, inv.pfet, n, 0.4, 1));
}

TEST(RingDcStart, GoldenRingStartsFromItsDcPoint) {
  // The ring of CircuitGolden.RingOscillatorIsBitPinned converges its DC
  // start, and RingMetrics carries that through.
  const InverterModels inv = synthetic_inverter();
  const std::vector<InverterModels> stages(15, inv);
  bool converged = false;
  (void)build_ring_oscillator(stages, inv, 0.4).kick_state(&converged);
  EXPECT_TRUE(converged);
  RingMeasureOptions opts;
  opts.t_stop_s = 1.0e-9;
  opts.dt_s = 0.5e-12;
  const RingMetrics m = measure_ring_oscillator(stages, inv, 0.4, opts);
  EXPECT_TRUE(m.ok);
  EXPECT_TRUE(m.dc_start_converged);
}

TEST(Elements, GateLoadCapacitanceIsPositive) {
  const InverterModels inv = synthetic_inverter();
  Circuit ckt;
  const NodeId n = ckt.new_node();
  InverterGateLoad load(inv.nfet, inv.pfet, n, 0.4);
  for (double v : {0.0, 0.2, 0.4}) {
    EXPECT_GT(load.capacitance(v), 1e-19);
    EXPECT_LT(load.capacitance(v), 1e-15);
  }
}

}  // namespace
