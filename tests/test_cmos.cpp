#include <gtest/gtest.h>

#include <cmath>

#include "circuit/measure.hpp"
#include "circuit/snm.hpp"
#include "cmos/nodes.hpp"

namespace {

using namespace gnrfet;
using cmos::CmosParams;

CmosParams base_params() {
  CmosParams p;
  p.width_um = 1.0;
  p.vth_V = 0.3;
  p.k_A_per_um = 1e-3;
  return p;
}

TEST(CmosFet, CutoffAndSaturationRegimes) {
  const cmos::CmosFet fet(base_params());
  const double i_off = fet.current(0.0, 0.8).value;
  const double i_on = fet.current(0.8, 0.8).value;
  EXPECT_GT(i_on, 1e-4);          // hundreds of uA/um on
  EXPECT_LT(i_off, 1e-6);         // leakage orders below
  EXPECT_GT(i_on / i_off, 1e3);
}

TEST(CmosFet, SubthresholdSlopeIsReasonable) {
  const cmos::CmosFet fet(base_params());
  const double i1 = fet.current(0.10, 0.8).value;
  const double i2 = fet.current(0.20, 0.8).value;
  const double ss_mV_per_dec = 100.0 / std::log10(i2 / i1);
  EXPECT_GT(ss_mV_per_dec, 60.0);   // thermionic limit
  EXPECT_LT(ss_mV_per_dec, 130.0);  // realistic short-channel value
}

TEST(CmosFet, CurrentMonotoneInBias) {
  const cmos::CmosFet fet(base_params());
  double prev = 0.0;
  for (double vgs = 0.0; vgs <= 0.8; vgs += 0.1) {
    const double i = fet.current(vgs, 0.5).value;
    EXPECT_GE(i, prev);
    prev = i;
  }
  prev = -1.0;
  for (double vds = 0.0; vds <= 0.8; vds += 0.1) {
    const double i = fet.current(0.6, vds).value;
    EXPECT_GE(i, prev);
    prev = i;
  }
}

TEST(CmosFet, PTypeMirror) {
  CmosParams pn = base_params();
  CmosParams pp = base_params();
  pp.polarity = model::Polarity::kP;
  const cmos::CmosFet n(pn), p(pp);
  EXPECT_NEAR(p.current(-0.6, -0.5).value, -n.current(0.6, 0.5).value, 1e-15);
}

TEST(CmosFet, NegativeVdsAntisymmetry) {
  const cmos::CmosFet fet(base_params());
  EXPECT_NEAR(fet.current(0.6, -0.4).value, -fet.current(0.6 + 0.4, 0.4).value, 1e-12);
  EXPECT_NEAR(fet.current(0.6, 0.0).value, 0.0, 1e-9);
}

TEST(CmosNodes, InverterVtcAndSnm) {
  const circuit::InverterModels inv = cmos::make_cmos_inverter(cmos::Node::k22nm);
  const circuit::Vtc vtc = circuit::compute_vtc(inv, 0.8);
  EXPECT_GT(vtc.vout.front(), 0.75);
  EXPECT_LT(vtc.vout.back(), 0.05);
  const double snm = circuit::butterfly_snm(vtc, vtc);
  // Paper Table 1: ~0.3 V at 0.8 V supply.
  EXPECT_GT(snm, 0.2);
  EXPECT_LT(snm, 0.4);
}

TEST(CmosNodes, FrequencyOrderingAcrossNodes) {
  circuit::RingMeasureOptions opts;
  opts.t_stop_s = 3e-9;
  opts.dt_s = 1e-12;
  double prev = 1e300;
  for (const auto node : {cmos::Node::k22nm, cmos::Node::k32nm, cmos::Node::k45nm}) {
    const circuit::InverterModels inv = cmos::make_cmos_inverter(node);
    const circuit::RingMetrics m =
        circuit::measure_ring_oscillator(std::vector<circuit::InverterModels>(15, inv), inv,
                                         0.8, opts);
    ASSERT_TRUE(m.ok) << cmos::node_name(node);
    EXPECT_LT(m.frequency_Hz, prev) << cmos::node_name(node);
    EXPECT_GT(m.frequency_Hz, 0.5e9);
    prev = m.frequency_Hz;
  }
}

}  // namespace
