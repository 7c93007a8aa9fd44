// Sparse-vs-dense equivalence: every analysis (DC, sweep, transient, AC)
// run with LinearSolverKind::kSparse must agree with the dense baseline
// within 1e-9 on every example circuit, and — because batched evaluation
// and refactorization are bit-identical replays of the scalar/dense math —
// take exactly the same number of Newton iterations with warm-start
// disabled. Also pins the batched MOSFET evaluator to the scalar
// Mosfet::evaluate() results device by device.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sizer.hpp"
#include "dacgen/dacgen.hpp"
#include "obs/metrics.hpp"
#include "spice/batch.hpp"
#include "spice/circuit.hpp"
#include "spice/devices.hpp"
#include "spice/netlist_parser.hpp"
#include "spice/solver.hpp"
#include "tech/tech.hpp"
#include "tech/units.hpp"

namespace csdac::spice {
namespace {

using namespace csdac::units;
using tech::generic_035um;

constexpr double kTol = 1e-9;

// --- Example circuits ------------------------------------------------------

std::unique_ptr<Circuit> resistor_ladder() {
  auto ckt = std::make_unique<Circuit>();
  int prev = ckt->node("in");
  ckt->add(std::make_unique<VoltageSource>("v1", prev, 0, 3.3));
  for (int i = 0; i < 12; ++i) {
    const int next = ckt->node(std::string("n").append(std::to_string(i)));
    ckt->add(std::make_unique<Resistor>(
        std::string("r").append(std::to_string(i)), prev, next,
        100.0 + 10.0 * i));
    ckt->add(std::make_unique<Resistor>("rg" + std::to_string(i), next, 0,
                                        1e3));
    prev = next;
  }
  return ckt;
}

std::unique_ptr<Circuit> rc_pulse() {
  auto ckt = std::make_unique<Circuit>();
  const int in = ckt->node("in");
  const int out = ckt->node("out");
  ckt->add(std::make_unique<VoltageSource>(
      "v1", in, 0,
      std::make_unique<PulseWave>(0.0, 1.0, 1e-9, 1e-10, 1e-10, 5e-9)));
  ckt->add(std::make_unique<Resistor>("r1", in, out, 1e3));
  ckt->add(std::make_unique<Capacitor>("c1", out, 0, 1e-12));
  return ckt;
}

std::unique_ptr<Circuit> common_source_amp() {
  auto ckt = std::make_unique<Circuit>();
  const int vdd = ckt->node("vdd");
  const int g = ckt->node("g");
  const int d = ckt->node("d");
  ckt->add(std::make_unique<VoltageSource>("vdd", vdd, 0, 3.3));
  ckt->add(std::make_unique<VoltageSource>("vin", g, 0, 1.2, 1.0));
  ckt->add(std::make_unique<Resistor>("rd", vdd, d, 10e3));
  ckt->add(std::make_unique<Mosfet>("m1", generic_035um().nmos, d, g, 0, 0,
                                    Mosfet::Geometry{20 * um, 0.35 * um}));
  ckt->add(std::make_unique<Capacitor>("cl", d, 0, 100e-15));
  return ckt;
}

std::unique_ptr<Circuit> parsed_netlist() {
  auto ckt = parse_netlist(R"(
* five-transistor OTA-ish stack exercising the parser path
VDD vdd 0 3.3
VIN inp 0 1.5
VB  bias 0 1.0
M1 x inp mid 0 NMOS W=10u L=1u
M2 y bias mid 0 NMOS W=10u L=1u
M3 x x vdd vdd PMOS W=20u L=1u
M4 y x vdd vdd PMOS W=20u L=1u
M5 mid bias 0 0 NMOS W=20u L=1u
R1 y 0 100k
)",
                           generic_035um());
  return ckt;
}

// 6-bit transistor-level DAC at mid code: the realistic array-scale case
// (enough unknowns to cross the kAuto threshold).
dacgen::TransistorLevelDac::BuiltCircuit dac_circuit() {
  core::DacSpec spec;
  spec.nbits = 6;
  spec.binary_bits = 2;
  core::CellSizer sizer(generic_035um().nmos, spec);
  const core::SizedCell cell =
      sizer.size_cascode(0.25, 0.2, 0.2, core::MarginPolicy::kStatistical);
  dacgen::TransistorLevelDac dac(spec, cell, generic_035um().nmos);
  return dac.build(31);
}

struct NamedCircuit {
  const char* name;
  std::function<std::unique_ptr<Circuit>()> build;
};

const NamedCircuit kDcCircuits[] = {
    {"resistor_ladder", resistor_ladder},
    {"common_source_amp", common_source_amp},
    {"parsed_netlist", parsed_netlist},
};

NewtonOptions with_solver(LinearSolverKind kind, SolveStats* stats) {
  NewtonOptions o;
  o.solver = kind;
  o.sparse_threshold = 1;  // kSparse/kDense are explicit; threshold moot
  o.stats = stats;
  return o;
}

// --- DC --------------------------------------------------------------------

TEST(SparseDenseEquivalence, DcOnExampleCircuits) {
  for (const auto& nc : kDcCircuits) {
    auto a = nc.build();
    auto b = nc.build();
    SolveStats sd, ss;
    const Solution dense = solve_dc(*a, with_solver(LinearSolverKind::kDense,
                                                    &sd));
    const Solution sparse = solve_dc(
        *b, with_solver(LinearSolverKind::kSparse, &ss));
    ASSERT_EQ(dense.x.size(), sparse.x.size()) << nc.name;
    for (std::size_t i = 0; i < dense.x.size(); ++i) {
      EXPECT_NEAR(dense.x[i], sparse.x[i], kTol) << nc.name << " x[" << i
                                                 << "]";
    }
    EXPECT_EQ(sd.newton_iters, ss.newton_iters)
        << nc.name << ": identical Newton trajectories expected";
    EXPECT_GT(sd.dense_solves, 0) << nc.name;
    EXPECT_EQ(ss.dense_solves, 0) << nc.name;
    EXPECT_EQ(ss.factorizations, 1)
        << nc.name << ": one symbolic factorization, rest replays";
  }
}

TEST(SparseDenseEquivalence, DcOnDacArray) {
  auto a = dac_circuit();
  auto b = dac_circuit();
  SolveStats sd, ss;
  const Solution dense =
      solve_dc(*a.circuit, with_solver(LinearSolverKind::kDense, &sd));
  const Solution sparse =
      solve_dc(*b.circuit, with_solver(LinearSolverKind::kSparse, &ss));
  ASSERT_EQ(dense.x.size(), sparse.x.size());
  for (std::size_t i = 0; i < dense.x.size(); ++i) {
    EXPECT_NEAR(dense.x[i], sparse.x[i], kTol) << "x[" << i << "]";
  }
  EXPECT_EQ(sd.newton_iters, ss.newton_iters);
  EXPECT_NEAR(dense.v(a.out_p), sparse.v(b.out_p), kTol);
}

// --- DC sweep --------------------------------------------------------------

TEST(SparseDenseEquivalence, DcSweep) {
  auto a = common_source_amp();
  auto b = common_source_amp();
  auto* va = static_cast<VoltageSource*>(a->find_device("vin"));
  auto* vb = static_cast<VoltageSource*>(b->find_device("vin"));
  ASSERT_NE(va, nullptr);
  ASSERT_NE(vb, nullptr);
  SolveStats sd, ss;
  const auto dense = dc_sweep(*a, *va, 0.5, 2.5, 21,
                              with_solver(LinearSolverKind::kDense, &sd));
  const auto sparse = dc_sweep(*b, *vb, 0.5, 2.5, 21,
                               with_solver(LinearSolverKind::kSparse, &ss));
  ASSERT_EQ(dense.size(), sparse.size());
  for (std::size_t p = 0; p < dense.size(); ++p) {
    for (std::size_t i = 0; i < dense[p].x.size(); ++i) {
      EXPECT_NEAR(dense[p].x[i], sparse[p].x[i], kTol)
          << "point " << p << " x[" << i << "]";
    }
  }
  EXPECT_EQ(sd.newton_iters, ss.newton_iters);
  // The whole sweep shares one pattern: a single symbolic factorization.
  EXPECT_EQ(ss.factorizations, 1);
  EXPECT_GT(ss.refactorizations, ss.factorizations);
}

// --- Transient -------------------------------------------------------------

TEST(SparseDenseEquivalence, TransientRcAndMosfet) {
  for (const auto build : {&rc_pulse, &common_source_amp}) {
    auto a = (*build)();
    auto b = (*build)();
    SolveStats sd, ss;
    TranOptions od, os;
    od.newton = with_solver(LinearSolverKind::kDense, &sd);
    os.newton = with_solver(LinearSolverKind::kSparse, &ss);
    const auto dense = transient(*a, 1e-10, 3e-9, od);
    const auto sparse = transient(*b, 1e-10, 3e-9, os);
    ASSERT_EQ(dense.time.size(), sparse.time.size());
    for (std::size_t s = 0; s < dense.time.size(); ++s) {
      EXPECT_EQ(dense.time[s], sparse.time[s]);
      for (std::size_t i = 0; i < dense.values[s].size(); ++i) {
        EXPECT_NEAR(dense.values[s][i], sparse.values[s][i], kTol)
            << "step " << s << " x[" << i << "]";
      }
    }
    EXPECT_EQ(sd.newton_iters, ss.newton_iters);
    // DC pattern + capacitor companions joining at the first step: at most
    // two symbolic factorizations over the whole waveform.
    EXPECT_LE(ss.factorizations, 2);
  }
}

TEST(TranResult, BranchWaveformMirrorsNodeWaveform) {
  auto ckt = rc_pulse();
  const auto res = transient(*ckt, 1e-10, 2e-9);
  const auto* v1 = ckt->find_device("v1");
  ASSERT_NE(v1, nullptr);
  const auto vw = res.node_waveform(ckt->find_node("out"));
  const auto iw = res.branch_waveform(*v1);
  ASSERT_EQ(vw.size(), res.time.size());
  ASSERT_EQ(iw.size(), res.time.size());
  for (std::size_t s = 0; s < res.time.size(); ++s) {
    EXPECT_EQ(vw[s], res.v(s, ckt->find_node("out")));
    EXPECT_EQ(iw[s], res.branch_current(s, *v1));
  }
}

// --- AC --------------------------------------------------------------------

TEST(SparseDenseEquivalence, AcSweep) {
  auto a = common_source_amp();
  auto b = common_source_amp();
  solve_dc(*a);
  solve_dc(*b);
  const auto freqs = log_space(1e3, 1e9, 5);
  AcOptions od, os;
  od.solver = LinearSolverKind::kDense;
  os.solver = LinearSolverKind::kSparse;
  os.sparse_threshold = 1;
  SolveStats ss;
  os.stats = &ss;
  const auto dense = ac_analysis(*a, freqs, od);
  const auto sparse = ac_analysis(*b, freqs, os);
  ASSERT_EQ(dense.freq.size(), sparse.freq.size());
  const int out = a->find_node("d");
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_NEAR(std::abs(dense.v(i, out) - sparse.v(i, out)), 0.0, kTol)
        << "f = " << freqs[i];
  }
  // One symbolic factorization for the whole frequency grid.
  EXPECT_EQ(ss.factorizations, 1);
  EXPECT_EQ(ss.refactorizations,
            static_cast<long>(freqs.size()) - ss.factorizations);

  const auto* vin = a->find_device("vin");
  ASSERT_NE(vin, nullptr);
  const auto bw = dense.branch_waveform(*vin);
  ASSERT_EQ(bw.size(), freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_EQ(bw[i], dense.branch_current(i, *vin));
  }
}

// --- Batched evaluator bit-identity ---------------------------------------

TEST(BatchedMosfets, BitIdenticalToScalarEvaluate) {
  auto built = dac_circuit();
  Circuit& ckt = *built.circuit;
  const Solution sol = solve_dc(ckt);

  EvalContext ctx;
  ctx.x = &sol.x;
  MosfetBatchSet batch(ckt);
  ASSERT_FALSE(batch.empty());
  batch.evaluate(ctx);

  int checked = 0;
  for (const auto& dev : ckt.devices()) {
    const auto* mos = dynamic_cast<const Mosfet*>(dev.get());
    if (mos == nullptr) continue;
    const Mosfet::Eval* be = batch.eval_for(dev.get());
    ASSERT_NE(be, nullptr) << mos->name();
    const Mosfet::Eval se = mos->evaluate(ctx);
    EXPECT_EQ(be->id, se.id) << mos->name();
    EXPECT_EQ(be->gm, se.gm) << mos->name();
    EXPECT_EQ(be->gds, se.gds) << mos->name();
    EXPECT_EQ(be->gmb, se.gmb) << mos->name();
    EXPECT_EQ(be->eff_d, se.eff_d) << mos->name();
    EXPECT_EQ(be->eff_s, se.eff_s) << mos->name();
    EXPECT_EQ(be->region, se.region) << mos->name();
    ++checked;
  }
  EXPECT_GT(checked, 50) << "the 6-bit array should batch dozens of devices";
}

// The batched evaluator counts MOSFET evaluations in spice.device_evals and
// its dispatches in simd.dispatch.*; the chip counters simd.lanes_utilized
// and simd.chips_scalar_tail belong to the dac lane kernels alone.
TEST(BatchedMosfets, DcSolveCountsDevicesNotChips) {
  obs::Registry& reg = obs::Registry::global();
  auto value = [&reg](const char* name) { return reg.counter(name).value(); };
  auto dispatched = [&value] {
    return value("simd.dispatch.scalar") + value("simd.dispatch.sse2") +
           value("simd.dispatch.avx2");
  };
  const std::int64_t evals0 = value("spice.device_evals");
  const std::int64_t lanes0 = value("simd.lanes_utilized");
  const std::int64_t tail0 = value("simd.chips_scalar_tail");
  const std::int64_t dispatch0 = dispatched();

  auto built = dac_circuit();
  SolveStats stats;
  (void)solve_dc(*built.circuit,
                 with_solver(LinearSolverKind::kSparse, &stats));
  ASSERT_GT(stats.device_evals, 0) << "the array should be batched";

  EXPECT_EQ(value("spice.device_evals") - evals0, stats.device_evals);
  EXPECT_EQ(value("simd.lanes_utilized"), lanes0);
  EXPECT_EQ(value("simd.chips_scalar_tail"), tail0);
  EXPECT_GT(dispatched(), dispatch0);
}

TEST(BatchedMosfets, MismatchFlowsThroughBatches) {
  auto built = dac_circuit();
  Circuit& ckt = *built.circuit;
  // Perturb a couple of devices so lanes within a group diverge.
  int hit = 0;
  for (const auto& dev : ckt.devices()) {
    auto* mos = dynamic_cast<Mosfet*>(dev.get());
    if (mos == nullptr) continue;
    mos->set_mismatch(1e-3 * (hit % 5), 1.0 + 1e-3 * (hit % 3));
    ++hit;
  }
  const Solution sol = solve_dc(ckt);
  EvalContext ctx;
  ctx.x = &sol.x;
  MosfetBatchSet batch(ckt);
  batch.evaluate(ctx);
  for (const auto& dev : ckt.devices()) {
    const auto* mos = dynamic_cast<const Mosfet*>(dev.get());
    if (mos == nullptr) continue;
    const Mosfet::Eval* be = batch.eval_for(dev.get());
    ASSERT_NE(be, nullptr);
    const Mosfet::Eval se = mos->evaluate(ctx);
    EXPECT_EQ(be->id, se.id) << mos->name();
    EXPECT_EQ(be->gm, se.gm) << mos->name();
  }
}

// --- Warm start ------------------------------------------------------------

TEST(WarmStart, ReducesNewtonIterationsOnNearbySolve) {
  auto built = dac_circuit();
  Circuit& ckt = *built.circuit;

  SolverContext shared;
  SolveStats cold;
  NewtonOptions o = with_solver(LinearSolverKind::kSparse, &cold);
  o.context = &shared;
  const Solution first = solve_dc(ckt, o);

  // Nudge every current source's mismatch slightly: the previous solution
  // is an excellent seed.
  for (const auto& dev : ckt.devices()) {
    auto* mos = dynamic_cast<Mosfet*>(dev.get());
    if (mos != nullptr) mos->set_mismatch(1e-4, 1.0001);
  }
  SolveStats warm;
  o.stats = &warm;
  o.x0 = &first.x;
  const Solution second = solve_dc(ckt, o);
  EXPECT_EQ(warm.warm_starts, 1);
  EXPECT_EQ(warm.warm_start_hits, 1);
  EXPECT_LT(warm.newton_iters, cold.newton_iters)
      << "warm start should converge in fewer iterations";
  // And no fresh symbolic factorization: the shared context's pattern and
  // pivot order are replayed numerically.
  EXPECT_EQ(warm.factorizations, 0);
  EXPECT_GT(warm.refactorizations, 0);
  EXPECT_EQ(second.x.size(), first.x.size());
}

}  // namespace
}  // namespace csdac::spice
