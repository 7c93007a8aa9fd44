#include "dacgen/dacgen.hpp"

#include <cmath>
#include <string>

#include "mathx/rng.hpp"
#include "spice/solver.hpp"

namespace csdac::dacgen {

using spice::Capacitor;
using spice::Circuit;
using spice::Mosfet;
using spice::Resistor;
using spice::VoltageSource;

TransistorLevelDac::TransistorLevelDac(const core::DacSpec& spec,
                                       const core::SizedCell& cell,
                                       const tech::MosTechParams& tech,
                                       const DacGenOptions& opts)
    : spec_(spec), cell_(cell), tech_(tech), opts_(opts) {
  spec_.validate();
  if (!(opts_.sigma_unit >= 0.0)) {
    throw std::invalid_argument("TransistorLevelDac: sigma < 0");
  }
  if (!opts_.unary_systematic.empty() &&
      opts_.unary_systematic.size() !=
          static_cast<std::size_t>(spec_.num_unary())) {
    throw std::invalid_argument(
        "TransistorLevelDac: unary_systematic size mismatch");
  }
  mathx::Xoshiro256 rng(opts_.seed);
  // A source of weight w averages w unit draws: relative sigma scales as
  // sigma_unit / sqrt(w).
  const double uw = spec_.unary_weight();
  for (int i = 0; i < spec_.num_unary(); ++i) {
    double e = opts_.sigma_unit / std::sqrt(uw) * mathx::normal(rng);
    if (!opts_.unary_systematic.empty()) {
      e += opts_.unary_systematic[static_cast<std::size_t>(i)];
    }
    unary_err_.push_back(e);
  }
  for (int k = 0; k < spec_.binary_bits; ++k) {
    const double w = std::ldexp(1.0, k);
    binary_err_.push_back(opts_.sigma_unit / std::sqrt(w) *
                          mathx::normal(rng));
  }
}

TransistorLevelDac::BuiltCircuit TransistorLevelDac::build(int code) const {
  if (code < 0 || code >= (1 << spec_.nbits)) {
    throw std::out_of_range("TransistorLevelDac::build: code");
  }
  BuiltCircuit bc;
  bc.circuit = std::make_unique<Circuit>();
  Circuit& ckt = *bc.circuit;

  const double v_term = spec_.v_out_min + spec_.v_swing;
  bc.out_p = ckt.node("out_p");
  bc.out_n = ckt.node("out_n");
  const int vterm = ckt.node("vterm");
  ckt.add(std::make_unique<VoltageSource>("vterm", vterm, 0, v_term));
  ckt.add(std::make_unique<Resistor>("rlp", vterm, bc.out_p, spec_.r_load));
  if (opts_.differential) {
    ckt.add(
        std::make_unique<Resistor>("rln", vterm, bc.out_n, spec_.r_load));
  } else {
    ckt.add(std::make_unique<VoltageSource>("vshort", bc.out_n, 0, v_term));
  }

  // Shared bias and switch-drive rails.
  const int gcs = ckt.node("gcs");
  const int g_on = ckt.node("g_on");
  const int g_off = ckt.node("g_off");
  ckt.add(std::make_unique<VoltageSource>("vgcs", gcs, 0, cell_.cell.vg_cs));
  ckt.add(std::make_unique<VoltageSource>("vg_on", g_on, 0, cell_.cell.vg_sw));
  ckt.add(std::make_unique<VoltageSource>("vg_off", g_off, 0, 0.0));
  const bool cascode = cell_.cell.topology == core::CellTopology::kCsSwCas;
  int gcas = 0;
  if (cascode) {
    gcas = ckt.node("gcas");
    ckt.add(
        std::make_unique<VoltageSource>("vgcas", gcas, 0, cell_.cell.vg_cas));
  }

  // One cell per source: multiplier carries the weight; the complementary
  // switches steer to out_p (on) / out_n (off).
  auto add_cell = [&](const std::string& tag, double weight, bool on,
                      double current_err) {
    const int top = ckt.node("top_" + tag);  // switch-source node
    Mosfet* mcs = nullptr;
    if (cascode) {
      const int mid = ckt.node("mid_" + tag);
      mcs = ckt.add(std::make_unique<Mosfet>(
          "mcs_" + tag, tech_, mid, gcs, 0, 0,
          Mosfet::Geometry{cell_.cell.cs.w, cell_.cell.cs.l, weight},
          opts_.with_caps));
      ckt.add(std::make_unique<Mosfet>(
          "mcas_" + tag, tech_, top, gcas, mid, 0,
          Mosfet::Geometry{cell_.cell.cas.w, cell_.cell.cas.l, weight},
          opts_.with_caps));
    } else {
      mcs = ckt.add(std::make_unique<Mosfet>(
          "mcs_" + tag, tech_, top, gcs, 0, 0,
          Mosfet::Geometry{cell_.cell.cs.w, cell_.cell.cs.l, weight},
          opts_.with_caps));
    }
    if (current_err != 0.0) {
      // Relative current error injected through the gain factor
      // (I ~ beta for fixed overdrive).
      mcs->set_mismatch(0.0, 1.0 + current_err);
    }
    ckt.add(std::make_unique<Mosfet>(
        "mswp_" + tag, tech_, bc.out_p, on ? g_on : g_off, top, 0,
        Mosfet::Geometry{cell_.cell.sw.w, cell_.cell.sw.l, weight},
        opts_.with_caps));
    ckt.add(std::make_unique<Mosfet>(
        "mswn_" + tag, tech_, bc.out_n, on ? g_off : g_on, top, 0,
        Mosfet::Geometry{cell_.cell.sw.w, cell_.cell.sw.l, weight},
        opts_.with_caps));
  };

  const int unary_on = code >> spec_.binary_bits;
  // Names are built by append: GCC 12 misreads "u" + std::string&& as
  // overlapping copies (a -Wrestrict false positive).
  for (int i = 0; i < spec_.num_unary(); ++i) {
    add_cell(std::string("u").append(std::to_string(i)),
             spec_.unary_weight(), i < unary_on,
             unary_err_[static_cast<std::size_t>(i)]);
  }
  const int bits = code & ((1 << spec_.binary_bits) - 1);
  for (int k = 0; k < spec_.binary_bits; ++k) {
    add_cell(std::string("b").append(std::to_string(k)), std::ldexp(1.0, k),
             ((bits >> k) & 1) != 0,
             binary_err_[static_cast<std::size_t>(k)]);
  }
  return bc;
}

double TransistorLevelDac::level(int code) const {
  BuiltCircuit bc = build(code);
  const spice::Solution sol = spice::solve_dc(*bc.circuit);
  const double v_term = spec_.v_out_min + spec_.v_swing;
  const double i_out = (v_term - sol.v(bc.out_p)) / spec_.r_load;
  return i_out / spec_.i_lsb();
}

std::vector<double> TransistorLevelDac::transfer() const {
  const int n_codes = 1 << spec_.nbits;
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n_codes));
  for (int c = 0; c < n_codes; ++c) out.push_back(level(c));
  return out;
}

double TransistorLevelDac::v_diff(int code) const {
  BuiltCircuit bc = build(code);
  const spice::Solution sol = spice::solve_dc(*bc.circuit);
  return sol.v(bc.out_p) - sol.v(bc.out_n);
}

}  // namespace csdac::dacgen
