#include "dac/rare_event.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "dac/lane_kernel.hpp"
#include "mathx/rare_event.hpp"
#include "mathx/transcendental.hpp"
#include "obs/metrics.hpp"

namespace csdac::dac {

namespace {

// Process-wide rare-event instruments (same registry a Prometheus dump
// exports, see obs/metrics.hpp). Counters record work done; the gauges
// snapshot the most recent IS run's trust diagnostics.
struct RareInstruments {
  obs::Counter& is_runs;
  obs::Counter& is_chips;
  obs::Counter& strat_runs;
  obs::Counter& strat_chips;
  obs::Counter& bridge_evals;
  obs::Gauge& ess;
  obs::Gauge& ess_fraction;
  obs::Gauge& log_weight_max;
  obs::Gauge& log_weight_min;
  obs::Gauge& strata;
};

RareInstruments& rare_instruments() {
  auto& reg = obs::Registry::global();
  static RareInstruments m{
      reg.counter("rare.is_runs", "Importance-sampled yield runs"),
      reg.counter("rare.is_chips", "Chips drawn under the IS proposal"),
      reg.counter("rare.strat_runs", "Stratified/antithetic yield runs"),
      reg.counter("rare.strat_chips", "Chips drawn by the stratified path"),
      reg.counter("rare.bridge_evals", "Analytic bridge surrogate evals"),
      reg.gauge("rare.ess", "Effective sample size of the last IS run"),
      reg.gauge("rare.ess_fraction", "ESS / chips of the last IS run"),
      reg.gauge("rare.log_weight_max", "Largest log weight of the last IS run"),
      reg.gauge("rare.log_weight_min",
                "Smallest log weight of the last IS run"),
      reg.gauge("rare.strata", "Strata of the last stratified run"),
  };
  return m;
}

/// Orthonormal discrete-cosine modes over the U unary sources:
/// v_k[i] = sqrt(2/U) cos((k+1) pi (i + 1/2) / U), k = 0 .. U-2. These are
/// the DCT-II basis vectors orthogonal to the all-ones direction; their
/// partial sums are the sine shapes of the Brownian-bridge Karhunen-Loeve
/// expansion, so mode k carries a ~1/(k+1)^2 share of the INL excursion
/// variance — the first handful of modes is where INL failures live.
std::vector<double> cosine_modes(int u, int k_modes) {
  std::vector<double> v(static_cast<std::size_t>(k_modes) *
                        static_cast<std::size_t>(u > 0 ? u : 1));
  const double norm = u > 0 ? std::sqrt(2.0 / u) : 0.0;
  for (int k = 0; k < k_modes; ++k) {
    for (int i = 0; i < u; ++i) {
      v[static_cast<std::size_t>(k) * u + i] =
          norm * mathx::cos((k + 1) * M_PI * (i + 0.5) / u);
    }
  }
  return v;
}

/// Per-mode tilt profile: the first mode is scaled by the full
/// sigma_scale and deeper modes by harmonically tapered factors
/// g_k = 1 + (sigma_scale - 1) / (k + 1). Bridge mode k only carries a
/// 1/(k+1)^2 share of the excursion variance, so a flat tilt wastes
/// weight variance on modes that cannot cause the failure; the taper
/// tracks the K-L energy profile and measurably beats flat tilting.
double mode_scale(double sigma_scale, int k) {
  return 1.0 + (sigma_scale - 1.0) / (k + 1);
}

}  // namespace

IsYieldEstimate inl_yield_is(const core::DacSpec& spec, double sigma_unit,
                             double sigma_scale, int modes, int chips,
                             std::uint64_t seed, double inl_limit,
                             InlReference ref, int threads) {
  spec.validate();
  if (chips <= 0) throw std::invalid_argument("inl_yield_is: chips <= 0");
  if (threads < 0) throw std::invalid_argument("inl_yield_is: threads < 0");
  if (!(sigma_unit >= 0.0)) {
    throw std::invalid_argument("inl_yield_is: sigma < 0");
  }
  if (!(sigma_scale >= 1.0)) {
    throw std::invalid_argument("inl_yield_is: sigma_scale < 1");
  }
  if (modes < 1) throw std::invalid_argument("inl_yield_is: modes < 1");
  const int k_modes = std::min(modes, std::max(spec.num_unary() - 1, 0));

  // Chip c draws i.i.d. standard z on stream c; its pre-tilt mode
  // amplitudes t_k = v_k . z are standard normal, the proposal realizes
  // a_k = g_k t_k (z += (g_k - 1) t_k v_k), and per mode
  // log(p/q) = log g_k - (g_k^2 - 1)/2 * t_k^2.
  const std::vector<double> basis = cosine_modes(spec.num_unary(), k_modes);
  std::vector<double> log_g, half_g2m1, g_minus_1;
  for (int k = 0; k < k_modes; ++k) {
    const double gk = mode_scale(sigma_scale, k);
    log_g.push_back(mathx::log(gk));
    half_g2m1.push_back(0.5 * (gk * gk - 1.0));
    g_minus_1.push_back(gk - 1.0);
  }
  RareRun run;
  run.sigma_unit = sigma_unit;
  run.seed = seed;
  run.inl_limit = inl_limit;
  run.ref = ref;
  run.basis = basis.data();
  run.modes = k_modes;
  run.log_g = log_g.data();
  run.half_g2m1 = half_g2m1.data();
  run.g_minus_1 = g_minus_1.data();

  std::vector<double> log_w(static_cast<std::size_t>(chips));
  std::vector<unsigned char> fail(static_cast<std::size_t>(chips));
  IsYieldEstimate e;
  e.chips = chips;
  const mathx::YieldRun r = detail::run_lane_blocks(
      spec, {.max_items = chips, .batch = chips}, threads, /*unit=*/1,
      [&](const LaneKernel& k, ChipWorkspaceXN& ws, std::int64_t lo) {
        const auto i = static_cast<std::size_t>(lo);
        k.is_block(ws, run, lo, &log_w[i], &fail[i]);
        return std::int64_t{0};
      });
  e.stats = r.stats;
  const mathx::IsReduction red = mathx::reduce_is_weights(log_w, fail);
  const mathx::IsEstimate est = mathx::is_estimate(red);
  e.fails = red.fails;
  e.yield = 1.0 - est.fail_probability;
  e.ci95 = est.ci95;
  e.ess = est.ess;
  e.ess_fraction = est.ess_fraction;
  e.log_weight_max = red.log_w_max;
  e.log_weight_min = red.log_w_min;
  e.low_ess = e.ess_fraction < kEssTrustFraction;

  RareInstruments& m = rare_instruments();
  m.is_runs.add(1);
  m.is_chips.add(chips);
  m.ess.set(e.ess);
  m.ess_fraction.set(e.ess_fraction);
  m.log_weight_max.set(e.log_weight_max);
  m.log_weight_min.set(e.log_weight_min);
  return e;
}

StratYieldEstimate inl_yield_stratified(const core::DacSpec& spec,
                                        double sigma_unit, int strata,
                                        int chips, std::uint64_t seed,
                                        double inl_limit, InlReference ref,
                                        int threads) {
  spec.validate();
  if (chips < 2) throw std::invalid_argument("inl_yield_stratified: chips < 2");
  if (threads < 0) {
    throw std::invalid_argument("inl_yield_stratified: threads < 0");
  }
  if (!(sigma_unit >= 0.0)) {
    throw std::invalid_argument("inl_yield_stratified: sigma < 0");
  }
  if (strata < 1) {
    throw std::invalid_argument("inl_yield_stratified: strata < 1");
  }
  if (spec.num_unary() < 2) {
    throw std::invalid_argument(
        "inl_yield_stratified: needs a thermometer segment (num_unary >= 2)");
  }
  const std::int64_t pairs = chips / 2;
  if (pairs < strata) {
    throw std::invalid_argument("inl_yield_stratified: fewer pairs than strata");
  }
  const std::int64_t n = pairs * 2;

  // Pair j draws one standard z on stream j, then replaces its first-mode
  // amplitude t with a half-normal magnitude stratified over `strata`
  // equal-probability bins; the antithetic member reflects the intra-bin
  // position (u -> 1-u). The replacement z' = z + (a - t) v keeps z'
  // exactly N(0, I) conditioned on the bin, so the equal-weight stratum
  // average is unbiased for the plain MC yield.
  const std::vector<double> basis = cosine_modes(spec.num_unary(), 1);
  RareRun run;
  run.sigma_unit = sigma_unit;
  run.seed = seed;
  run.inl_limit = inl_limit;
  run.ref = ref;
  run.basis = basis.data();
  run.modes = 1;
  run.strata = strata;

  std::vector<unsigned char> pass(static_cast<std::size_t>(n));
  StratYieldEstimate e;
  e.chips = n;
  e.pairs = pairs;
  e.strata = strata;
  const mathx::YieldRun r = detail::run_lane_blocks(
      spec, {.max_items = n, .batch = n}, threads, /*unit=*/2,
      [&](const LaneKernel& k, ChipWorkspaceXN& ws, std::int64_t lo) {
        k.strat_block(ws, run, lo / 2, &pass[static_cast<std::size_t>(lo)]);
        return std::int64_t{0};
      });
  e.stats = r.stats;
  // Sequential pair reduction in index order: thread-count invariant.
  std::vector<mathx::StratumMoments> mom(static_cast<std::size_t>(strata));
  for (std::int64_t j = 0; j < pairs; ++j) {
    mathx::StratumMoments& m = mom[static_cast<std::size_t>(j % strata)];
    const double y = 0.5 * (pass[static_cast<std::size_t>(2 * j)] +
                            pass[static_cast<std::size_t>(2 * j + 1)]);
    ++m.pairs;
    m.sum_y += y;
    m.sum_y2 += y * y;
  }
  const mathx::StratEstimate se = mathx::stratified_estimate(mom);
  e.yield = se.mean;
  e.ci95 = se.ci95;

  RareInstruments& m = rare_instruments();
  m.strat_runs.add(1);
  m.strat_chips.add(n);
  m.strata.set(static_cast<double>(strata));
  return e;
}

BridgeYieldEstimate inl_yield_bridge(const core::DacSpec& spec,
                                     double sigma_unit, double inl_limit) {
  spec.validate();
  if (!(sigma_unit > 0.0)) {
    throw std::invalid_argument("inl_yield_bridge: sigma <= 0");
  }
  if (!(inl_limit > 0.0)) {
    throw std::invalid_argument("inl_yield_bridge: limit <= 0");
  }
  BridgeYieldEstimate b;
  b.sigma_inl = sigma_unit * std::sqrt(spec.unary_weight() *
                                       static_cast<double>(spec.num_unary()));
  b.c = inl_limit / b.sigma_inl;
  b.yield = mathx::kolmogorov_cdf(b.c);
  rare_instruments().bridge_evals.add(1);
  return b;
}

}  // namespace csdac::dac
