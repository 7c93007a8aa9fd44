#include "mathx/rare_event.hpp"

#include <algorithm>
#include <cmath>

#include "mathx/stats.hpp"
#include "mathx/transcendental.hpp"

namespace csdac::mathx {

namespace {

constexpr double kZ95 = 1.959963984540054;

/// Series crossover: both expansions converge geometrically here, the
/// alternating tail series needs ~4 terms, the theta-transformed series ~2.
constexpr double kSeriesSplit = 1.18;

}  // namespace

double kolmogorov_cdf(double x) {
  if (!(x > 0.0)) return 0.0;
  if (x >= kSeriesSplit) {
    // K(x) = 1 - 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 x^2)
    double sum = 0.0;
    double sign = 1.0;
    for (int k = 1; k <= 32; ++k) {
      const double term = std::exp(-2.0 * k * k * x * x);
      sum += sign * term;
      sign = -sign;
      if (term < 1e-18) break;
    }
    return 1.0 - 2.0 * sum;
  }
  // Functional-equation form for small x (dominant near the origin where
  // the tail series loses all precision to cancellation):
  // K(x) = (sqrt(2 pi) / x) sum_{k>=1} exp(-(2k-1)^2 pi^2 / (8 x^2))
  const double inv = 1.0 / (8.0 * x * x);
  double sum = 0.0;
  for (int k = 1; k <= 16; ++k) {
    const double a = (2.0 * k - 1.0) * M_PI;
    const double term = std::exp(-a * a * inv);
    sum += term;
    if (term < 1e-300) break;
  }
  return std::sqrt(2.0 * M_PI) / x * sum;
}

double kolmogorov_quantile(double p) {
  double lo = 1e-8;
  double hi = 10.0;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (kolmogorov_cdf(mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-13) break;
  }
  return 0.5 * (lo + hi);
}

IsReduction reduce_is_weights(std::span<const double> log_w,
                              std::span<const unsigned char> fail) {
  IsReduction r;
  r.n = static_cast<std::int64_t>(log_w.size());
  if (r.n == 0) return r;
  r.log_w_max = log_w[0];
  r.log_w_min = log_w[0];
  for (std::size_t i = 1; i < log_w.size(); ++i) {
    r.log_w_max = std::max(r.log_w_max, log_w[i]);
    r.log_w_min = std::min(r.log_w_min, log_w[i]);
  }
  // One sequential pass in index order: the scaled weights are pure
  // functions of their slot, so the reduction is thread-count invariant.
  for (std::size_t i = 0; i < log_w.size(); ++i) {
    const double w = mathx::exp(log_w[i] - r.log_w_max);
    const double w2 = w * w;
    r.sum_w += w;
    r.sum_w2 += w2;
    if (fail[i]) {
      ++r.fails;
      r.sum_wf += w;
      r.sum_w2f += w2;
    }
  }
  return r;
}

IsEstimate is_estimate(const IsReduction& r) {
  IsEstimate e;
  if (r.n <= 0 || !(r.sum_w > 0.0)) return e;
  const double p = r.sum_wf / r.sum_w;
  e.fail_probability = p;
  // Delta-method variance of the ratio estimator p_hat = sum(w f)/sum(w):
  //   Var ~= sum_i w_i^2 (f_i - p_hat)^2 / (sum_i w_i)^2
  // expanded over the pass/fail split so it reduces to the stored sums.
  // Scale-invariant: numerator and denominator both carry exp(-2 max).
  const double num =
      r.sum_w2f * (1.0 - p) * (1.0 - p) + (r.sum_w2 - r.sum_w2f) * p * p;
  e.ci95 = kZ95 * std::sqrt(std::max(num, 0.0)) / r.sum_w;
  e.ess = r.sum_w2 > 0.0 ? r.sum_w * r.sum_w / r.sum_w2 : 0.0;
  e.ess_fraction = e.ess / static_cast<double>(r.n);
  return e;
}

StratEstimate stratified_estimate(std::span<const StratumMoments> strata) {
  StratEstimate e;
  if (strata.empty()) return e;
  const double s = static_cast<double>(strata.size());
  double mean_sum = 0.0;
  double var_sum = 0.0;
  for (const StratumMoments& m : strata) {
    if (m.pairs <= 0) continue;
    const double n = static_cast<double>(m.pairs);
    const double mu = m.sum_y / n;
    mean_sum += mu;
    e.pairs += m.pairs;
    if (m.pairs >= 2) {
      const double ss = std::max(m.sum_y2 - n * mu * mu, 0.0);
      const double var = ss / (n - 1.0);
      var_sum += var / n;
    }
  }
  e.mean = mean_sum / s;
  e.ci95 = kZ95 * std::sqrt(var_sum) / s;
  return e;
}

double half_normal_inv(double u) {
  u = std::clamp(u, 0.0, 1.0 - 1e-16);
  return normal_inv_cdf(0.5 * (1.0 + u));
}

}  // namespace csdac::mathx
