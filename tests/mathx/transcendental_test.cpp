// mathx::log / exp / sin / cos: accuracy against a long-double reference
// on dense grids and special values, and bit-identity of the scalar, SSE2
// and AVX2 instances of the one Ops-templated algorithm.
#include "mathx/transcendental.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "lane_apply.hpp"
#include "mathx/rng.hpp"
#include "mathx/simd.hpp"
#if defined(__SSE2__)
#include "mathx/simd_sse2.hpp"
#endif

namespace csdac::mathx {
namespace {

using testing::Fn;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// |got - ref| in units of the last place of ref's binade (subnormal ulp
/// below DBL_MIN).
double ulp_error(double got, long double ref) {
  if (std::isinf(ref) || std::isinf(got)) {
    return static_cast<long double>(got) == ref ? 0.0 : kInf;
  }
  const int e = ref == 0.0L ? -1022 : std::max(std::ilogb(ref), -1022);
  const long double ulp = std::ldexp(1.0L, e - 52);
  return static_cast<double>(std::fabs(static_cast<long double>(got) - ref) /
                             ulp);
}

/// Largest ulp error of f against ref over xs; reports the worst input.
template <class F, class R>
double max_ulp(const std::vector<double>& xs, F f, R ref, double* worst_x) {
  double worst = 0.0;
  for (double x : xs) {
    const double err = ulp_error(f(x), ref(static_cast<long double>(x)));
    if (!(err <= worst)) {
      worst = err;
      *worst_x = x;
    }
  }
  return worst;
}

void report(const char* name, double worst, double at) {
  std::printf("[ max ulp ] %s: %.3f ulp (at x = %a)\n", name, worst, at);
  ::testing::Test::RecordProperty(std::string(name) + "_max_ulp",
                                  std::to_string(worst));
}

double uniform_in(Xoshiro256& rng, double lo, double hi) {
  return uniform(rng, lo, hi);
}

TEST(Transcendental, LogWithinOneUlp) {
  Xoshiro256 rng(101);
  std::vector<double> xs;
  // Every binade, subnormals included: random positive finite bit patterns.
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t bits = rng() % 0x7ff0000000000000ull;
    if (bits != 0) xs.push_back(std::bit_cast<double>(bits));
  }
  // Dense around 1, where log's relative error is hardest to hold.
  for (int i = 0; i < 500000; ++i) xs.push_back(uniform_in(rng, 0.5, 2.0));
  for (int i = 0; i < 100000; ++i) {
    xs.push_back(1.0 + uniform_in(rng, -1e-6, 1e-6));
  }
  // The ziggurat tail's domain.
  for (int i = 0; i < 200000; ++i) xs.push_back(uniform_in(rng, 0.0, 1.0));
  xs.push_back(std::numeric_limits<double>::denorm_min());
  xs.push_back(std::numeric_limits<double>::min());
  xs.push_back(std::numeric_limits<double>::max());
  xs.push_back(std::nextafter(1.0, 0.0));
  xs.push_back(std::nextafter(1.0, 2.0));
  double at = 0.0;
  const double worst = max_ulp(
      xs, [](double x) { return mathx::log(x); },
      [](long double x) { return std::log(x); }, &at);
  report("log", worst, at);
  EXPECT_LE(worst, 1.0) << "at x = " << at;
}

TEST(Transcendental, ExpWithinOneUlp) {
  Xoshiro256 rng(102);
  std::vector<double> xs;
  // The whole finite range, subnormal results and the edge of overflow.
  for (int i = 0; i < 1000000; ++i) {
    xs.push_back(uniform_in(rng, -745.13, 709.78));
  }
  for (int i = 0; i < 200000; ++i) xs.push_back(uniform_in(rng, -1.0, 1.0));
  for (int i = 0; i < 100000; ++i) {
    xs.push_back(uniform_in(rng, -745.13, -708.0));
  }
  for (int i = 0; i < 100000; ++i) xs.push_back(uniform_in(rng, 708.0, 709.78));
  for (int i = 0; i < 100000; ++i) xs.push_back(uniform_in(rng, -1e-8, 1e-8));
  xs.push_back(0x1.62e42fefa39efp+9);   // largest finite result
  xs.push_back(-0x1.74910d52d3051p+9);  // smallest nonzero result
  xs.push_back(std::numeric_limits<double>::denorm_min());
  double at = 0.0;
  const double worst = max_ulp(
      xs, [](double x) { return mathx::exp(x); },
      [](long double x) { return std::exp(x); }, &at);
  report("exp", worst, at);
  EXPECT_LE(worst, 1.0) << "at x = " << at;
}

/// |x| <= 1e5: random, dense near 0, and the doubles nearest k pi/2 (where
/// the reduction cancels hardest) with their neighbours.
std::vector<double> trig_grid() {
  Xoshiro256 rng(103);
  std::vector<double> xs;
  for (int i = 0; i < 1000000; ++i) xs.push_back(uniform_in(rng, -1e5, 1e5));
  for (int i = 0; i < 300000; ++i) xs.push_back(uniform_in(rng, -8.0, 8.0));
  for (int i = 0; i < 50000; ++i) xs.push_back(uniform_in(rng, -1e-6, 1e-6));
  const long double half_pi = std::numbers::pi_v<long double> / 2;
  for (int k = 1; k <= 63662; ++k) {
    const double near = static_cast<double>(k * half_pi);
    for (double x :
         {near, std::nextafter(near, 0.0), std::nextafter(near, 1e6)}) {
      xs.push_back(x);
      xs.push_back(-x);
    }
  }
  xs.push_back(std::numeric_limits<double>::denorm_min());
  xs.push_back(1e5);
  xs.push_back(-1e5);
  return xs;
}

TEST(Transcendental, SinWithinOneUlp) {
  double at = 0.0;
  const double worst = max_ulp(
      trig_grid(), [](double x) { return mathx::sin(x); },
      [](long double x) { return std::sin(x); }, &at);
  report("sin", worst, at);
  EXPECT_LE(worst, 1.0) << "at x = " << at;
}

TEST(Transcendental, CosWithinOneUlp) {
  double at = 0.0;
  const double worst = max_ulp(
      trig_grid(), [](double x) { return mathx::cos(x); },
      [](long double x) { return std::cos(x); }, &at);
  report("cos", worst, at);
  EXPECT_LE(worst, 1.0) << "at x = " << at;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(Transcendental, SpecialValues) {
  // log
  EXPECT_EQ(mathx::log(0.0), -kInf);
  EXPECT_EQ(mathx::log(-0.0), -kInf);
  EXPECT_EQ(mathx::log(kInf), kInf);
  EXPECT_TRUE(std::isnan(mathx::log(-kInf)));
  EXPECT_TRUE(std::isnan(mathx::log(-1.0)));
  EXPECT_TRUE(
      std::isnan(mathx::log(-std::numeric_limits<double>::denorm_min())));
  EXPECT_TRUE(std::isnan(mathx::log(kNaN)));
  EXPECT_TRUE(same_bits(mathx::log(1.0), 0.0));
  // exp
  EXPECT_TRUE(same_bits(mathx::exp(0.0), 1.0));
  EXPECT_TRUE(same_bits(mathx::exp(-0.0), 1.0));
  EXPECT_EQ(mathx::exp(kInf), kInf);
  EXPECT_TRUE(same_bits(mathx::exp(-kInf), 0.0));
  EXPECT_TRUE(std::isnan(mathx::exp(kNaN)));
  EXPECT_EQ(mathx::exp(709.79), kInf);  // overflow
  EXPECT_EQ(mathx::exp(1e300), kInf);
  EXPECT_TRUE(std::isfinite(mathx::exp(0x1.62e42fefa39efp+9)));
  EXPECT_TRUE(same_bits(mathx::exp(-745.2), 0.0));  // underflow
  EXPECT_TRUE(same_bits(mathx::exp(-1e300), 0.0));
  EXPECT_EQ(mathx::exp(-0x1.74910d52d3051p+9),
            std::numeric_limits<double>::denorm_min());
  // sin / cos
  EXPECT_TRUE(same_bits(mathx::sin(0.0), 0.0));
  EXPECT_TRUE(same_bits(mathx::sin(-0.0), -0.0));
  EXPECT_TRUE(same_bits(mathx::cos(0.0), 1.0));
  EXPECT_TRUE(same_bits(mathx::cos(-0.0), 1.0));
  for (double x : {kInf, -kInf, kNaN}) {
    EXPECT_TRUE(std::isnan(mathx::sin(x))) << x;
    EXPECT_TRUE(std::isnan(mathx::cos(x))) << x;
  }
}

/// Half random bit patterns (NaN, inf, subnormal and out-of-domain inputs
/// included), half the function's working domain.
std::vector<double> identity_inputs(Fn fn) {
  Xoshiro256 rng(200 + static_cast<int>(fn));
  std::vector<double> xs;
  constexpr int kN = 1000000;
  for (int i = 0; i < kN / 2; ++i) xs.push_back(std::bit_cast<double>(rng()));
  for (int i = 0; i < kN / 2; ++i) {
    switch (fn) {
      case Fn::kLog: xs.push_back(uniform01(rng)); break;
      case Fn::kExp: xs.push_back(uniform_in(rng, -750.0, 712.0)); break;
      default: xs.push_back(uniform_in(rng, -1e5, 1e5)); break;
    }
  }
  return xs;
}

void expect_identical(const char* what, const std::vector<double>& xs,
                      const std::vector<double>& ref,
                      const std::vector<double>& got) {
  int bad = 0;
  for (std::size_t i = 0; i < xs.size() && bad < 5; ++i) {
    if (!same_bits(ref[i], got[i])) {
      ++bad;
      ADD_FAILURE() << what << " differs at x = " << std::hexfloat << xs[i]
                    << ": scalar " << ref[i] << ", lanes " << got[i];
    }
  }
}

TEST(Transcendental, LanesMatchScalarBitForBit) {
  for (Fn fn : {Fn::kLog, Fn::kExp, Fn::kSin, Fn::kCos}) {
    const std::vector<double> xs = identity_inputs(fn);
    std::vector<double> ref(xs.size()), got(xs.size());
    testing::apply<ScalarOps>(fn, xs.data(), ref.data(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      // The out-of-line scalar functions are the same instance.
      double y = 0.0;
      switch (fn) {
        case Fn::kLog: y = mathx::log(xs[i]); break;
        case Fn::kExp: y = mathx::exp(xs[i]); break;
        case Fn::kSin: y = mathx::sin(xs[i]); break;
        case Fn::kCos: y = mathx::cos(xs[i]); break;
      }
      if (!same_bits(y, ref[i])) {
        ADD_FAILURE() << "out-of-line scalar differs at " << xs[i];
        break;
      }
    }
#if defined(__SSE2__)
    testing::apply<Sse2Ops>(fn, xs.data(), got.data(), xs.size());
    expect_identical("sse2", xs, ref, got);
#endif
    if (testing::avx2_apply(fn, xs.data(), got.data(), xs.size())) {
      expect_identical("avx2", xs, ref, got);
    }
  }
}

TEST(Transcendental, ExpBatchMatchesScalarOnEveryBackend) {
  const SimdBackend saved = simd_backend();
  const std::vector<double> xs = identity_inputs(Fn::kExp);
  for (SimdBackend b :
       {SimdBackend::kScalar, SimdBackend::kSse2, SimdBackend::kAvx2}) {
    const SimdBackend got = simd_force_backend(b);
    // Lengths that leave every tail size on every lane width.
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{6}, std::size_t{7}, xs.size()}) {
      std::vector<double> y(xs.begin(), xs.begin() + n);
      exp_batch(y);
      for (std::size_t i = 0; i < n; ++i) {
        if (!same_bits(y[i], mathx::exp(xs[i]))) {
          ADD_FAILURE() << simd_backend_name(got) << " n = " << n
                        << " differs at x = " << std::hexfloat << xs[i];
          break;
        }
      }
    }
  }
  simd_force_backend(saved);
}

}  // namespace
}  // namespace csdac::mathx
