#include "mathx/rng.hpp"

#include <cmath>

#include "mathx/simd.hpp"
#include "mathx/transcendental.hpp"

namespace csdac::mathx {

namespace detail {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index) {
  return seed ^ (0x9e3779b97f4a7c15ull * (index + 1));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

double gauss_density(double x) { return mathx::exp(-0.5 * x * x); }

ZigguratTables build_ziggurat_tables() {
  // Marsaglia & Tsang's recurrence: layer i + 1 sits where the layer of
  // width x[i] above f(x[i]) reaches area v.
  ZigguratTables t;
  t.x[1] = kZigguratR;
  t.x[0] = kZigguratV / gauss_density(kZigguratR);
  for (int i = 2; i < 256; ++i) {
    t.x[i] = std::sqrt(-2.0 * mathx::log(kZigguratV / t.x[i - 1] +
                                         gauss_density(t.x[i - 1])));
  }
  t.x[256] = 0.0;
  for (int i = 0; i <= 256; ++i) t.f[i] = gauss_density(t.x[i]);
  return t;
}

}  // namespace

const ZigguratTables& ziggurat_tables() {
  static const ZigguratTables t = build_ziggurat_tables();
  return t;
}

double normal_slow(std::uint64_t w, Xoshiro256& rng) {
  const ZigguratTables& t = ziggurat_tables();
  for (;;) {
    const auto i = static_cast<unsigned>(w & 0xff);
    const bool negative = (w & 0x100) != 0;
    if (i == 0) {
      // Beyond r: Marsaglia's tail method.
      double x, y;
      do {
        x = -mathx::log(1.0 - uniform01(rng)) / kZigguratR;
        y = -mathx::log(1.0 - uniform01(rng));
      } while (y + y < x * x);
      const double z = kZigguratR + x;
      return negative ? -z : z;
    }
    // In layer i's wedge: accept under f, else draw afresh.
    bool inside;
    const double z = ziggurat_fast<ScalarOps>(t, w, &w, inside);
    const double y = t.f[i + 1] + (t.f[i] - t.f[i + 1]) * uniform01(rng);
    if (y < gauss_density(z)) return z;
    w = rng();
    const double next = ziggurat_fast<ScalarOps>(t, w, &w, inside);
    if (inside) return next;
  }
}

}  // namespace detail

namespace {

using detail::splitmix64;

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) { this->seed(seed); }

void Xoshiro256::seed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Xoshiro256::result_type Xoshiro256::operator()() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256::jump() {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull, 0xa9582618e03fc9aaull,
      0x39abdc4529b1661cull};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ull << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      (*this)();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

double uniform01(Xoshiro256& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

double uniform(Xoshiro256& rng, double lo, double hi) {
  return lo + (hi - lo) * uniform01(rng);
}

double normal(Xoshiro256& rng) {
  const std::uint64_t w = rng();
  bool inside;
  const double z = detail::ziggurat_fast<ScalarOps>(detail::ziggurat_tables(),
                                                     w, &w, inside);
  return inside ? z : detail::normal_slow(w, rng);
}

double normal(Xoshiro256& rng, double mean, double sigma) {
  return mean + sigma * normal(rng);
}

std::uint64_t uniform_index(Xoshiro256& rng, std::uint64_t n) {
  if (n == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ull) - ((~0ull) % n);
  for (;;) {
    const std::uint64_t r = rng();
    if (r < limit || limit == 0) return r % n;
  }
}

Xoshiro256 stream_rng(std::uint64_t seed, std::uint64_t index) {
  return Xoshiro256(detail::stream_seed(seed, index));
}

void stream_rng_into(Xoshiro256& rng, std::uint64_t seed,
                     std::uint64_t index) {
  rng.seed(detail::stream_seed(seed, index));
}

}  // namespace csdac::mathx
