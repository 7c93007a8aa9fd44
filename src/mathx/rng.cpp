#include "mathx/rng.hpp"

#include <cmath>

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
  // Marsaglia polar method, discarding the second deviate for determinism.
  for (;;) {
    const double u = 2.0 * uniform01(rng) - 1.0;
    const double v = 2.0 * uniform01(rng) - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * mathx::log(s) / s);
    }
  }
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
