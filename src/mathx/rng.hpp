// Deterministic, platform-independent random number generation for
// Monte-Carlo mismatch analysis: xoshiro256++ seeded through SplitMix64,
// with ziggurat Gaussian draws (std::normal_distribution is not
// reproducible across standard library implementations).
#pragma once

#include <cstdint>

namespace csdac::mathx {

template <class Ops>
class Xoshiro256xN;

/// xoshiro256++ PRNG (Blackman & Vigna). Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Re-seeds in place (same state as constructing with `seed`). Lets a
  /// long-lived generator — e.g. one living in a per-thread Monte-Carlo
  /// workspace — be re-pointed at a new stream without a new object.
  void seed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()();

  /// Jump ahead by 2^128 draws: gives independent parallel streams.
  void jump();

 private:
  // The lane-parallel generator hands one lane's state to a scalar draw
  // and takes it back (Xoshiro256xN::store_lane / load_lane).
  template <class Ops>
  friend class Xoshiro256xN;
  struct Unseeded {};
  explicit Xoshiro256(Unseeded) {}

  std::uint64_t s_[4];
};

/// Uniform double in [0, 1) with 53-bit resolution.
double uniform01(Xoshiro256& rng);

/// Uniform double in [lo, hi).
double uniform(Xoshiro256& rng, double lo, double hi);

/// Standard normal draw: the 256-layer Marsaglia-Tsang ziggurat of
/// simd.hpp at width 1 (normal_batch_xN runs it on lanes). Stateless: a
/// draw consumes one raw word unless it falls in a wedge or the tail.
double normal(Xoshiro256& rng);

/// Normal draw with given mean and standard deviation.
double normal(Xoshiro256& rng, double mean, double sigma);

/// Uniform integer in [0, n).
std::uint64_t uniform_index(Xoshiro256& rng, std::uint64_t n);

/// Independent, reproducible substream for item `index` of a run seeded
/// with `seed`: the index is folded into the seed through the golden-ratio
/// multiplier the SplitMix64 seeding itself uses. This is THE per-item
/// stream derivation of the parallel Monte-Carlo engine — every consumer
/// (per-chip mismatch draws, annealing restarts, ...) uses it so results
/// are bit-identical for any thread count.
Xoshiro256 stream_rng(std::uint64_t seed, std::uint64_t index);

/// In-place stream_rng: re-seeds `rng` to the (seed, index) substream.
/// Bit-identical to `rng = stream_rng(seed, index)`; the form the
/// allocation-free workspace kernels use to reuse one generator per thread.
void stream_rng_into(Xoshiro256& rng, std::uint64_t seed,
                     std::uint64_t index);

namespace detail {

/// The SplitMix64 step Xoshiro256::seed uses to expand a 64-bit seed into
/// the four state words. Exposed so the lane-parallel Xoshiro256xN (see
/// simd.hpp) can seed each lane with the exact same expansion.
std::uint64_t splitmix64(std::uint64_t& state);

/// The (seed, index) -> substream-seed fold of stream_rng, shared with the
/// per-lane seeding of Xoshiro256xN. Out-of-line (like splitmix64) so the
/// per-ISA kernel translation units never emit their own copy.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace detail

}  // namespace csdac::mathx
