#include "mathx/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.hpp"

namespace csdac::mathx {

namespace {

// Cached dispatch choice, encoded as int(backend) + 1 (0 = not resolved).
std::atomic<int> g_backend{0};

SimdBackend detect_impl() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) return SimdBackend::kAvx2;
  if (__builtin_cpu_supports("sse2")) return SimdBackend::kSse2;
  return SimdBackend::kScalar;
#else
  return SimdBackend::kScalar;
#endif
}

/// CSDAC_SIMD parse: scalar|sse2|avx2|auto (unset/empty/auto -> detection;
/// unrecognized values warn and fall back to detection).
SimdBackend resolve_backend() {
  const SimdBackend detected = detect_impl();
  const char* env = std::getenv("CSDAC_SIMD");
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "auto") == 0) {
    return detected;
  }
  SimdBackend want;
  if (std::strcmp(env, "scalar") == 0) {
    want = SimdBackend::kScalar;
  } else if (std::strcmp(env, "sse2") == 0) {
    want = SimdBackend::kSse2;
  } else if (std::strcmp(env, "avx2") == 0) {
    want = SimdBackend::kAvx2;
  } else {
    std::fprintf(stderr,
                 "csdac: unrecognized CSDAC_SIMD=%s (want scalar|sse2|avx2|"
                 "auto); using %s\n",
                 env, simd_backend_name(detected));
    return detected;
  }
  if (want > detected) {
    std::fprintf(stderr,
                 "csdac: CSDAC_SIMD=%s not supported by this CPU; using %s\n",
                 env, simd_backend_name(detected));
    return detected;
  }
  return want;
}

}  // namespace

const char* simd_backend_name(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar:
      return "scalar";
    case SimdBackend::kSse2:
      return "sse2";
    case SimdBackend::kAvx2:
      return "avx2";
  }
  return "scalar";
}

int simd_lane_width(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar:
      return 1;
    case SimdBackend::kSse2:
      return 2;
    case SimdBackend::kAvx2:
      return 4;
  }
  return 1;
}

SimdBackend simd_detect() {
  static const SimdBackend detected = detect_impl();
  return detected;
}

SimdBackend simd_backend() {
  int cached = g_backend.load(std::memory_order_acquire);
  if (cached == 0) {
    const SimdBackend resolved = resolve_backend();
    cached = static_cast<int>(resolved) + 1;
    int expected = 0;
    // First resolver wins; a concurrent loser adopts the winner's choice
    // (both computed the same value anyway — resolve_backend is pure given
    // a fixed environment).
    if (!g_backend.compare_exchange_strong(expected, cached,
                                           std::memory_order_acq_rel)) {
      cached = expected;
    }
  }
  return static_cast<SimdBackend>(cached - 1);
}

SimdBackend simd_force_backend(SimdBackend backend) {
  if (backend > simd_detect()) backend = simd_detect();
  g_backend.store(static_cast<int>(backend) + 1, std::memory_order_release);
  return backend;
}

void record_dispatch(SimdBackend backend) {
  static obs::Counter* const dispatch[kSimdBackends] = {
      &obs::Registry::global().counter(
          "simd.dispatch.scalar",
          "kernel runs dispatched to the scalar instance"),
      &obs::Registry::global().counter(
          "simd.dispatch.sse2", "kernel runs dispatched to the SSE2 instance"),
      &obs::Registry::global().counter(
          "simd.dispatch.avx2", "kernel runs dispatched to the AVX2 instance"),
  };
  dispatch[static_cast<int>(backend)]->add(1);
}

}  // namespace csdac::mathx
