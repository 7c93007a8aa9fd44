// Regenerates the checked-in golden INL/DNL vectors guarding
// analyze_transfer and the chip-draw RNG path against refactor drift:
//   build/tools/csdac_gen_golden_static      > tests/dac/golden_static_8bit.inc
//   build/tools/csdac_gen_golden_static 12   > tests/dac/golden_static_12bit.inc
//   build/tools/csdac_gen_golden_static rare > tests/dac/golden_rare_8bit.inc
//   build/tools/csdac_gen_golden_static kinds
//       > tests/runtime/golden_kinds.inc
// The 12-bit output is strided (every 16th code) so the .inc stays small
// while still pinning the paper's design point; the maxima are exact.
// The "rare" output pins the rare-event yield estimators (importance
// sampling, stratified+antithetic, bridge surrogate) on a fixed-seed
// 8-bit case: a changed mode tilt, stream order or reduction order shows
// up as a golden diff, not as a silent statistics shift.
// The "kinds" output pins, for one small job of every job kind
// (tests/runtime/golden_kind_jobs.hpp), the cache key, the encoded
// result bytes (length and hash) and the reply JSON: a refactor of the
// key, the cache codec or the reply emitter must leave it unchanged.
// Run it only when the RNG derivation or the DAC model changes
// INTENTIONALLY, and say so in the commit.
#include <cstdio>
#include <cstring>

#include "bench_json.hpp"
#include "dac/rare_event.hpp"
#include "dac/static_analysis.hpp"
#include "mathx/rare_event.hpp"
#include "mathx/rng.hpp"
#include "runtime/golden_kind_jobs.hpp"
#include "serve/response.hpp"

using namespace csdac;

namespace {

void emit(const char* name, const std::vector<double>& v) {
  std::printf("inline constexpr double %s[%zu] = {\n", name, v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("    %.17g,\n", v[i]);
  }
  std::printf("};\n\n");
}

std::vector<double> strided(const std::vector<double>& v, std::size_t step) {
  std::vector<double> out;
  for (std::size_t i = 0; i < v.size(); i += step) out.push_back(v[i]);
  return out;
}

int emit_8bit() {
  constexpr std::uint64_t kSeed = 8811;
  constexpr double kSigmaUnit = 0.01;
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;
  mathx::Xoshiro256 rng = mathx::stream_rng(kSeed, 0);
  const dac::SegmentedDac chip(
      spec, dac::draw_source_errors(spec, kSigmaUnit, rng));
  const std::vector<double> levels = chip.transfer();
  const auto best = dac::analyze_transfer(levels, dac::InlReference::kBestFit);
  const auto endp = dac::analyze_transfer(levels, dac::InlReference::kEndpoint);

  std::printf(
      "// GENERATED by tools/gen_golden_static.cpp — do not edit by hand.\n"
      "// Fixed-seed 8-bit (b = 3) transfer: chip stream_rng(%llu, 0),\n"
      "// sigma_unit = %g. Tolerance in the test: 1e-12.\n\n",
      static_cast<unsigned long long>(kSeed), kSigmaUnit);
  emit("kGoldenLevels", levels);
  emit("kGoldenInlBestFit", best.inl);
  emit("kGoldenDnlBestFit", best.dnl);
  emit("kGoldenInlEndpoint", endp.inl);
  std::printf("inline constexpr double kGoldenInlMaxBestFit = %.17g;\n",
              best.inl_max);
  std::printf("inline constexpr double kGoldenDnlMaxBestFit = %.17g;\n",
              best.dnl_max);
  std::printf("inline constexpr double kGoldenInlMaxEndpoint = %.17g;\n",
              endp.inl_max);
  return 0;
}

int emit_12bit() {
  constexpr std::uint64_t kSeed = 1212;
  constexpr double kSigmaUnit = 0.0026;
  constexpr std::size_t kStride = 16;
  const core::DacSpec spec;  // the paper's 12-bit, b = 4 design point
  mathx::Xoshiro256 rng = mathx::stream_rng(kSeed, 0);
  const dac::SegmentedDac chip(
      spec, dac::draw_source_errors(spec, kSigmaUnit, rng));
  const std::vector<double> levels = chip.transfer();
  const auto best = dac::analyze_transfer(levels, dac::InlReference::kBestFit);
  const auto endp = dac::analyze_transfer(levels, dac::InlReference::kEndpoint);

  std::printf(
      "// GENERATED by tools/gen_golden_static.cpp — do not edit by hand.\n"
      "// Fixed-seed 12-bit (b = 4) transfer at the paper's design point:\n"
      "// chip stream_rng(%llu, 0), sigma_unit = %g. Vectors sampled every\n"
      "// %zuth code; maxima over ALL codes. Tolerance in the test: 1e-12.\n\n",
      static_cast<unsigned long long>(kSeed), kSigmaUnit, kStride);
  std::printf("inline constexpr std::size_t kGolden12Stride = %zu;\n\n",
              kStride);
  emit("kGolden12Levels", strided(levels, kStride));
  emit("kGolden12InlBestFit", strided(best.inl, kStride));
  emit("kGolden12DnlBestFit", strided(best.dnl, kStride));
  emit("kGolden12InlEndpoint", strided(endp.inl, kStride));
  std::printf("inline constexpr double kGolden12InlMaxBestFit = %.17g;\n",
              best.inl_max);
  std::printf("inline constexpr double kGolden12DnlMaxBestFit = %.17g;\n",
              best.dnl_max);
  std::printf("inline constexpr double kGolden12InlMaxEndpoint = %.17g;\n",
              endp.inl_max);
  std::printf("inline constexpr double kGolden12DnlMaxEndpoint = %.17g;\n",
              endp.dnl_max);
  return 0;
}

int emit_rare() {
  constexpr std::uint64_t kSeed = 4242;
  constexpr double kSigmaUnit = 0.0259427;  // mid-yield 8-bit operating point
  constexpr int kChips = 2000;
  constexpr double kSigmaScale = 2.2;
  constexpr int kModes = 8;
  constexpr int kStrata = 8;
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;

  const auto is =
      dac::inl_yield_is(spec, kSigmaUnit, kSigmaScale, kModes, kChips, kSeed,
                        0.5, dac::InlReference::kBestFit, 1);
  const auto strat = dac::inl_yield_stratified(
      spec, kSigmaUnit, kStrata, kChips, kSeed, 0.5,
      dac::InlReference::kBestFit, 1);
  const auto bridge = dac::inl_yield_bridge(spec, kSigmaUnit, 0.5);

  std::printf(
      "// GENERATED by tools/gen_golden_static.cpp — do not edit by hand.\n"
      "// Fixed-seed 8-bit (b = 3) rare-event estimator outputs:\n"
      "// seed %llu, sigma_unit = %g, %d chips, IS tilt g = %g over %d\n"
      "// modes, %d strata. Tolerance in the test: 1e-12, any thread\n"
      "// count, any SIMD backend.\n\n",
      static_cast<unsigned long long>(kSeed), kSigmaUnit, kChips, kSigmaScale,
      kModes, kStrata);
  std::printf("inline constexpr std::uint64_t kGoldenRareSeed = %llu;\n",
              static_cast<unsigned long long>(kSeed));
  std::printf("inline constexpr double kGoldenRareSigmaUnit = %.17g;\n",
              kSigmaUnit);
  std::printf("inline constexpr int kGoldenRareChips = %d;\n", kChips);
  std::printf("inline constexpr double kGoldenRareSigmaScale = %.17g;\n",
              kSigmaScale);
  std::printf("inline constexpr int kGoldenRareModes = %d;\n", kModes);
  std::printf("inline constexpr int kGoldenRareStrata = %d;\n\n", kStrata);
  std::printf("inline constexpr long long kGoldenRareIsFails = %lld;\n",
              static_cast<long long>(is.fails));
  std::printf("inline constexpr double kGoldenRareIsYield = %.17g;\n",
              is.yield);
  std::printf("inline constexpr double kGoldenRareIsCi95 = %.17g;\n",
              is.ci95);
  std::printf("inline constexpr double kGoldenRareIsEss = %.17g;\n", is.ess);
  std::printf("inline constexpr double kGoldenRareIsLogWMax = %.17g;\n",
              is.log_weight_max);
  std::printf("inline constexpr double kGoldenRareIsLogWMin = %.17g;\n\n",
              is.log_weight_min);
  std::printf("inline constexpr long long kGoldenRareStratPairs = %lld;\n",
              static_cast<long long>(strat.pairs));
  std::printf("inline constexpr double kGoldenRareStratYield = %.17g;\n",
              strat.yield);
  std::printf("inline constexpr double kGoldenRareStratCi95 = %.17g;\n\n",
              strat.ci95);
  std::printf("inline constexpr double kGoldenRareBridgeYield = %.17g;\n",
              bridge.yield);
  std::printf("inline constexpr double kGoldenRareBridgeC = %.17g;\n",
              bridge.c);
  std::printf("inline constexpr double kGoldenRareBridgeSigmaInl = %.17g;\n",
              bridge.sigma_inl);
  std::printf("inline constexpr double kGoldenRareC9999 = %.17g;\n",
              mathx::kolmogorov_quantile(0.9999));
  return 0;
}

int emit_kinds() {
  std::printf(
      "// GENERATED by tools/gen_golden_static.cpp — do not edit by hand.\n"
      "// Per job of tests/runtime/golden_kind_jobs.hpp: name, job_key hex,\n"
      "// encode_value length and hash128 hex, emit_result JSON.\n\n"
      "inline constexpr csdac::golden::GoldenKind kGoldenKinds[] = {\n");
  for (const auto& [name, job] : golden::golden_kind_jobs()) {
    const runtime::JobValue value = runtime::execute_job(job, 1, nullptr);
    mathx::ByteWriter bytes;
    runtime::encode_value(value, bytes);
    bench::JsonWriter json;
    json.begin_object();
    serve::emit_result(json, value);
    json.end_object();
    std::printf("    {\"%s\", \"%s\", %zu, \"%s\",\n     R\"json(%s)json\"},\n",
                name.c_str(), runtime::job_key(job).hex().c_str(),
                bytes.size(), bytes.hash().hex().c_str(), json.str().c_str());
  }
  std::printf("};\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "12") == 0) return emit_12bit();
  if (argc > 1 && std::strcmp(argv[1], "rare") == 0) return emit_rare();
  if (argc > 1 && std::strcmp(argv[1], "kinds") == 0) return emit_kinds();
  if (argc > 1) {
    std::fprintf(stderr, "usage: gen_golden_static [12|rare|kinds]\n");
    return 2;
  }
  return emit_8bit();
}
