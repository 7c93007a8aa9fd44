// Gate harness: runs the four benches that carry a paper-level CI gate
// and writes BENCH_mc.json (schema "csdac-bench/9", documented in
// EXPERIMENTS.md). Per-kernel throughput and cache-tier timings live in
// perfbench's per-layer probes; this harness keeps only what it gates.
//
//   rare_inl_yield_9999   the paper's 12-bit, b = 4 array at a sigma the
//                         bridge surrogate calibrates to 99.99 % INL
//                         yield, measured by brute-force MC, importance
//                         sampling and stratified+antithetic sampling,
//                         each with "chips_to_ci" (chips for a 50 %
//                         relative 95 % CI) and the "is_chip_reduction"
//                         variance ratio. Each path's chips/s is the best
//                         of "repeats" identical runs. FATAL if IS sees
//                         no tail or has a low ESS, disagrees with the
//                         bridge beyond 10x its CI, or a repeat changes a
//                         result.
//   arch_compare_10bit    the architecture table (binary, segmented
//                         splits, optimized weightings) with INL yield,
//                         timing-limited SFDR, ETE prediction and
//                         switching activity side by side.
//   spice_mna_12bit       one DC solve of the full 12-bit transistor-level
//                         array under the dense and the sparse solver
//                         ("spice_speedup"); FATAL if the two solutions
//                         differ by more than 1e-9.
//   spice_mc_warmstart    the SPICE mismatch MC cold vs corner-to-corner
//                         warm-started ("warm_iter_reduction" Newton-
//                         iteration ratio); FATAL if warm starting changes
//                         the verdict.
//
// The document also records the active SIMD dispatch ("simd_backend",
// "simd_lanes") and the end-of-run metrics-registry snapshot ("metrics").
//
//   run_benches [--smoke] [--out PATH] [--threads N]
//               [--require-rare-reduction X] [--require-spice-speedup X]
//
// --smoke shrinks the chip budgets for CI. --require-rare-reduction X
// gates on is_chip_reduction >= X; it is a variance ratio, stable on
// shared runners. --require-spice-speedup X gates on spice_speedup >= X
// AND warm_iter_reduction > 1; the dense/sparse ratio compares two
// single-threaded runs of the same process, so it is stable enough for CI
// despite being a timing. tools/check_bench_json.py --compare diffs the
// three rare paths' chips/s against a committed baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>

#include <cmath>

#include "arch/weighting.hpp"
#include "bench_json.hpp"
#include "core/sizer.hpp"
#include "dacgen/dacgen.hpp"
#include "dacgen/spice_mc.hpp"
#include "spice/solver.hpp"
#include "tech/tech.hpp"
#include "dac/rare_event.hpp"
#include "dac/static_analysis.hpp"
#include "mathx/rare_event.hpp"
#include "mathx/simd.hpp"
#include "obs/metrics.hpp"
#include "runtime/job.hpp"

using namespace csdac;

namespace {

std::string detect_git_sha() {
  if (FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    const std::size_t got = fread(buf, 1, sizeof(buf) - 1, p);
    pclose(p);
    std::string sha(buf, got);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
      sha.pop_back();
    }
    if (sha.size() >= 7) return sha;
  }
  if (const char* env = std::getenv("GITHUB_SHA")) return env;
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int threads = 0;  // hardware concurrency
  double require_rare_reduction = 0.0;
  double require_spice_speedup = 0.0;
  std::string out_path = "BENCH_mc.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc) {
      out_path = argv[++a];
    } else if (std::strcmp(argv[a], "--threads") == 0 && a + 1 < argc) {
      threads = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--require-rare-reduction") == 0 &&
               a + 1 < argc) {
      require_rare_reduction = std::atof(argv[++a]);
    } else if (std::strcmp(argv[a], "--require-spice-speedup") == 0 &&
               a + 1 < argc) {
      require_spice_speedup = std::atof(argv[++a]);
    } else {
      std::fprintf(stderr,
                   "usage: run_benches [--smoke] [--out PATH] [--threads N] "
                   "[--require-rare-reduction X] "
                   "[--require-spice-speedup X]\n");
      return 2;
    }
  }

  core::DacSpec spec;  // paper's 12-bit, b = 4 design point
  const std::uint64_t seed = 1000;

  bench::JsonWriter w;
  w.begin_object();
  const mathx::SimdBackend simd_backend = mathx::simd_backend();
  w.field("schema", "csdac-bench/9");
  w.field("git_sha", detect_git_sha().c_str());
  w.field("generated_unix", static_cast<std::int64_t>(std::time(nullptr)));
  w.field("smoke", smoke);
  w.field("threads", threads);
  w.field("hardware_threads",
          static_cast<int>(std::thread::hardware_concurrency()));
  w.field("simd_backend", mathx::simd_backend_name(simd_backend));
  w.field("simd_lanes", mathx::simd_lane_width(simd_backend));
  w.key("benches").begin_array();

  // --- Rare-event estimators at the 99.99%-yield tail -------------------
  // Sigma is chosen FROM the bridge surrogate so the true failure
  // probability is ~1e-4 by construction: brute-force MC at this budget
  // sees a handful of failures at best, while the tilted IS proposal
  // fails constantly and reweights back. The headline number is the
  // variance ratio = how many times fewer chips IS needs for the same CI.
  double rare_reduction = 0.0;
  {
    const int rare_chips = smoke ? 4000 : 20000;
    const std::uint64_t rare_seed = 7;
    const double sigma_scale = 2.2;
    const int modes = 8;
    const int strata = 16;
    const double c9999 = mathx::kolmogorov_quantile(0.9999);
    const double rare_sigma =
        0.5 / (c9999 * std::sqrt(spec.unary_weight() *
                                 static_cast<double>(spec.num_unary())));
    std::printf("rare_inl_yield_9999: %d chips, sigma = %.4f%% "
                "(bridge-calibrated 99.99%% yield) ...\n",
                rare_chips, rare_sigma * 100);

    // One smoke window (4000 chips, 10-30 ms) spreads ~1.5x run to run on
    // a shared host, too wide for the compare's 0.5 tolerance to see a 2x
    // slowdown; the fastest of several identical runs is far steadier.
    const int repeats = 7;
    bool repeat_mismatch = false;
    const auto best_of = [&](const auto& run) {
      auto best = run();
      for (int r = 1; r < repeats; ++r) {
        const auto again = run();
        repeat_mismatch |= again.yield != best.yield;
        if (again.stats.wall_seconds < best.stats.wall_seconds) {
          best.stats = again.stats;
        }
      }
      return best;
    };
    const auto bf = best_of([&] {
      return dac::inl_yield_mc(spec, rare_sigma, rare_chips, rare_seed, 0.5,
                               dac::InlReference::kEndpoint, threads);
    });
    const auto is = best_of([&] {
      return dac::inl_yield_is(spec, rare_sigma, sigma_scale, modes,
                               rare_chips, rare_seed, 0.5,
                               dac::InlReference::kEndpoint, threads);
    });
    const auto strat = best_of([&] {
      return dac::inl_yield_stratified(spec, rare_sigma, strata, rare_chips,
                                       rare_seed, 0.5,
                                       dac::InlReference::kEndpoint, threads);
    });
    const auto bridge = dac::inl_yield_bridge(spec, rare_sigma, 0.5);

    if (repeat_mismatch) {
      std::fprintf(stderr, "FATAL: a repeated rare-event run changed its "
                           "yield — the estimators are not deterministic\n");
      return 1;
    }

    if (is.fails == 0 || is.low_ess) {
      std::fprintf(stderr,
                   "FATAL: IS proposal saw no tail (fails=%lld, low_ess=%d) "
                   "— the tilt is miscalibrated\n",
                   static_cast<long long>(is.fails), is.low_ess);
      return 1;
    }
    const double p = 1.0 - is.yield;  // best available tail estimate
    const double p_bridge = 1.0 - bridge.yield;
    if (!(p > 0.0)) {
      std::fprintf(stderr, "FATAL: IS failure probability is not positive\n");
      return 1;
    }
    if (std::fabs(p - p_bridge) > 10.0 * is.ci95 + 2e-5) {
      std::fprintf(stderr,
                   "FATAL: IS tail %.3e disagrees with bridge surrogate "
                   "%.3e beyond 10x CI — estimator bug, not noise\n",
                   p, p_bridge);
      return 1;
    }

    // Per-chip variance of each estimator, from its measured CI; chips
    // needed to pin p to a 50% relative 95% CI (half-width p/2).
    const double z95 = 1.959963984540054;
    const double h = p / 2.0;
    const double var_bf = p * (1.0 - p);  // Bernoulli, exact
    const double var_is =
        (is.ci95 / z95) * (is.ci95 / z95) * static_cast<double>(is.chips);
    const double var_strat = (strat.ci95 / z95) * (strat.ci95 / z95) *
                             static_cast<double>(strat.chips);
    const auto chips_to_ci = [&](double var) {
      return var > 0.0 ? z95 * z95 * var / (h * h) : 0.0;
    };
    rare_reduction = var_is > 0.0 ? var_bf / var_is : 0.0;
    const double strat_reduction = var_strat > 0.0 ? var_bf / var_strat : 0.0;
    std::printf("  p_fail: is %.3e (ci %.1e, ess %.0f/%lld), strat %.3e, "
                "bridge %.3e, brute-force saw %lld/%lld\n",
                p, is.ci95, is.ess, static_cast<long long>(is.chips),
                1.0 - strat.yield, p_bridge,
                static_cast<long long>(bf.chips - bf.pass),
                static_cast<long long>(bf.chips));
    std::printf("  chips to 50%% CI: brute-force %.0f, is %.0f, strat %.0f "
                "-> IS reduction %.0fx\n",
                chips_to_ci(var_bf), chips_to_ci(var_is),
                chips_to_ci(var_strat), rare_reduction);

    w.begin_object();
    w.field("name", "rare_inl_yield_9999");
    w.key("config").begin_object();
    w.field("nbits", spec.nbits);
    w.field("binary_bits", spec.binary_bits);
    w.field("sigma_unit", rare_sigma);
    w.field("target_yield", 0.9999);
    w.field("chips", rare_chips);
    w.field("repeats", repeats);
    w.field("seed", static_cast<std::int64_t>(rare_seed));
    w.field("sigma_scale", sigma_scale);
    w.field("modes", modes);
    w.field("strata", strata);
    w.field("inl_limit", 0.5);
    w.field("ref", "endpoint");
    w.end_object();
    w.key("bruteforce").begin_object();
    w.field("chips", bf.chips);
    w.field("fails", static_cast<std::int64_t>(bf.chips - bf.pass));
    w.field("yield", bf.yield);
    w.field("ci95", bf.ci95);
    w.field("chips_per_s", bf.stats.items_per_second);
    w.field("wall_s", bf.stats.wall_seconds);
    w.field("chips_to_ci", chips_to_ci(var_bf));
    w.end_object();
    w.key("is").begin_object();
    w.field("chips", is.chips);
    w.field("fails", is.fails);
    w.field("yield", is.yield);
    w.field("ci95", is.ci95);
    w.field("ess", is.ess);
    w.field("ess_fraction", is.ess_fraction);
    w.field("log_weight_max", is.log_weight_max);
    w.field("log_weight_min", is.log_weight_min);
    w.field("low_ess", is.low_ess);
    w.field("chips_per_s", is.stats.items_per_second);
    w.field("wall_s", is.stats.wall_seconds);
    w.field("chips_to_ci", chips_to_ci(var_is));
    w.end_object();
    w.key("stratified").begin_object();
    w.field("chips", strat.chips);
    w.field("pairs", strat.pairs);
    w.field("strata", static_cast<std::int64_t>(strat.strata));
    w.field("yield", strat.yield);
    w.field("ci95", strat.ci95);
    w.field("chips_per_s", strat.stats.items_per_second);
    w.field("wall_s", strat.stats.wall_seconds);
    w.field("chips_to_ci", chips_to_ci(var_strat));
    w.end_object();
    w.key("bridge").begin_object();
    w.field("yield", bridge.yield);
    w.field("c", bridge.c);
    w.field("sigma_inl", bridge.sigma_inl);
    w.field("chips_to_ci", 0.0);  // closed form: no chips at all
    w.end_object();
    w.field("is_chip_reduction", rare_reduction);
    w.field("strat_chip_reduction", strat_reduction);
    w.end_object();
  }

  // --- Dynamic-error architecture engine --------------------------------
  // A 10-bit array keeps the weighting search and the oversampled
  // waveform synthesis affordable (the 12-bit optimizer alone runs tens
  // of seconds); the mechanisms exercised are identical.
  {
    core::DacSpec arch_spec;
    arch_spec.nbits = 10;
    arch_spec.binary_bits = 3;

    runtime::ArchCompareJob cmp;
    cmp.spec = arch_spec;
    cmp.sigma_unit = 0.02;
    cmp.timing.sigma_t = 60e-12;
    cmp.timing.oversample = smoke ? 8 : 16;
    cmp.n_samples = 256;
    cmp.cycles = 21;
    cmp.chips = smoke ? 200 : 1000;
    cmp.dyn_chips = smoke ? 2 : 4;
    cmp.seed = seed;
    cmp.seg_lo = 2;
    cmp.seg_hi = smoke ? 4 : 6;
    // Small explicit cell budget in smoke mode: the weighting search is
    // quadratic in the budget and smoke must stay in CI time.
    cmp.opt_cells = smoke ? 20 : 0;
    std::printf("arch_compare_10bit: %d INL chips, %d timing chips per "
                "architecture ...\n",
                cmp.chips, cmp.dyn_chips);
    mathx::RunStats cmp_stats;
    const auto cmp_value = runtime::execute_job(cmp, threads, &cmp_stats);
    const auto& table = std::get<runtime::ArchCompareResult>(cmp_value);
    for (const auto& p : table.points) {
      std::printf("  %-9s param %3d: %4d cells, inl yield %.3f, sfdr "
                  "%.1f dB (ete %.1f), activity %.3g\n",
                  std::string(arch::weighting_name(
                                  static_cast<arch::WeightingKind>(p.scheme)))
                      .c_str(),
                  p.param, p.cells, p.inl_yield, p.sfdr_db, p.ete_sfdr_db,
                  p.activity);
    }

    w.begin_object();
    w.field("name", "arch_compare_10bit");
    w.key("config").begin_object();
    w.field("nbits", arch_spec.nbits);
    w.field("binary_bits", arch_spec.binary_bits);
    w.field("sigma_unit", cmp.sigma_unit);
    w.field("sigma_t", cmp.timing.sigma_t);
    w.field("chips", cmp.chips);
    w.field("dyn_chips", cmp.dyn_chips);
    w.field("seed", static_cast<std::int64_t>(cmp.seed));
    w.field("seg_lo", cmp.seg_lo);
    w.field("seg_hi", cmp.seg_hi);
    w.field("opt_cells", cmp.opt_cells);
    w.end_object();
    w.field("wall_s", cmp_stats.wall_seconds);
    w.key("architectures").begin_array();
    for (const auto& p : table.points) {
      w.begin_object();
      w.field("scheme", arch::weighting_name(
                            static_cast<arch::WeightingKind>(p.scheme)));
      w.field("param", static_cast<std::int64_t>(p.param));
      w.field("cells", static_cast<std::int64_t>(p.cells));
      w.field("inl_yield", p.inl_yield);
      w.field("inl_ci95", p.inl_ci95);
      w.field("sfdr_db", p.sfdr_db);
      w.field("ete_sfdr_db", p.ete_sfdr_db);
      w.field("activity", p.activity);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  // --- Sparse MNA engine on the full transistor-level array -------------
  // Always at the paper's full 12-bit node count, even in smoke: one dense
  // DC solve is ~50 ms, and the dense/sparse ratio is the acceptance
  // number for the sparse engine, so shrinking the array would measure
  // the wrong thing.
  double spice_speedup = 0.0;
  double warm_iter_reduction = 0.0;
  {
    const tech::MosTechParams& mos_tech = tech::generic_035um().nmos;
    core::DacSpec spice_spec;  // 12-bit, b = 4
    const core::CellSizer spice_sizer(mos_tech, spice_spec);
    const core::SizedCell spice_cell =
        spice_sizer.size_cascode(0.25, 0.2, 0.2);
    const dacgen::TransistorLevelDac tdac(spice_spec, spice_cell, mos_tech);
    auto bc = tdac.build((1 << spice_spec.nbits) / 2);
    const int n = bc.circuit->num_unknowns();
    std::printf("spice_mna_12bit: %d unknowns, dense vs sparse DC solve "
                "...\n",
                n);

    const auto now_s = [] {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
    // Several reps each: the sparse engine pays its symbolic factorization
    // on the first solve and replays it afterwards, which is its MC
    // steady state.
    const int spice_reps = smoke ? 3 : 6;
    spice::SolveStats dstats, sstats;
    spice::SolverContext dctx, sctx;
    spice::NewtonOptions dopts;
    dopts.solver = spice::LinearSolverKind::kDense;
    dopts.context = &dctx;
    dopts.stats = &dstats;
    spice::NewtonOptions sopts;
    sopts.solver = spice::LinearSolverKind::kSparse;
    sopts.context = &sctx;
    sopts.stats = &sstats;
    const double d0 = now_s();
    for (int r = 0; r < spice_reps; ++r) (void)spice::solve_dc(*bc.circuit, dopts);
    const double dense_s = (now_s() - d0) / spice_reps;
    const double s0 = now_s();
    for (int r = 0; r < spice_reps; ++r) (void)spice::solve_dc(*bc.circuit, sopts);
    const double sparse_s = (now_s() - s0) / spice_reps;

    const auto xd = spice::solve_dc(*bc.circuit, dopts);
    const auto xs = spice::solve_dc(*bc.circuit, sopts);
    double max_dx = 0.0;
    for (std::size_t i = 0; i < xd.x.size(); ++i) {
      max_dx = std::max(max_dx, std::fabs(xd.x[i] - xs.x[i]));
    }
    if (max_dx > 1e-9) {
      std::fprintf(stderr,
                   "FATAL: dense/sparse solutions diverge by %.3e\n", max_dx);
      return 1;
    }
    spice_speedup = sparse_s > 0.0 ? dense_s / sparse_s : 0.0;
    std::printf("  dense %.2f ms, sparse %.2f ms per solve (max dx %.1e): "
                "%.1fx\n",
                dense_s * 1e3, sparse_s * 1e3, max_dx, spice_speedup);

    w.begin_object();
    w.field("name", "spice_mna_12bit");
    w.key("config").begin_object();
    w.field("nbits", spice_spec.nbits);
    w.field("binary_bits", spice_spec.binary_bits);
    w.field("unknowns", n);
    w.field("reps", spice_reps);
    w.end_object();
    w.key("dense").begin_object();
    w.field("wall_s", dense_s);
    w.field("newton_iters", static_cast<std::int64_t>(dstats.newton_iters));
    w.field("dense_solves", static_cast<std::int64_t>(dstats.dense_solves));
    w.end_object();
    w.key("sparse").begin_object();
    w.field("wall_s", sparse_s);
    w.field("newton_iters", static_cast<std::int64_t>(sstats.newton_iters));
    w.field("factorizations",
            static_cast<std::int64_t>(sstats.factorizations));
    w.field("refactorizations",
            static_cast<std::int64_t>(sstats.refactorizations));
    w.end_object();
    w.field("max_dx", max_dx);
    w.field("spice_speedup", spice_speedup);
    w.end_object();

    // SPICE-in-the-loop mismatch MC: cold vs corner-to-corner warm start.
    core::DacSpec mc_spec;
    mc_spec.nbits = smoke ? 5 : 6;
    mc_spec.binary_bits = 2;
    const core::CellSizer mc_sizer(mos_tech, mc_spec);
    const core::SizedCell mc_cell = mc_sizer.size_cascode(0.25, 0.2, 0.2);
    dacgen::SpiceMcOptions mo;
    mo.chips = smoke ? 4 : 8;
    mo.seed = seed;
    std::printf("spice_mc_warmstart: %d-bit, %d corners, warm start off vs "
                "on ...\n",
                mc_spec.nbits, static_cast<int>(mo.chips));
    mo.warm_start = false;
    const double mc0 = now_s();
    const auto mc_cold = dacgen::spice_mismatch_mc(mc_spec, mc_cell,
                                                   mos_tech, mo);
    const double mc_cold_s = now_s() - mc0;
    mo.warm_start = true;
    const double mw0 = now_s();
    const auto mc_warm = dacgen::spice_mismatch_mc(mc_spec, mc_cell,
                                                   mos_tech, mo);
    const double mc_warm_s = now_s() - mw0;
    if (mc_warm.yield != mc_cold.yield || mc_warm.pass != mc_cold.pass) {
      std::fprintf(stderr,
                   "FATAL: warm starting changed the MC verdict "
                   "(yield %.4f vs %.4f)\n",
                   mc_warm.yield, mc_cold.yield);
      return 1;
    }
    warm_iter_reduction =
        mc_warm.newton_iters > 0
            ? static_cast<double>(mc_cold.newton_iters) /
                  static_cast<double>(mc_warm.newton_iters)
            : 0.0;
    std::printf("  cold %lld Newton iters (%.1f ms), warm %lld (%.1f ms): "
                "%.2fx fewer, hit rate %.2f\n",
                static_cast<long long>(mc_cold.newton_iters), mc_cold_s * 1e3,
                static_cast<long long>(mc_warm.newton_iters), mc_warm_s * 1e3,
                warm_iter_reduction, mc_warm.warm_start_hit_rate);

    w.begin_object();
    w.field("name", "spice_mc_warmstart");
    w.key("config").begin_object();
    w.field("nbits", mc_spec.nbits);
    w.field("binary_bits", mc_spec.binary_bits);
    w.field("chips", static_cast<std::int64_t>(mo.chips));
    w.field("seed", static_cast<std::int64_t>(mo.seed));
    w.field("sigma_scale", mo.sigma_scale);
    w.end_object();
    const auto emit_mc = [&w](const char* name,
                              const dacgen::SpiceMcResult& r, double wall) {
      w.key(name).begin_object();
      w.field("wall_s", wall);
      w.field("yield", r.yield);
      w.field("newton_iters", r.newton_iters);
      w.field("factorizations", r.factorizations);
      w.field("refactorizations", r.refactorizations);
      w.field("device_evals", r.device_evals);
      w.field("warm_start_hits", r.warm_start_hits);
      w.field("warm_start_hit_rate", r.warm_start_hit_rate);
      w.end_object();
    };
    emit_mc("cold", mc_cold, mc_cold_s);
    emit_mc("warm", mc_warm, mc_warm_s);
    w.field("warm_iter_reduction", warm_iter_reduction);
    w.end_object();
  }

  w.end_array();
  w.key("metrics").raw(obs::Registry::global().snapshot().to_json());
  w.end_object();

  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << w.str() << "\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (require_rare_reduction > 0.0 && rare_reduction < require_rare_reduction) {
    std::fprintf(stderr,
                 "FAIL: IS chip reduction %.0fx below required %.0fx\n",
                 rare_reduction, require_rare_reduction);
    return 1;
  }
  if (require_spice_speedup > 0.0) {
    if (spice_speedup < require_spice_speedup) {
      std::fprintf(stderr,
                   "FAIL: sparse MNA speedup %.2fx below required %.2fx\n",
                   spice_speedup, require_spice_speedup);
      return 1;
    }
    if (warm_iter_reduction <= 1.0) {
      std::fprintf(stderr,
                   "FAIL: warm starting did not reduce Newton iterations "
                   "(%.2fx)\n",
                   warm_iter_reduction);
      return 1;
    }
  }
  return 0;
}
