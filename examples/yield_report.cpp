// Production-style yield report: Monte-Carlo a lot of 12-bit chips at the
// eq. (1) design accuracy, histogram the INL/DNL population, report the
// parametric yield with its confidence interval, and show what the
// self-calibration option would buy on an undersized array.
//
// The yield estimates run through the runtime scheduler with the
// persistent content-addressed cache (.csdac-cache), so a re-run with the
// same lot parameters reports instantly from the store. The histogram
// draws the same (seed, chip) streams through the public allocating chain
// (draw_source_errors -> SegmentedDac::transfer -> analyze_transfer),
// which the yield kernels match bit for bit, so its population is exactly
// the lot the yield estimate judged.
#include <cstdio>
#include <string>
#include <vector>

#include "core/accuracy.hpp"
#include "dac/calibration.hpp"
#include "dac/static_analysis.hpp"
#include "mathx/rng.hpp"
#include "mathx/stats.hpp"
#include "runtime/scheduler.hpp"

using namespace csdac;

namespace {

void print_histogram(const char* title, const std::vector<double>& samples,
                     double lo, double hi) {
  mathx::Histogram h(lo, hi, 24);
  for (double v : samples) h.add(v);
  std::size_t peak = 1;
  for (std::size_t i = 0; i < h.bins(); ++i) {
    peak = std::max(peak, h.bin_count(i));
  }
  std::printf("\n%s (N = %zu)\n", title, samples.size());
  for (std::size_t i = 0; i < h.bins(); ++i) {
    const int bar =
        static_cast<int>(48.0 * h.bin_count(i) / static_cast<double>(peak));
    std::printf("  %6.3f |%s%s %zu\n", h.bin_center(i),
                std::string(static_cast<std::size_t>(bar), '#').c_str(),
                bar == 0 && h.bin_count(i) > 0 ? "." : "", h.bin_count(i));
  }
}

const char* source_tag(const runtime::ExecResult& r) {
  return r.cache_hit() ? "cache" : "computed";
}

}  // namespace

int main(int argc, char** argv) {
  const int chips = argc > 1 ? std::atoi(argv[1]) : 600;
  core::DacSpec spec;
  const double sigma = core::unit_sigma_spec(spec.nbits, spec.inl_yield);
  const std::uint64_t seed = 5000;

  std::printf("=== 12-bit chip lot: %d chips at the eq.(1) accuracy "
              "(sigma_u = %.4f%%) ===\n",
              chips, sigma * 100);

  // Histogram pass: the allocating chain over the same (seed, chip)
  // streams the yield estimate below evaluates.
  std::vector<double> inls, dnls;
  mathx::RunningStats inl_stats;
  for (int c = 0; c < chips; ++c) {
    mathx::Xoshiro256 rng =
        mathx::stream_rng(seed, static_cast<std::uint64_t>(c));
    const dac::SegmentedDac chip(spec,
                                 dac::draw_source_errors(spec, sigma, rng));
    const dac::StaticMetrics m = dac::analyze_transfer(chip.transfer());
    inls.push_back(m.inl_max);
    dnls.push_back(m.dnl_max);
    inl_stats.add(m.inl_max);
  }
  print_histogram("max |INL| [LSB]", inls, 0.0, 0.5);
  print_histogram("max |DNL| [LSB]", dnls, 0.0, 0.25);
  std::printf("\nINL population: mean %.3f LSB, sigma %.3f, worst %.3f\n",
              inl_stats.mean(), inl_stats.stddev(), inl_stats.max());

  // Yield studies through the runtime scheduler: queued together, run
  // concurrently on its workers, answered from the persistent cache when
  // warm.
  runtime::SchedulerOptions so;
  so.exec.cache_dir = ".csdac-cache";
  runtime::Scheduler sched(so);

  runtime::InlYieldJob fixed;
  fixed.spec = spec;
  fixed.sigma_unit = sigma;
  fixed.chips = chips;
  fixed.seed = seed;
  const auto fixed_run = sched.submit(fixed, 0, "lot-yield");

  runtime::InlYieldJob adaptive;
  adaptive.spec = spec;
  adaptive.sigma_unit = sigma;
  adaptive.seed = seed;
  adaptive.adaptive = true;
  adaptive.chips = 20000;  // cap
  adaptive.ci_half_width = 0.01;
  const auto adaptive_run = sched.submit(adaptive, 0, "adaptive-yield");

  dac::CalibrationOptions cal;
  cal.range_lsb = 2.0;
  cal.bits = 6;
  runtime::CalYieldJob recover;
  recover.spec = spec;
  recover.sigma_unit = 4.0 * sigma;
  recover.cal = cal;
  recover.chips = chips / 3;
  recover.seed = 6000;
  const auto recover_run = sched.submit(recover, 0, "calibration-study");

  const runtime::ExecResult& yr = *fixed_run.future.get();
  const auto& y = std::get<runtime::YieldResult>(yr.value);
  std::printf("parametric yield (INL < 0.5 LSB): %.1f%% +/- %.1f%% "
              "(target %.1f%%)\n",
              y.yield * 100, y.ci95 * 100, spec.inl_yield * 100);
  std::printf("  %lld chips in %.3f s [%s]\n",
              static_cast<long long>(y.chips), yr.wall_seconds,
              source_tag(yr));

  const runtime::ExecResult& yar = *adaptive_run.future.get();
  const auto& ya = std::get<runtime::YieldResult>(yar.value);
  std::printf("  adaptive: %.1f%% +/- %.1f%% after %lld chips of the "
              "20000-chip budget [%s]\n",
              ya.yield * 100, ya.ci95 * 100,
              static_cast<long long>(ya.chips), source_tag(yar));

  const runtime::ExecResult& rr = *recover_run.future.get();
  const auto& recovered = std::get<runtime::CalYieldResult>(rr.value);
  std::printf("\nwith a 16x smaller CS array (4x sigma) + 6-bit trim DAC:\n");
  std::printf("  yield before calibration: %.1f%%\n",
              recovered.yield_before * 100);
  std::printf("  yield after calibration : %.1f%%\n",
              recovered.yield_after * 100);
  std::printf("  %lld chips in %.3f s [%s]\n",
              static_cast<long long>(recovered.chips), rr.wall_seconds,
              source_tag(rr));

  const runtime::CacheCounters cc = sched.executor().disk_counters();
  std::printf("\nruntime cache: %lld hits, %lld misses (.csdac-cache)\n",
              static_cast<long long>(cc.hits),
              static_cast<long long>(cc.misses));
  return 0;
}
