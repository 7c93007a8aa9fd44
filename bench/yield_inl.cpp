// E1 — eq. (1) validation: Monte-Carlo INL (and DNL) parametric yield as a
// function of the unit-current sigma, swept around the eq. (1) design value
// for the paper's 12-bit converter. The design rule must be safe
// (measured yield >= target at the spec sigma) and tight enough that a few
// x the sigma destroys the yield.
//
// The sweep runs through the runtime scheduler with the persistent
// content-addressed cache (.csdac-cache): the first run computes every
// point on the scheduler's workers, a re-run answers the whole table
// from the store without a single chip evaluation — the cache-counter
// line at the end shows which happened.
#include <cstdio>

#include "bench_util.hpp"
#include "core/accuracy.hpp"
#include "runtime/scheduler.hpp"

using namespace csdac;
using namespace csdac::bench;

int main() {
  core::DacSpec spec;  // 12 bit, b = 4
  const double target = spec.inl_yield;
  const double sigma0 = core::unit_sigma_spec(spec.nbits, target);
  const int chips = 400;
  const double mults[] = {0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0};

  print_header("E1", "eq. (1) — INL yield vs unit-current accuracy");
  std::printf("12-bit, b=4; eq.(1) spec sigma = %.4f%% for %.1f%% yield; "
              "%d chips per point, runtime scheduler with persistent "
              "cache\n\n",
              sigma0 * 100, target * 100, chips);

  runtime::SchedulerOptions so;
  so.exec.cache_dir = ".csdac-cache";
  runtime::Scheduler sched(so);

  // Queue the whole sweep first: INL + DNL jobs per sigma point, plus the
  // adaptive runs — independent jobs run concurrently on the workers.
  std::vector<runtime::Scheduler::Ticket> inl_runs, dnl_runs;
  for (const double mult : mults) {
    runtime::InlYieldJob inl;
    inl.spec = spec;
    inl.sigma_unit = mult * sigma0;
    inl.chips = chips;
    inl.seed = 1000;
    runtime::InlYieldJob dnl = inl;
    dnl.dnl = true;
    inl_runs.push_back(sched.submit(inl));
    dnl_runs.push_back(sched.submit(dnl));
  }
  const double adaptive_mults[] = {0.5, 1.0, 2.0, 3.0};
  std::vector<runtime::Scheduler::Ticket> adaptive_runs;
  for (const double mult : adaptive_mults) {
    runtime::InlYieldJob job;
    job.spec = spec;
    job.sigma_unit = mult * sigma0;
    job.seed = 1000;
    job.adaptive = true;
    job.chips = 4000;  // cap
    job.ci_half_width = 0.02;
    adaptive_runs.push_back(sched.submit(job));
  }

  print_row({"sigma/spec", "sigma [%]", "INL yield", "DNL yield",
             "pred. eq(1)", "source"});
  for (std::size_t i = 0; i < inl_runs.size(); ++i) {
    const runtime::ExecResult& inl = *inl_runs[i].future.get();
    const runtime::ExecResult& dnl = *dnl_runs[i].future.get();
    const auto& iy = std::get<runtime::YieldResult>(inl.value);
    const auto& dy = std::get<runtime::YieldResult>(dnl.value);
    const double pred =
        core::inl_yield_from_sigma(spec.nbits, mults[i] * sigma0);
    print_row({fmt(mults[i], "%.2f"), fmt(mults[i] * sigma0 * 100, "%.4f"),
               fmt(iy.yield, "%.3f"), fmt(dy.yield, "%.3f"),
               fmt(pred, "%.3f"), inl.cache_hit() ? "cache" : "computed"});
  }

  std::printf("\nAdaptive early stopping (cap 4000 chips, stop at 95%% CI "
              "half-width <= 0.02):\n\n");
  print_row({"sigma/spec", "yield", "ci95", "chips used", "source"});
  for (std::size_t i = 0; i < adaptive_runs.size(); ++i) {
    const runtime::ExecResult& r = *adaptive_runs[i].future.get();
    const auto& y = std::get<runtime::YieldResult>(r.value);
    print_row({fmt(adaptive_mults[i], "%.2f"), fmt(y.yield, "%.3f"),
               fmt(y.ci95, "%.4f"),
               fmt(static_cast<double>(y.chips), "%.0f"),
               r.cache_hit() ? "cache" : "computed"});
  }

  const runtime::CacheCounters cc = sched.executor().disk_counters();
  std::printf("\nruntime cache (.csdac-cache): %lld hits, %lld misses — "
              "re-run this bench to see the whole sweep answered from the "
              "store.\n",
              static_cast<long long>(cc.hits),
              static_cast<long long>(cc.misses));
  std::printf("\nNote: eq. (1) is conservative (it bounds the mid-scale\n"
              "accumulation; measured best-fit INL yield sits above the\n"
              "prediction). DNL yield stays ~1 wherever INL passes —\n"
              "the paper's Section 1 remark. High-yield points resolve\n"
              "their CI early and skip most of the chip budget.\n");
  return 0;
}
