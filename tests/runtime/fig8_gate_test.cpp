// The paper's Fig. 8 claim under a regression gate: the sized 12-bit
// converter, driven by a ~53 MHz coherent sine at 300 MS/s, reaches a
// mismatch-limited differential SFDR in the state-of-the-art 12-bit
// class, while its single-ended output is held down by the even-order
// distortion of the finite unit output impedance.
//
// The design point is bench_fig8_spectrum's: the speed-optimized cascode
// cell (optimize_cascode -> size_cascode), settling tau from its poles,
// the unit output impedance at 53 MHz, 20 ps binary skew, 0.05 LSB of
// clock feedthrough and the eq. (1) unit mismatch. Each record runs as
// a `spectrum` job, so the gate covers the job path the server answers.
//
// The bounds sit below the values the job produced when the gate was
// added (differential SFDR 83.4 dB on 1024/181 and 82.5 dB on 283/50,
// single-ended 40.7 dB): a 75 dB floor leaves 7.5 dB of margin on the
// weaker record, and the differential output must beat the
// single-ended one by at least 30 dB of its ~43 dB lead.
#include <gtest/gtest.h>

#include <optional>

#include "core/explorer.hpp"
#include "core/impedance.hpp"
#include "runtime/job.hpp"
#include "tech/tech.hpp"

namespace csdac::runtime {
namespace {

constexpr double kMinDiffSfdrDb = 75.0;
constexpr double kMinDiffLeadDb = 30.0;

/// The Fig. 8 job on a record of `n_samples` x `cycles`.
SpectrumJob fig8_job(int n_samples, int cycles, bool differential) {
  static const std::optional<SpectrumJob> base = [] {
    const tech::MosTechParams t = tech::generic_035um().nmos;
    const core::DacSpec spec;
    const core::CellSizer sizer(t, spec);
    const core::DesignSpaceExplorer ex(sizer);
    const core::GridAxis g3{0.05, 0.6, 12};
    const auto pt =
        ex.optimize_cascode(g3, g3, g3, core::MarginPolicy::kStatistical,
                            core::Objective::kMaxSpeed);
    if (!pt) return std::optional<SpectrumJob>();
    const core::SizedCell cell =
        sizer.size_cascode(pt->vod_cs, pt->vod_sw, pt->vod_cas,
                           core::MarginPolicy::kStatistical);
    SpectrumJob j;
    j.spec = spec;
    j.sigma_unit = sizer.sigma_unit();
    j.seed = 2003;
    j.dyn.fs = 300e6;
    j.dyn.oversample = 8;
    j.dyn.tau = cell.poles.tau();
    j.dyn.rout_unit = core::unit_zout_mag(t, spec, cell.cell, 53e6);
    j.dyn.binary_skew = 20e-12;
    j.dyn.feedthrough_lsb = 0.05;
    return std::optional<SpectrumJob>(j);
  }();
  EXPECT_TRUE(base.has_value()) << "no feasible cascode design point";
  SpectrumJob j = base.value_or(SpectrumJob{});
  j.n_samples = n_samples;
  j.cycles = cycles;
  j.differential = differential;
  return j;
}

SpectrumSummary run_fig8(int n_samples, int cycles, bool differential) {
  const JobValue v =
      execute_job(fig8_job(n_samples, cycles, differential), 1, nullptr);
  return std::get<SpectrumSummary>(v);
}

TEST(Fig8Gate, DifferentialSfdrAtThePaperDesignPoint) {
  const SpectrumSummary diff = run_fig8(1024, 181, true);
  const SpectrumSummary diff50 = run_fig8(283, 50, true);
  const SpectrumSummary se = run_fig8(1024, 181, false);
  EXPECT_GE(diff.sfdr_db, kMinDiffSfdrDb);
  EXPECT_GE(diff50.sfdr_db, kMinDiffSfdrDb);
  EXPECT_GE(diff.sfdr_db - se.sfdr_db, kMinDiffLeadDb);
}

}  // namespace
}  // namespace csdac::runtime
