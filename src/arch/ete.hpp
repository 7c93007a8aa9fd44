#pragma once

// Equivalent-timing-error (ETE) analysis, after Beauchamp–Chugg
// (arXiv 2203.08939): a cell switching at t_e instead of the ideal instant
// removes a rectangular error pulse of amplitude w * v_lsb and width t_e
// from the output.  In-band (f << 1/t_e) that pulse is equivalent to a
// sampled error impulse of area -delta * w * v_lsb * t_e, i.e. a
// per-sample additive error
//
//   e_k = -fs * v_lsb * sum_{c switching at k} delta_c * w_c * t_{e,c}
//
// which turns the expensive oversampled waveform simulation into an
// fs-rate record (ideal sample + e_k) whose spectrum predicts the
// timing-limited SFDR/SNDR.  The same edge_time() as the waveform
// simulator is used, so the two views share effective delays exactly.
//
// ete_predict walks the same CodeRecord as ArchSimulator::waveform (see
// dyn_sim.hpp), built once per job.  Each period's error sums its
// switching cells in ascending cell order, range by range, with the
// product fs * delta * w * v_lsb * t_e evaluated left to right: the cells
// and the order a per-period encode and cell-by-cell diff visit, so the
// record is bit-identical to that walk (tests/arch/record_walk_test.cpp).

#include <vector>

#include "arch/dyn_sim.hpp"
#include "arch/weighting.hpp"
#include "dac/spectrum.hpp"

namespace csdac::arch {

struct EtePrediction {
  std::vector<double> record;  ///< fs-rate predicted samples [V]
  double sfdr_db = 0.0;
  double sndr_db = 0.0;
};

/// Semi-analytic spectral prediction for one timing realization over a
/// record built for `arr`.  Throws std::invalid_argument when `timing` or
/// `record` belongs to another array.
EtePrediction ete_predict(const CellArray& arr, const CellTiming& timing,
                          double v_lsb, double fs, const CodeRecord& record,
                          int fund_cycles);

/// Closed-form expected timing-limited SNDR over the timing ensemble:
///
///   SNDR = (A^2 / 2) / (fs^2 * sigma_eff^2 * sum_c w_c^2 N_c / n)
///
/// with sigma_eff^2 = sigma_t^2 + asym_sigma^2 / 4 (the ON/OFF halves of
/// the asymmetry enter each edge with weight 1/2) and A the code amplitude
/// in LSB (v_lsb cancels).  Cross terms vanish by cell independence, so
/// the total error power is exact; it ignores the quantization floor, so
/// it matches measurements only where timing noise dominates.  Returns
/// +300 dB when there is no timing error at all.
double ete_expected_sndr_db(const CellArray& arr,
                            const std::vector<int>& codes,
                            const TimingParams& params);

}  // namespace csdac::arch
