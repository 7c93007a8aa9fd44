#pragma once

// The waveform simulator of the converter: one single-pole, oversampled
// settling walk over a cell array, for any cell weighting.
//
// Every cell carries its own switching-instant offset and its own
// rise/fall asymmetry, drawn from deterministic (seed,index) streams like
// the amplitude MC.  A per-cell skew makes the timing error
// code-dependent — that is what turns a linear settling response into
// distortion (Beauchamp–Chugg, arXiv 2203.08939) — so the output must be
// analyzed as a full oversampled waveform: sampling at the end of each
// period would see settled values and hide the effect entirely.  An
// OutputModel and per-period jitter add a real converter's static and
// clocking effects: the `spectrum` job's Fig. 8 converter is this walk.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/weighting.hpp"
#include "dac/spectrum.hpp"
#include "mathx/rng.hpp"

namespace csdac::arch {

struct TimingParams {
  double fs = 300e6;        ///< sample rate [S/s]
  int oversample = 16;      ///< waveform points per sample period
  double tau = 0.25e-9;     ///< shared settling time constant [s]
  double sigma_t = 0.0;     ///< per-cell switching-instant skew sigma [s]
  /// Per-cell rise/fall asymmetry sigma [s]: a cell's ON edge fires
  /// asym/2 later and its OFF edge asym/2 earlier (asym is signed), the
  /// classic glitch-energy mechanism of mismatched complementary switches.
  double asym_sigma = 0.0;

  /// Throws std::invalid_argument on non-finite or out-of-range values.
  void validate() const;
};

/// One chip realization of the timing errors: per-cell edge delay and
/// signed rise/fall asymmetry, both in seconds.
struct CellTiming {
  std::vector<double> dt;
  std::vector<double> asym;
};

CellTiming ideal_cell_timing(int cells);
CellTiming draw_cell_timing(int cells, const TimingParams& params,
                            mathx::Xoshiro256& rng);

/// Per-period clock jitter: `periods` edge shifts of sigma * N(0, 1) [s],
/// in period order.
std::vector<double> draw_period_jitter(std::size_t periods, double sigma,
                                       mathx::Xoshiro256& rng);

/// All edges sit at a common nominal delay of 0.125 * ts.  A shared delay
/// is pure LTI delay (no distortion) but keeps the signed Gaussian skews
/// from being truncated by the t >= 0 clamp below.
inline constexpr double kNominalEdgeFrac = 0.125;
/// The latest edge instant, so edges settle before the period ends.
inline constexpr double kLatestEdgeFrac = 0.45;

/// Edge instant of cell `c` within a sample period of length `ts`:
/// nominal + dt + asym/2 for a turn-ON, nominal + dt - asym/2 for a
/// turn-OFF, plus the period's clock `shift`, clamped to
/// [0, kLatestEdgeFrac * ts].  Shared by the waveform simulator and the
/// ETE predictor so both see exactly the same effective delays.
double edge_time(const CellTiming& t, std::size_t c, bool turning_on,
                 double ts, double shift = 0.0);

/// One code record, walked once per job: the codes plus, for every sample
/// period, the cells that switch in it.  Period k is the transition from
/// code k-1 to code k; period 0 carries the periodic wrap-around from
/// codes.back() to codes.front(), so the record describes the steady
/// state of a repeating capture.
///
/// Greedy largest-first encoding (CellArray::encode) over descending
/// weights turns on a prefix of every run of equal-weight cells, so a
/// period's switches are at most one contiguous, same-direction range of
/// cells per distinct weight.  The record stores exactly those ranges:
/// memory is O(n_samples x distinct weights), never O(total switches) (a
/// 14-bit unary array under a near-Nyquist sine switches ~2.7e8 cells
/// over 16384 samples but stores at most 16384 ranges).  Everything here
/// depends only on the array and the codes, so a Monte-Carlo job builds
/// it once and every chip walks it.
class CodeRecord {
 public:
  /// Cells [first, first + count) all turn on (`on`) or all turn off.
  struct Switch {
    std::int32_t first = 0;
    std::int32_t count = 0;
    bool on = false;
  };

  /// Throws std::out_of_range for a code outside [0, arr.full_scale()].
  CodeRecord(const CellArray& arr, std::vector<int> codes);

  const std::vector<int>& codes() const { return codes_; }
  std::size_t size() const { return codes_.size(); }
  /// Most cells switching in any one period.
  std::size_t max_switching_cells() const { return max_switching_; }

  /// Switch ranges of period k in ascending cell order; empty when the
  /// code repeats.
  std::span<const Switch> switches(std::size_t k) const {
    return {switches_.data() + begin_[k], begin_[k + 1] - begin_[k]};
  }

  /// True when `arr` has the cell weights this record was built for.
  bool built_for(const CellArray& arr) const;

 private:
  std::vector<int> codes_;
  std::vector<CellArray::WeightRun> runs_;
  std::vector<Switch> switches_;
  std::vector<std::size_t> begin_;  ///< size() + 1 offsets into switches_
  std::size_t max_switching_ = 0;
  int cells_ = 0;
};

/// Throws std::invalid_argument, prefixed with `who`, unless `timing` and
/// `record` both belong to `arr`.
void check_walk_inputs(const CellArray& arr, const CodeRecord& record,
                       const CellTiming& timing, const char* who);

/// What a converter adds to the ideal walk (exact integer weights, no
/// droop, no kick, one rail), which the default model is.
struct OutputModel {
  /// Per-cell amplitude [LSB], one chip's source draw; empty = weights.
  std::vector<double> amplitude;
  /// Output-impedance droop R_L / r_unit: a level of L LSB settles at
  /// v(L) = L * v_lsb / (1 + L * droop), the compressive bow of [7,8].
  double droop = 0.0;
  /// Per-cell clock-feedthrough kick [v_lsb], added to the output at
  /// every edge of the cell (signed); empty = none.
  std::vector<double> feedthrough;
  /// Complementary rails carrying L and total - L: the output is
  /// v(L) - v(total - L), and the common-mode kick cancels.
  bool differential = false;
};

/// Event-driven waveform synthesis: per period, the switching cells are
/// sorted by edge instant and the shared single-pole settling state is
/// advanced between events, sampling on the oversample grid.
///
/// Walk contract (waveform, spectrum and ete_predict all take a
/// CodeRecord built for this array): per period the events are gathered
/// from the record's switch ranges in ascending cell order, then stably
/// sorted by edge instant into buffers reused across periods (insertion
/// sort on short runs, merged when a period switches many cells), so
/// equal instants keep cell order.  That is the order a per-period
/// encode, cell-by-cell diff and std::stable_sort produce, so every
/// event is applied with the same operands in the same order.  A
/// sub-interval that holds no event decays by a factor read from a
/// per-simulator table, exp(-((s+1)*dt_sub - s*dt_sub)/tau): the same
/// expression on the same operands the walk evaluated inline.  The
/// waveform is therefore bit-identical to the per-period-encode walk;
/// tests/arch/record_walk_test.cpp keeps that walk as its oracle.
///
/// An OutputModel and a jitter record change only what an edge does: it
/// adds its amplitude to the level L [LSB] and its kick to the output,
/// and the target becomes v(L) (or the rail difference).  With droop or
/// two rails, the cells of a weight run that share timing and kick switch
/// as one edge per range, so a period costs O(distinct weights).
class ArchSimulator {
 public:
  /// Throws std::invalid_argument on bad params, v_lsb or model.
  ArchSimulator(CellArray array, TimingParams params, double v_lsb,
                const OutputModel& model = {});

  const CellArray& array() const { return array_; }
  const TimingParams& params() const { return params_; }
  double v_lsb() const { return v_lsb_; }

  /// v(level) of one rail, droop included.
  double v_of_level(double level) const;

  /// Oversampled waveform (record.size() * oversample points at rate
  /// fs * oversample) in periodic steady state: the walk starts settled
  /// at codes.back() and period 0 carries the wrap-around transition to
  /// codes.front(), so a coherent record matches the DFT's periodic
  /// extension (no start-up transient polluting the noise floor).
  /// `jitter` shifts every edge of period k by jitter[k] (empty = none).
  /// Throws std::invalid_argument when `timing` or `record` does not
  /// belong to this array, or `jitter` is not one shift per period.
  std::vector<double> waveform(const CodeRecord& record,
                               const CellTiming& timing,
                               std::span<const double> jitter = {}) const;

  /// The waveform at the end of each period, one sample per code.
  std::vector<double> period_end_samples(
      const CodeRecord& record, const CellTiming& timing,
      std::span<const double> jitter = {}) const;

  /// Glitch energy of one code transition [V*s]: integral of |v - v_ref|
  /// over the transition period, where v_ref is the same transition with
  /// ideal (zero-error) cell timing and no feedthrough kick.  Zero timing
  /// errors and no kick give exactly 0.
  double glitch_energy(const CellTiming& timing, int code_from,
                       int code_to) const;

  /// Spectral metrics of the full oversampled waveform, restricted to the
  /// converter's own band (max_freq = fs/2) and told where the fundamental
  /// is (`fund_cycles` coherent cycles per record).
  dac::SpectrumMetrics spectrum(const CodeRecord& record,
                                const CellTiming& timing,
                                int fund_cycles) const;

 private:
  CellArray array_;
  TimingParams params_;
  double v_lsb_ = 0.0;
  double droop_ = 0.0;
  bool differential_ = false;
  /// decay_[s] = exp(-((s+1)*dt_sub - s*dt_sub)/tau), s < oversample.
  std::vector<double> decay_;
  /// Amplitude prefix sums (cells + 1) and per-cell kicks [V] (zero when
  /// differential: they cancel).
  std::vector<double> amp_prefix_;
  std::vector<double> kick_v_;
};

}  // namespace csdac::arch
