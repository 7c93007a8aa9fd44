#pragma once

// Searchable cell-weighting / segmentation architectures for the
// current-steering array.
//
// A weighting scheme assigns an integer weight (in unit currents) to each
// switchable cell.  Classic choices are binary (n cells, weights 2^k),
// unary/thermometer (2^n-1 cells of weight 1) and segmented (thermometer
// MSB bank + binary LSB tail).  Babaee et al. (arXiv 2512.08903) show that
// the weight vector itself is a design axis: among all "complete" weight
// sequences that cover every code exactly, some have far lower
// timing-mismatch distortion because they concentrate the switching
// activity on low-weight cells.  `optimize_weighting` searches that space
// deterministically.
//
// A weight multiset {w_1 <= w_2 <= ...} is *complete* when w_1 = 1 and
// w_{k+1} <= 1 + sum_{i<=k} w_i.  Completeness makes every integer in
// [0, sum w_i] exactly representable, and the greedy
// largest-weight-first encoder is exact (induction over the sorted
// sequence).  Note a corollary used by the tests: a complete sequence
// with exactly n cells summing to 2^n - 1 is forced to be the binary
// sequence, so "optimized" weightings only exist at cell budgets larger
// than n (equal total unit count = equal area, more cells).

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace csdac::arch {

enum class WeightingKind : std::uint8_t {
  kBinary = 1,
  kUnary = 2,
  kSegmented = 3,
  kOptimized = 4,
};

std::string_view weighting_name(WeightingKind kind);

/// Parses "binary" / "unary" / "segmented" / "optimized"; returns false on
/// unknown names (serve-layer friendly: no exception).
bool parse_weighting_kind(std::string_view name, WeightingKind& out);

struct WeightingScheme {
  WeightingKind kind = WeightingKind::kSegmented;
  int nbits = 12;
  /// Segmented: number of binary LSBs. Optimized: total cell budget.
  /// Binary / unary: unused (0).
  int param = 0;
  /// Cell weights in unit currents, descending, sum = 2^nbits - 1.
  std::vector<int> weights;
};

/// True when the multiset `weights` is a complete sequence (sorts a copy).
bool is_complete_sequence(std::vector<int> weights);

/// Builds the weight vector for a scheme.  `param` is the binary split for
/// kSegmented (default: nbits/3 like core::DacSpec) and the cell budget for
/// kOptimized (default/0: the cell count of the segmented scheme at the
/// default split).  Throws std::invalid_argument on bad arguments.
WeightingScheme make_weighting(WeightingKind kind, int nbits, int param = 0);

/// Options for the deterministic weighting search.
struct OptimizeOptions {
  int cells = 0;       ///< total cell budget (> nbits); 0 = default
  int n_samples = 128; ///< reference sine record length for the activity metric
  int cycles = 7;      ///< coherent cycles in the reference record
  int max_rounds = 256;
};

/// Deterministic first-improvement local search minimizing the
/// timing-distortion proxy sum_c w_c^2 N_c (N_c = toggle count of cell c
/// over a reference full-scale sine), over complete weight sequences with
/// `cells` cells summing to 2^nbits - 1.  Same inputs always return the
/// same weights (no RNG), so cached job keys stay stable.
WeightingScheme optimize_weighting(int nbits, const OptimizeOptions& opts);

/// Immutable cell array: validates the scheme and encodes codes onto cells.
class CellArray {
 public:
  /// Cells [first, first + count), all of weight `weight`.  Weights are
  /// descending, so each distinct weight forms exactly one run.
  struct WeightRun {
    std::int32_t first;
    std::int32_t count;
    int weight;
  };

  explicit CellArray(WeightingScheme scheme);

  const WeightingScheme& scheme() const { return scheme_; }
  int nbits() const { return scheme_.nbits; }
  int cells() const { return static_cast<int>(scheme_.weights.size()); }
  int full_scale() const { return full_scale_; }
  const std::vector<int>& weights() const { return scheme_.weights; }

  /// Greedy largest-first encoding of `code` in [0, full_scale()]; exact
  /// for complete sequences.  `on` is resized to cells().  Equal-weight
  /// cells turn on in index order, so a unary bank behaves as a
  /// thermometer.
  void encode(int code, std::vector<std::uint8_t>& on) const;
  std::vector<std::uint8_t> encode(int code) const;

  /// The equal-weight runs in cell order.
  const std::vector<WeightRun>& runs() const { return runs_; }

  /// The greedy rule per run: encode() turns on the first
  /// min(count, rem / weight) cells of run r, where rem is what the code
  /// leaves after the runs before r.  Returns that count and takes its
  /// weight off rem.
  static int take_run(const WeightRun& r, int& rem) {
    const int n = std::min<int>(r.count, rem / r.weight);
    rem -= n * r.weight;
    return n;
  }

  /// The static transfer of one chip whose cell c carries `term[c]`:
  /// levels[code] for every code in [0, full_scale()] is the sum of the
  /// terms of the cells encode(code) turns on, added in cell order from
  /// 0.0.  No code is encoded: the first run's sum is read from its prefix
  /// sums (kept in `head`, reusable scratch), which are those same adds,
  /// and every later run adds its on cells one by one.  Bit-identical to
  /// the encode-and-add loop.
  void transfer(std::span<const double> term, std::vector<double>& head,
                std::span<double> levels) const;

 private:
  WeightingScheme scheme_;
  int full_scale_ = 0;
  std::vector<WeightRun> runs_;
};

/// Per-cell toggle counts over a code sequence (state changes between
/// consecutive codes; the initial state is not a toggle).
std::vector<std::int64_t> switching_counts(const CellArray& arr,
                                           const std::vector<int>& codes);

/// Timing-distortion proxy sum_c w_c^2 N_c for a code sequence: the
/// expected error power of per-cell timing skew is proportional to it
/// (each toggle of cell c injects an error impulse of area w_c * t_c).
double switching_activity(const CellArray& arr, const std::vector<int>& codes);

}  // namespace csdac::arch
