#include "arch/weighting.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "arch/instruments.hpp"
#include "dac/spectrum.hpp"

namespace csdac::arch {
namespace {

int full_scale_for(int nbits) { return (1 << nbits) - 1; }

void check_nbits(int nbits) {
  if (nbits < 2 || nbits > 16) {
    throw std::invalid_argument("WeightingScheme: nbits must be in [2, 16]");
  }
}

/// sum_c w_c^2 N_c over `codes` for a descending-sorted weight vector.
/// Shared by switching_activity and the optimizer inner loop.
double activity_of(int nbits, const std::vector<int>& weights,
                   const std::vector<int>& codes) {
  CellArray arr(WeightingScheme{WeightingKind::kOptimized, nbits, 0, weights});
  return switching_activity(arr, codes);
}

}  // namespace

std::string_view weighting_name(WeightingKind kind) {
  switch (kind) {
    case WeightingKind::kBinary: return "binary";
    case WeightingKind::kUnary: return "unary";
    case WeightingKind::kSegmented: return "segmented";
    case WeightingKind::kOptimized: return "optimized";
  }
  return "unknown";
}

bool parse_weighting_kind(std::string_view name, WeightingKind& out) {
  if (name == "binary") { out = WeightingKind::kBinary; return true; }
  if (name == "unary") { out = WeightingKind::kUnary; return true; }
  if (name == "segmented") { out = WeightingKind::kSegmented; return true; }
  if (name == "optimized") { out = WeightingKind::kOptimized; return true; }
  return false;
}

bool is_complete_sequence(std::vector<int> weights) {
  if (weights.empty()) return false;
  std::sort(weights.begin(), weights.end());
  long long prefix = 0;
  for (int w : weights) {
    if (w < 1 || static_cast<long long>(w) > prefix + 1) return false;
    prefix += w;
  }
  return true;
}

WeightingScheme make_weighting(WeightingKind kind, int nbits, int param) {
  check_nbits(nbits);
  WeightingScheme s;
  s.kind = kind;
  s.nbits = nbits;
  const int fs = full_scale_for(nbits);
  switch (kind) {
    case WeightingKind::kBinary: {
      if (param != 0) {
        throw std::invalid_argument("binary weighting takes no parameter");
      }
      for (int k = nbits - 1; k >= 0; --k) s.weights.push_back(1 << k);
      break;
    }
    case WeightingKind::kUnary: {
      if (param != 0) {
        throw std::invalid_argument("unary weighting takes no parameter");
      }
      s.weights.assign(static_cast<std::size_t>(fs), 1);
      break;
    }
    case WeightingKind::kSegmented: {
      int b = param;
      if (b == 0 && nbits >= 3) b = nbits / 3;
      if (b < 0 || b >= nbits) {
        throw std::invalid_argument(
            "segmented split must be in [0, nbits)");
      }
      s.param = b;
      const int therm = (1 << (nbits - b)) - 1;
      s.weights.assign(static_cast<std::size_t>(therm), 1 << b);
      for (int k = b - 1; k >= 0; --k) s.weights.push_back(1 << k);
      break;
    }
    case WeightingKind::kOptimized: {
      OptimizeOptions opts;
      opts.cells = param;
      return optimize_weighting(nbits, opts);
    }
  }
  return s;
}

WeightingScheme optimize_weighting(int nbits, const OptimizeOptions& opts) {
  check_nbits(nbits);
  const int fs = full_scale_for(nbits);
  int cells = opts.cells;
  if (cells == 0) {
    // Default budget: match the cell count of the default segmented split,
    // so optimized-vs-segmented comparisons are area- and cell-matched.
    const int b = nbits >= 3 ? nbits / 3 : 0;
    cells = ((1 << (nbits - b)) - 1) + b;
  }
  if (cells < nbits || cells > fs) {
    throw std::invalid_argument(
        "optimized weighting: cell budget must be in [nbits, 2^nbits - 1]");
  }
  if (opts.n_samples < 16 || opts.cycles < 1 ||
      opts.cycles >= opts.n_samples / 2) {
    throw std::invalid_argument("optimized weighting: bad reference record");
  }
  arch_instruments().opt_searches.add(1);

  // Start from binary and split the largest cell until the budget is
  // reached.  Splitting w into ceil(w/2)+floor(w/2) preserves completeness
  // (any representation using w can use the two halves instead).
  std::vector<int> w;
  for (int k = nbits - 1; k >= 0; --k) w.push_back(1 << k);
  while (static_cast<int>(w.size()) < cells) {
    auto it = std::max_element(w.begin(), w.end());
    const int big = *it;
    // cells <= fs guarantees a splittable (> 1) cell exists here.
    *it = (big + 1) / 2;
    w.push_back(big / 2);
  }
  std::sort(w.begin(), w.end(), std::greater<int>());

  // The reference record the activity metric scores against.
  core::DacSpec ref;
  ref.nbits = nbits;
  const std::vector<int> codes =
      dac::sine_codes(ref, opts.n_samples, opts.cycles);
  double best = activity_of(nbits, w, codes);

  // First-improvement descent: move delta units of weight from cell i to
  // cell j (keeping every weight >= 1 and the multiset complete).  Fully
  // deterministic scan order; terminates because the integer-valued metric
  // strictly decreases on every accepted move.
  const int n = static_cast<int>(w.size());
  for (int round = 0; round < opts.max_rounds; ++round) {
    bool improved = false;
    for (int i = 0; i < n && !improved; ++i) {
      for (int j = 0; j < n && !improved; ++j) {
        if (i == j) continue;
        for (int delta = 1; delta < w[static_cast<std::size_t>(i)];
             delta *= 2) {
          std::vector<int> cand = w;
          cand[static_cast<std::size_t>(i)] -= delta;
          cand[static_cast<std::size_t>(j)] += delta;
          if (!is_complete_sequence(cand)) continue;
          std::sort(cand.begin(), cand.end(), std::greater<int>());
          const double m = activity_of(nbits, cand, codes);
          if (m < best) {
            best = m;
            w = std::move(cand);
            improved = true;
            break;
          }
        }
      }
    }
    if (!improved) break;
  }

  WeightingScheme s;
  s.kind = WeightingKind::kOptimized;
  s.nbits = nbits;
  s.param = cells;
  s.weights = std::move(w);
  return s;
}

CellArray::CellArray(WeightingScheme scheme) : scheme_(std::move(scheme)) {
  // Any resolution a core::DacSpec allows: the schemes above stop at 16
  // bits, but the spectrum job's converter builds its own up to 20.
  if (scheme_.nbits < 2 || scheme_.nbits > 20) {
    throw std::invalid_argument("CellArray: nbits must be in [2, 20]");
  }
  const int fs = full_scale_for(scheme_.nbits);
  long long sum = 0;
  for (int w : scheme_.weights) sum += w;
  if (sum != fs) {
    throw std::invalid_argument("CellArray: weights must sum to 2^nbits - 1");
  }
  if (!std::is_sorted(scheme_.weights.begin(), scheme_.weights.end(),
                      std::greater<int>())) {
    throw std::invalid_argument("CellArray: weights must be descending");
  }
  if (!is_complete_sequence(scheme_.weights)) {
    throw std::invalid_argument(
        "CellArray: weights are not a complete sequence");
  }
  full_scale_ = fs;
  const auto& w = scheme_.weights;
  for (std::size_t c = 0; c < w.size(); ++c) {
    if (c > 0 && w[c] == w[c - 1]) {
      ++runs_.back().count;
    } else {
      runs_.push_back({static_cast<std::int32_t>(c), 1, w[c]});
    }
  }
}

void CellArray::encode(int code, std::vector<std::uint8_t>& on) const {
  if (code < 0 || code > full_scale_) {
    throw std::out_of_range("CellArray::encode: code out of range");
  }
  const auto& w = scheme_.weights;
  on.assign(w.size(), 0);
  int rem = code;
  for (std::size_t c = 0; c < w.size(); ++c) {
    if (w[c] <= rem) {
      on[c] = 1;
      rem -= w[c];
    }
  }
  // Complete sequences make greedy exact; anything left over would mean
  // the invariant checked in the constructor was violated.
  if (rem != 0) {
    throw std::logic_error("CellArray::encode: greedy residue (bad weights)");
  }
}

std::vector<std::uint8_t> CellArray::encode(int code) const {
  std::vector<std::uint8_t> on;
  encode(code, on);
  return on;
}

void CellArray::transfer(std::span<const double> term,
                         std::vector<double>& head,
                         std::span<double> levels) const {
  if (term.size() != scheme_.weights.size() ||
      levels.size() != static_cast<std::size_t>(full_scale_) + 1) {
    throw std::invalid_argument("CellArray::transfer: size mismatch");
  }
  const WeightRun& first = runs_.front();
  head.resize(static_cast<std::size_t>(first.count) + 1);
  head[0] = 0.0;
  for (std::int32_t i = 0; i < first.count; ++i) {
    head[static_cast<std::size_t>(i) + 1] =
        head[static_cast<std::size_t>(i)] + term[static_cast<std::size_t>(i)];
  }
  for (int code = 0; code <= full_scale_; ++code) {
    int rem = code;
    double level = head[static_cast<std::size_t>(take_run(first, rem))];
    for (std::size_t r = 1; r < runs_.size(); ++r) {
      const int n = take_run(runs_[r], rem);
      for (int i = 0; i < n; ++i) {
        level += term[static_cast<std::size_t>(runs_[r].first + i)];
      }
    }
    levels[static_cast<std::size_t>(code)] = level;
  }
}

std::vector<std::int64_t> switching_counts(const CellArray& arr,
                                           const std::vector<int>& codes) {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(arr.cells()), 0);
  if (codes.empty()) return counts;
  std::vector<std::uint8_t> prev;
  std::vector<std::uint8_t> cur;
  arr.encode(codes[0], prev);
  for (std::size_t k = 1; k < codes.size(); ++k) {
    arr.encode(codes[k], cur);
    for (std::size_t c = 0; c < cur.size(); ++c) {
      if (cur[c] != prev[c]) ++counts[c];
    }
    std::swap(prev, cur);
  }
  return counts;
}

double switching_activity(const CellArray& arr,
                          const std::vector<int>& codes) {
  const auto counts = switching_counts(arr, codes);
  const auto& w = arr.weights();
  double acc = 0.0;
  for (std::size_t c = 0; c < w.size(); ++c) {
    acc += static_cast<double>(w[c]) * static_cast<double>(w[c]) *
           static_cast<double>(counts[c]);
  }
  return acc;
}

}  // namespace csdac::arch
