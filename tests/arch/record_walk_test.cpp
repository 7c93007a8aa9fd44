// The code record and its walk against the per-period-encode oracle.
//
// ArchSimulator::waveform and ete_predict walk a CodeRecord built once per
// job: per period, the switch ranges in cell order, a stable sort of the
// edges into reused buffers and a table read for event-free
// sub-intervals.  The loops below are the walk they replaced, kept here as
// the reference: re-encode every code, diff every cell, std::stable_sort
// the edges, evaluate every decay inline.  The two must agree bit for
// bit, in the waveform, in the ETE record and in every spectral metric.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "arch/dyn_sim.hpp"
#include "arch/ete.hpp"
#include "arch/weighting.hpp"
#include "dac/spectrum.hpp"
#include "mathx/alloc_counter.hpp"
#include "mathx/rng.hpp"
#include "mathx/transcendental.hpp"

namespace csdac::arch {
namespace {

std::vector<int> sine_codes(int nbits, int n, int cycles) {
  const int fs = (1 << nbits) - 1;
  const double mid = 0.5 * fs;
  const double amp = mid - 1.0;
  std::vector<int> codes(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const double phase = 2.0 * M_PI * cycles * k / n;
    long v = std::lround(mid + amp * std::sin(phase));
    codes[static_cast<std::size_t>(k)] =
        static_cast<int>(std::clamp(v, 0L, static_cast<long>(fs)));
  }
  return codes;
}

// --- The reference walks -------------------------------------------------

std::vector<double> reference_waveform(const CellArray& arr,
                                       const TimingParams& params,
                                       double v_lsb,
                                       const std::vector<int>& codes,
                                       const CellTiming& timing) {
  const std::size_t n_cells = static_cast<std::size_t>(arr.cells());
  const int os = params.oversample;
  const double ts = 1.0 / params.fs;
  const double dt_sub = ts / os;
  const double tau = params.tau;
  const auto& w = arr.weights();

  std::vector<double> out;
  std::vector<std::uint8_t> prev;
  std::vector<std::uint8_t> cur;
  arr.encode(codes.back(), prev);
  struct Edge {
    double t;
    int dlevel;
  };
  std::vector<Edge> events;
  double target = static_cast<double>(codes.back()) * v_lsb;
  double v = target;
  for (std::size_t k = 0; k < codes.size(); ++k) {
    events.clear();
    arr.encode(codes[k], cur);
    for (std::size_t c = 0; c < n_cells; ++c) {
      if (cur[c] == prev[c]) continue;
      const bool on = cur[c] != 0;
      events.push_back(Edge{edge_time(timing, c, on, ts),
                            on ? w[c] : -w[c]});
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Edge& a, const Edge& b) { return a.t < b.t; });
    std::swap(prev, cur);
    std::size_t e = 0;
    double t_cur = 0.0;
    for (int s = 0; s < os; ++s) {
      const double t_end = (s + 1) * dt_sub;
      while (e < events.size() && events[e].t <= t_end) {
        v = target + (v - target) * mathx::exp(-(events[e].t - t_cur) / tau);
        t_cur = events[e].t;
        target += events[e].dlevel * v_lsb;
        ++e;
      }
      v = target + (v - target) * mathx::exp(-(t_end - t_cur) / tau);
      t_cur = t_end;
      out.push_back(v);
    }
  }
  return out;
}

std::vector<double> reference_ete_record(const CellArray& arr,
                                         const CellTiming& timing,
                                         double v_lsb, double fs,
                                         const std::vector<int>& codes) {
  const std::size_t n_cells = static_cast<std::size_t>(arr.cells());
  const double ts = 1.0 / fs;
  const auto& w = arr.weights();
  std::vector<double> record(codes.size());
  std::vector<std::uint8_t> prev;
  std::vector<std::uint8_t> cur;
  arr.encode(codes.back(), prev);
  for (std::size_t k = 0; k < codes.size(); ++k) {
    arr.encode(codes[k], cur);
    double err = 0.0;
    for (std::size_t c = 0; c < n_cells; ++c) {
      if (cur[c] == prev[c]) continue;
      const bool on = cur[c] != 0;
      const double te = edge_time(timing, c, on, ts);
      const double delta = on ? 1.0 : -1.0;
      err -= fs * delta * w[c] * v_lsb * te;
    }
    record[k] = static_cast<double>(codes[k]) * v_lsb + err;
    std::swap(prev, cur);
  }
  return record;
}

// --- Helpers -------------------------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Index of the first bitwise difference, or -1 when identical.
long first_difference(const std::vector<double>& a,
                      const std::vector<double>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits(a[i]) != bits(b[i])) return static_cast<long>(i);
  }
  return -1;
}

void expect_same_metrics(const dac::SpectrumMetrics& got,
                         const dac::SpectrumResult& want) {
  EXPECT_EQ(got.fund_bin, want.fund_bin);
  EXPECT_EQ(bits(got.sfdr_db), bits(want.sfdr_db));
  EXPECT_EQ(bits(got.sndr_db), bits(want.sndr_db));
  EXPECT_EQ(bits(got.thd_db), bits(want.thd_db));
  EXPECT_EQ(bits(got.enob), bits(want.enob));
  EXPECT_EQ(bits(got.fund_db_fs), bits(want.fund_db_fs));
}

std::vector<CellArray> all_schemes(int nbits) {
  std::vector<CellArray> out;
  out.emplace_back(make_weighting(WeightingKind::kBinary, nbits));
  out.emplace_back(make_weighting(WeightingKind::kUnary, nbits));
  out.emplace_back(make_weighting(WeightingKind::kSegmented, nbits, 3));
  out.emplace_back(make_weighting(WeightingKind::kOptimized, nbits));
  return out;
}

/// Timings that cover the walk's branches: all edges tied (ideal), a
/// large random draw that pins many edges at the clamp, and a hand-made
/// draw with exact ties between distinct cells plus both clamp ends.
std::vector<CellTiming> timings(int cells, const TimingParams& p) {
  std::vector<CellTiming> out;
  out.push_back(ideal_cell_timing(cells));
  TimingParams wide = p;
  wide.sigma_t = 300e-12;
  wide.asym_sigma = 200e-12;
  auto rng = mathx::stream_rng(77, static_cast<std::uint64_t>(cells));
  out.push_back(draw_cell_timing(cells, wide, rng));
  CellTiming mixed = ideal_cell_timing(cells);
  const double ts = 1.0 / p.fs;
  for (int c = 0; c < cells; ++c) {
    const auto i = static_cast<std::size_t>(c);
    switch (c % 5) {
      case 0: mixed.dt[i] = 40e-12; break;   // ties with every 5th cell
      case 1: mixed.dt[i] = -ts; break;      // clamped at 0
      case 2: mixed.dt[i] = ts; break;       // clamped at 0.45 ts
      case 3: mixed.asym[i] = 90e-12; break;
      default: mixed.dt[i] = -20e-12 * c / cells; break;
    }
  }
  out.push_back(mixed);
  return out;
}

void check_walk(const CellArray& arr, const TimingParams& p,
                const std::vector<int>& codes, int cycles) {
  const double v_lsb = 1e-3;
  const ArchSimulator sim(arr, p, v_lsb);
  const CodeRecord record(arr, codes);
  for (const CellTiming& t : timings(arr.cells(), p)) {
    const auto want = reference_waveform(arr, p, v_lsb, codes, t);
    const auto got = sim.waveform(record, t);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(first_difference(got, want), -1);

    const auto want_ete = reference_ete_record(arr, t, v_lsb, p.fs, codes);
    if (codes.size() < 16) {
      // Too short for a spectrum: only the walks themselves compare.
      EXPECT_THROW((void)ete_predict(arr, t, v_lsb, p.fs, record, cycles),
                   std::invalid_argument);
      continue;
    }
    const EtePrediction pred =
        ete_predict(arr, t, v_lsb, p.fs, record, cycles);
    EXPECT_EQ(first_difference(pred.record, want_ete), -1);
    const auto ete_spec = dac::analyze_spectrum(
        want_ete, p.fs, {}, static_cast<std::size_t>(cycles));
    EXPECT_EQ(bits(pred.sfdr_db), bits(ete_spec.sfdr_db));
    EXPECT_EQ(bits(pred.sndr_db), bits(ete_spec.sndr_db));

    dac::SpectrumOptions opts;
    opts.max_freq = p.fs / 2.0;
    const auto want_spec =
        dac::analyze_spectrum(want, p.fs * p.oversample, opts,
                              static_cast<std::size_t>(cycles));
    expect_same_metrics(sim.spectrum(record, t, cycles), want_spec);
  }
}

// --- The record ----------------------------------------------------------

TEST(CodeRecord, SwitchesMatchPerPeriodEncodeDiff) {
  for (const CellArray& arr : all_schemes(8)) {
    SCOPED_TRACE(weighting_name(arr.scheme().kind));
    std::vector<int> codes = sine_codes(8, 128, 61);
    codes.insert(codes.end(), {17, 17, 17, 0, 255, 255});
    const CodeRecord record(arr, codes);
    ASSERT_EQ(record.size(), codes.size());
    std::vector<std::uint8_t> prev = arr.encode(codes.back());
    std::size_t most = 0;
    for (std::size_t k = 0; k < codes.size(); ++k) {
      const std::vector<std::uint8_t> cur = arr.encode(codes[k]);
      std::vector<std::uint8_t> walked = prev;
      std::size_t switching = 0;
      int last_cell = -1;
      for (const CodeRecord::Switch& sw : record.switches(k)) {
        ASSERT_GT(sw.count, 0);
        EXPECT_GT(sw.first, last_cell);  // ascending, disjoint ranges
        last_cell = sw.first + sw.count - 1;
        for (int c = sw.first; c <= last_cell; ++c) {
          const auto i = static_cast<std::size_t>(c);
          EXPECT_EQ(walked[i], sw.on ? 0 : 1) << "period " << k;
          walked[i] = sw.on ? 1 : 0;
        }
        switching += static_cast<std::size_t>(sw.count);
      }
      EXPECT_EQ(walked, cur) << "period " << k;
      most = std::max(most, switching);
      prev = cur;
    }
    EXPECT_EQ(record.max_switching_cells(), most);
  }
}

TEST(CodeRecord, RejectsBadCodesAndForeignArrays) {
  const CellArray bin(make_weighting(WeightingKind::kBinary, 6));
  const CellArray seg(make_weighting(WeightingKind::kSegmented, 6, 2));
  EXPECT_THROW(CodeRecord(bin, {0, 64}), std::out_of_range);
  EXPECT_THROW(CodeRecord(bin, {-1, 3}), std::out_of_range);

  const CodeRecord record(bin, sine_codes(6, 32, 3));
  EXPECT_TRUE(record.built_for(bin));
  EXPECT_FALSE(record.built_for(seg));
  TimingParams p;
  const ArchSimulator sim(seg, p, 1e-3);
  EXPECT_THROW((void)sim.waveform(record, ideal_cell_timing(seg.cells())),
               std::invalid_argument);
  EXPECT_THROW((void)ete_predict(seg, ideal_cell_timing(seg.cells()), 1e-3,
                                 p.fs, record, 3),
               std::invalid_argument);
  // Same cell count, other weights: still refused.
  WeightingScheme other = seg.scheme();
  other.kind = WeightingKind::kOptimized;
  other.weights = {5, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 3, 2, 1};
  const CellArray twin(other);
  ASSERT_EQ(twin.cells(), seg.cells());
  EXPECT_FALSE(CodeRecord(seg, {1, 2}).built_for(twin));
  const ArchSimulator bin_sim(bin, p, 1e-3);
  EXPECT_THROW((void)bin_sim.waveform(record, ideal_cell_timing(3)),
               std::invalid_argument);
}

// A 14-bit unary array under a near-Nyquist sine switches ~2.7e8 cells
// over 16384 samples; the record must stay O(samples x distinct weights).
TEST(CodeRecord, HostileUnaryRecordStaysSmall) {
  const CellArray arr(make_weighting(WeightingKind::kUnary, 14));
  const std::vector<int> codes = sine_codes(14, 16384, 8191);
  const mathx::ScopedAllocCounting counting;
  const CodeRecord record(arr, codes);
  EXPECT_LT(counting.so_far().bytes, 4 << 20);
  EXPECT_GT(record.max_switching_cells(), 16000u);
}

// --- The walk against the oracle ------------------------------------------

TEST(RecordWalk, MatchesOracleForEverySchemeAndOversample) {
  const int nbits = 8;
  const int n = 128;
  for (const int cycles : {7, 61}) {  // gentle and near-Nyquist swings
    const auto codes = sine_codes(nbits, n, cycles);
    for (const CellArray& arr : all_schemes(nbits)) {
      for (const int os : {2, 8, 16}) {
        SCOPED_TRACE(::testing::Message()
                     << weighting_name(arr.scheme().kind) << " os " << os
                     << " cycles " << cycles);
        TimingParams p;
        p.oversample = os;
        check_walk(arr, p, codes, cycles);
      }
    }
  }
}

TEST(RecordWalk, LongPeriodsTakeTheMergePath) {
  // A unary array under a near-Nyquist sine switches far more than 32
  // cells per period, so the edge sort merges insertion-sorted runs.
  const CellArray arr(make_weighting(WeightingKind::kUnary, 8));
  const auto codes = sine_codes(8, 128, 61);
  ASSERT_GT(CodeRecord(arr, codes).max_switching_cells(), 200u);
  TimingParams p;
  p.oversample = 8;
  check_walk(arr, p, codes, 61);
}

TEST(RecordWalk, RepeatedCodesAndOneCodeRecords) {
  for (const CellArray& arr : all_schemes(6)) {
    SCOPED_TRACE(weighting_name(arr.scheme().kind));
    // Every code held for three periods: two of three periods switch
    // nothing and decay by the table alone.
    std::vector<int> held;
    for (int code : sine_codes(6, 32, 5)) held.insert(held.end(), 3, code);
    TimingParams p;
    p.oversample = 8;
    check_walk(arr, p, held, 5);
    // One code: the wrap-around transition is to itself.
    p.oversample = 16;
    check_walk(arr, p, {41}, 1);
  }
}

}  // namespace
}  // namespace csdac::arch
