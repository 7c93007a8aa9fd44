#include "arch/dyn_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "arch/instruments.hpp"
#include "mathx/transcendental.hpp"

namespace csdac::arch {

void TimingParams::validate() const {
  if (!std::isfinite(fs) || !(fs > 0.0)) {
    throw std::invalid_argument("TimingParams: fs must be finite and > 0");
  }
  if (oversample < 2 || oversample > 1024) {
    throw std::invalid_argument(
        "TimingParams: oversample must be in [2, 1024]");
  }
  if (!std::isfinite(tau) || !(tau > 0.0)) {
    throw std::invalid_argument("TimingParams: tau must be finite and > 0");
  }
  const double ts = 1.0 / fs;
  if (!std::isfinite(sigma_t) || sigma_t < 0.0 || sigma_t >= ts) {
    throw std::invalid_argument(
        "TimingParams: sigma_t must be finite, >= 0 and < 1/fs");
  }
  if (!std::isfinite(asym_sigma) || asym_sigma < 0.0 || asym_sigma >= ts) {
    throw std::invalid_argument(
        "TimingParams: asym_sigma must be finite, >= 0 and < 1/fs");
  }
}

CellTiming ideal_cell_timing(int cells) {
  CellTiming t;
  t.dt.assign(static_cast<std::size_t>(cells), 0.0);
  t.asym.assign(static_cast<std::size_t>(cells), 0.0);
  return t;
}

CellTiming draw_cell_timing(int cells, const TimingParams& params,
                            mathx::Xoshiro256& rng) {
  CellTiming t;
  t.dt.resize(static_cast<std::size_t>(cells));
  t.asym.resize(static_cast<std::size_t>(cells));
  for (int c = 0; c < cells; ++c) {
    t.dt[static_cast<std::size_t>(c)] =
        params.sigma_t * mathx::normal(rng);
    t.asym[static_cast<std::size_t>(c)] =
        params.asym_sigma * mathx::normal(rng);
  }
  return t;
}

std::vector<double> draw_period_jitter(std::size_t periods, double sigma,
                                       mathx::Xoshiro256& rng) {
  std::vector<double> shift(periods);
  for (double& s : shift) s = sigma * mathx::normal(rng);
  return shift;
}

double edge_time(const CellTiming& t, std::size_t c, bool turning_on,
                 double ts, double shift) {
  const double half_asym = 0.5 * t.asym[c];
  const double raw = kNominalEdgeFrac * ts + t.dt[c] +
                     (turning_on ? half_asym : -half_asym) + shift;
  return std::clamp(raw, 0.0, kLatestEdgeFrac * ts);
}

CodeRecord::CodeRecord(const CellArray& arr, std::vector<int> codes)
    : codes_(std::move(codes)), runs_(arr.runs()), cells_(arr.cells()) {
  for (int code : codes_) {
    if (code < 0 || code > arr.full_scale()) {
      throw std::out_of_range("CodeRecord: code out of range");
    }
  }
  // Cells on in each equal-weight run under greedy encoding.
  const auto on_counts = [&](int code, std::vector<std::int32_t>& on) {
    int rem = code;
    for (std::size_t r = 0; r < runs_.size(); ++r) {
      on[r] = CellArray::take_run(runs_[r], rem);
    }
  };
  begin_.reserve(codes_.size() + 1);
  begin_.push_back(0);
  if (codes_.empty()) return;
  std::vector<std::int32_t> prev(runs_.size());
  std::vector<std::int32_t> cur(runs_.size());
  on_counts(codes_.back(), prev);
  for (int code : codes_) {
    on_counts(code, cur);
    std::size_t switching = 0;
    for (std::size_t r = 0; r < runs_.size(); ++r) {
      if (cur[r] == prev[r]) continue;
      const bool on = cur[r] > prev[r];
      const std::int32_t lo = on ? prev[r] : cur[r];
      const std::int32_t hi = on ? cur[r] : prev[r];
      switches_.push_back({runs_[r].first + lo, hi - lo, on});
      switching += static_cast<std::size_t>(hi - lo);
    }
    begin_.push_back(switches_.size());
    max_switching_ = std::max(max_switching_, switching);
    std::swap(prev, cur);
  }
}

bool CodeRecord::built_for(const CellArray& arr) const {
  if (arr.cells() != cells_) return false;
  // Weights are descending, so matching both ends of every run pins it.
  const auto& w = arr.weights();
  for (const CellArray::WeightRun& r : runs_) {
    if (w[static_cast<std::size_t>(r.first)] != r.weight ||
        w[static_cast<std::size_t>(r.first + r.count - 1)] != r.weight) {
      return false;
    }
  }
  return true;
}

namespace {

struct Edge {
  double t;
  double dlevel;  // signed amplitude of the switching cells [LSB]
  double kick;    // their feedthrough kick [V]
};

/// Stable sort by edge instant in reused storage: insertion sort on runs
/// of kRun edges, then bottom-up std::merge passes through `scratch`.
/// Equal instants keep their insertion (cell) order, which is the order
/// std::stable_sort gives, without its per-call buffer.
void sort_edges(std::vector<Edge>& ev, std::vector<Edge>& scratch) {
  constexpr std::size_t kRun = 32;
  const std::size_t n = ev.size();
  for (std::size_t lo = 0; lo < n; lo += kRun) {
    const std::size_t hi = std::min(n, lo + kRun);
    for (std::size_t i = lo + 1; i < hi; ++i) {
      const Edge e = ev[i];
      std::size_t j = i;
      for (; j > lo && e.t < ev[j - 1].t; --j) ev[j] = ev[j - 1];
      ev[j] = e;
    }
  }
  if (n <= kRun) return;
  const auto before = [](const Edge& a, const Edge& b) { return a.t < b.t; };
  scratch.resize(n);
  for (std::size_t width = kRun; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const std::size_t mid = std::min(n, lo + width);
      const std::size_t hi = std::min(n, lo + 2 * width);
      std::merge(ev.begin() + lo, ev.begin() + mid, ev.begin() + mid,
                 ev.begin() + hi, scratch.begin() + lo, before);
    }
    ev.swap(scratch);
  }
}

}  // namespace

void check_walk_inputs(const CellArray& arr, const CodeRecord& record,
                       const CellTiming& timing, const char* who) {
  const std::size_t n_cells = static_cast<std::size_t>(arr.cells());
  if (timing.dt.size() != n_cells || timing.asym.size() != n_cells) {
    throw std::invalid_argument(std::string(who) +
                                ": timing size != cell count");
  }
  if (!record.built_for(arr)) {
    throw std::invalid_argument(std::string(who) +
                                ": record built for another cell array");
  }
}

ArchSimulator::ArchSimulator(CellArray array, TimingParams params,
                             double v_lsb, const OutputModel& m)
    : array_(std::move(array)),
      params_(params),
      v_lsb_(v_lsb),
      droop_(m.droop),
      differential_(m.differential) {
  params_.validate();
  if (!std::isfinite(v_lsb_) || !(v_lsb_ > 0.0)) {
    throw std::invalid_argument("ArchSimulator: v_lsb must be > 0");
  }
  const auto& w = array_.weights();
  const auto per_cell = [&](const auto& v) {
    return v.empty() || v.size() == w.size();
  };
  if (!per_cell(m.amplitude) || !per_cell(m.feedthrough) ||
      !std::isfinite(m.droop) || m.droop < 0.0) {
    throw std::invalid_argument(
        "ArchSimulator: output model needs one amplitude and kick per cell "
        "(or none) and a finite droop >= 0");
  }
  amp_prefix_.assign(w.size() + 1, 0.0);
  kick_v_.assign(w.size(), 0.0);
  for (std::size_t c = 0; c < w.size(); ++c) {
    amp_prefix_[c + 1] =
        amp_prefix_[c] + (m.amplitude.empty() ? w[c] : m.amplitude[c]);
    if (!m.feedthrough.empty() && !m.differential) {
      kick_v_[c] = m.feedthrough[c] * v_lsb_;
    }
  }
  const int os = params_.oversample;
  const double dt_sub = (1.0 / params_.fs) / os;
  decay_.resize(static_cast<std::size_t>(os));
  for (int s = 0; s < os; ++s) {
    const double t_end = (s + 1) * dt_sub;
    const double t_cur = s * dt_sub;
    decay_[static_cast<std::size_t>(s)] =
        mathx::exp(-(t_end - t_cur) / params_.tau);
  }
}

double ArchSimulator::v_of_level(double level) const {
  return level * v_lsb_ / (1.0 + level * droop_);
}

std::vector<double> ArchSimulator::waveform(
    const CodeRecord& record, const CellTiming& timing,
    std::span<const double> jitter) const {
  check_walk_inputs(array_, record, timing, "ArchSimulator");
  if (!jitter.empty() && jitter.size() != record.size()) {
    throw std::invalid_argument("ArchSimulator: jitter size != record size");
  }
  if (record.size() == 0) return {};
  arch_instruments().waveforms.add(1);

  const int os = params_.oversample;
  const double ts = 1.0 / params_.fs;
  const double dt_sub = ts / os;
  const double tau = params_.tau;
  const auto& codes = record.codes();
  const auto& runs = array_.runs();
  const std::vector<double>& amp = amp_prefix_;
  const std::vector<double>& kick = kick_v_;
  const auto target_of = [&](double level) {
    const double v = v_of_level(level);
    return differential_ ? v - v_of_level(amp.back() - level) : v;
  };
  // A linear output (no droop, one rail) moves the target by each edge's
  // amplitude times v_lsb, cell by cell: with the integer weights that is
  // the ideal walk, bit for bit.  Otherwise the target is v(L), and the
  // cells of a switch range are one edge when their weight run shares one
  // timing and kick.
  const bool linear = droop_ == 0.0 && !differential_;
  std::vector<std::uint8_t> lumped;  // per weight run
  for (const CellArray::WeightRun& r : runs) {
    const auto c0 = static_cast<std::size_t>(r.first);
    bool same = !linear;
    for (std::size_t c = c0 + 1; same && c < c0 + r.count; ++c) {
      same = timing.dt[c] == timing.dt[c0] &&
             timing.asym[c] == timing.asym[c0] && kick[c] == kick[c0];
    }
    lumped.push_back(same);
  }

  std::vector<double> out;
  out.reserve(codes.size() * static_cast<std::size_t>(os));

  // The record is the periodic steady state: the walk starts settled at
  // codes.back() and period 0 carries the wrap-around transition to
  // codes.front().  A coherent record then matches the DFT's periodic
  // extension exactly — starting cold at codes.front() instead leaves a
  // one-off start-up transient that smears ~-60 dB/bin of broadband
  // error across the whole band and buries the quantization floor.
  std::vector<Edge> events;
  std::vector<Edge> scratch;
  std::vector<double> decays;  // the period's decay factors, in walk order
  if (linear) events.reserve(record.max_switching_cells());

  double level = 0.0;  // [LSB]
  int rem = codes.back();
  for (const CellArray::WeightRun& r : runs) {
    const auto c0 = static_cast<std::size_t>(r.first);
    level += amp[c0 + CellArray::take_run(r, rem)] - amp[c0];
  }
  double target = target_of(level);
  double v = target;  // start settled
  for (std::size_t k = 0; k < codes.size(); ++k) {
    events.clear();
    const double shift = jitter.empty() ? 0.0 : jitter[k];
    std::size_t r = 0;  // the weight run holding the range
    for (const CodeRecord::Switch& sw : record.switches(k)) {
      while (r + 1 < runs.size() && runs[r + 1].first <= sw.first) ++r;
      const std::int32_t len = lumped[r] ? sw.count : 1;
      const double sign = sw.on ? 1.0 : -1.0;
      for (std::int32_t i = 0; i < sw.count; i += len) {
        const auto c = static_cast<std::size_t>(sw.first + i);
        events.push_back({edge_time(timing, c, sw.on, ts, shift),
                          sign * (amp[c + len] - amp[c]), len * kick[c]});
      }
    }
    // stable: equal instants keep cell-index order, so the walk is
    // deterministic for any timing draw.
    sort_edges(events, scratch);
    // The decays into each event and from a sub-interval's last event to
    // its grid point depend on the instants only: take their exps in one
    // batch, in the order the walk below reads them.
    decays.clear();
    std::size_t e = 0;
    double t_cur = 0.0;
    for (int s = 0; s < os; ++s) {
      const double t_end = (s + 1) * dt_sub;
      if (e < events.size() && events[e].t <= t_end) {
        while (e < events.size() && events[e].t <= t_end) {
          decays.push_back(-(events[e].t - t_cur) / tau);
          t_cur = events[e].t;
          ++e;
        }
        decays.push_back(-(t_end - t_cur) / tau);
      }
      t_cur = t_end;
    }
    mathx::exp_batch(decays);
    const double* decay = decays.data();
    e = 0;
    for (int s = 0; s < os; ++s) {
      const double t_end = (s + 1) * dt_sub;
      if (e < events.size() && events[e].t <= t_end) {
        while (e < events.size() && events[e].t <= t_end) {
          v = target + (v - target) * *decay++;
          v += events[e].kick;
          level += events[e].dlevel;
          target = linear ? target + events[e].dlevel * v_lsb_
                          : target_of(level);
          ++e;
        }
        v = target + (v - target) * *decay++;
      } else {
        // No event since the last grid point: a whole sub-interval.
        v = target + (v - target) * decay_[static_cast<std::size_t>(s)];
      }
      out.push_back(v);
    }
  }
  return out;
}

std::vector<double> ArchSimulator::period_end_samples(
    const CodeRecord& record, const CellTiming& timing,
    std::span<const double> jitter) const {
  const std::vector<double> wave = waveform(record, timing, jitter);
  const auto os = static_cast<std::size_t>(params_.oversample);
  std::vector<double> out;
  out.reserve(record.size());
  for (std::size_t i = os - 1; i < wave.size(); i += os) out.push_back(wave[i]);
  return out;
}

double ArchSimulator::glitch_energy(const CellTiming& timing, int code_from,
                                    int code_to) const {
  const CodeRecord record(array_, {code_from, code_to});
  const std::vector<double> actual = waveform(record, timing);
  ArchSimulator unkicked = *this;
  std::fill(unkicked.kick_v_.begin(), unkicked.kick_v_.end(), 0.0);
  const std::vector<double> ref =
      unkicked.waveform(record, ideal_cell_timing(array_.cells()));
  const int os = params_.oversample;
  const double dt_sub = 1.0 / (params_.fs * os);
  double energy = 0.0;
  for (std::size_t i = static_cast<std::size_t>(os); i < actual.size(); ++i) {
    energy += std::abs(actual[i] - ref[i]) * dt_sub;
  }
  return energy;
}

dac::SpectrumMetrics ArchSimulator::spectrum(const CodeRecord& record,
                                             const CellTiming& timing,
                                             int fund_cycles) const {
  const std::vector<double> wave = waveform(record, timing);
  dac::SpectrumOptions opts;
  // The record is oversampled by `oversample`; only the converter's own
  // band matters (the zero-order-hold images above fs/2 are not spurs).
  opts.max_freq = params_.fs / 2.0;
  std::vector<double> bin_power;
  return dac::spectrum_metrics(wave, params_.fs * params_.oversample, opts,
                               static_cast<std::size_t>(fund_cycles),
                               bin_power);
}

}  // namespace csdac::arch
