#include "arch/ete.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "arch/instruments.hpp"

namespace csdac::arch {

EtePrediction ete_predict(const CellArray& arr, const CellTiming& timing,
                          double v_lsb, double fs, const CodeRecord& record,
                          int fund_cycles) {
  check_walk_inputs(arr, record, timing, "ete_predict");
  if (record.size() == 0) return {};
  arch_instruments().ete_evals.add(1);

  const double ts = 1.0 / fs;
  const auto& w = arr.weights();
  const auto& codes = record.codes();
  std::vector<double> out(codes.size());
  // Like ArchSimulator::waveform, the record is the periodic steady
  // state: sample 0 carries the error of the wrap-around transition from
  // codes.back(), so coherent records have no start-up transient.
  for (std::size_t k = 0; k < codes.size(); ++k) {
    double err = 0.0;
    for (const CodeRecord::Switch& sw : record.switches(k)) {
      const double delta = sw.on ? 1.0 : -1.0;
      for (std::int32_t i = 0; i < sw.count; ++i) {
        const auto c = static_cast<std::size_t>(sw.first + i);
        const double te = edge_time(timing, c, sw.on, ts);
        err -= fs * delta * w[c] * v_lsb * te;
      }
    }
    out[k] = static_cast<double>(codes[k]) * v_lsb + err;
  }

  std::vector<double> bin_power;
  const dac::SpectrumMetrics r = dac::spectrum_metrics(
      out, fs, {}, static_cast<std::size_t>(fund_cycles), bin_power);
  EtePrediction p;
  p.record = std::move(out);
  p.sfdr_db = r.sfdr_db;
  p.sndr_db = r.sndr_db;
  return p;
}

double ete_expected_sndr_db(const CellArray& arr,
                            const std::vector<int>& codes,
                            const TimingParams& params) {
  params.validate();
  if (codes.empty()) return 300.0;
  const auto [lo, hi] = std::minmax_element(codes.begin(), codes.end());
  const double amp = 0.5 * (*hi - *lo);
  const double sigma_eff2 = params.sigma_t * params.sigma_t +
                            0.25 * params.asym_sigma * params.asym_sigma;
  const double activity = switching_activity(arr, codes);
  const double noise = params.fs * params.fs * sigma_eff2 * activity /
                       static_cast<double>(codes.size());
  if (!(noise > 0.0) || !(amp > 0.0)) return 300.0;
  return 10.0 * std::log10(0.5 * amp * amp / noise);
}

}  // namespace csdac::arch
