#include "digital/decoder.hpp"

#include <cmath>
#include <stdexcept>

namespace csdac::digital {
namespace {

/// Builds all 2^bits minterms over the given input nodes (LSB first),
/// sharing the per-bit inverters. Returns the minterm node ids.
std::vector<int> build_minterms(GateNetlist& net,
                                const std::vector<int>& bits,
                                double delay) {
  const int n = static_cast<int>(bits.size());
  std::vector<int> inv(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    inv[i] = net.add_gate(GateKind::kNot, bits[i], -1, delay);
  }
  const int count = 1 << n;
  std::vector<int> minterms(static_cast<std::size_t>(count));
  for (int v = 0; v < count; ++v) {
    int node = ((v >> 0) & 1) ? bits[0] : inv[0];
    for (int bit = 1; bit < n; ++bit) {
      const int lit = ((v >> bit) & 1) ? bits[static_cast<std::size_t>(bit)]
                                       : inv[static_cast<std::size_t>(bit)];
      node = net.add_gate(GateKind::kAnd2, node, lit, delay);
    }
    minterms[static_cast<std::size_t>(v)] = node;
  }
  return minterms;
}

/// Thermometer "greater-than" functions from minterms:
/// gt[i] = OR of minterms v > i, for i = 0 .. count-2.
/// Built as a suffix-OR chain so each gt costs one OR2.
std::vector<int> build_greater_than(GateNetlist& net,
                                    const std::vector<int>& minterms,
                                    double delay) {
  const int count = static_cast<int>(minterms.size());
  // suffix[i] = OR of minterms i..count-1.
  std::vector<int> suffix(static_cast<std::size_t>(count));
  suffix[static_cast<std::size_t>(count - 1)] =
      minterms[static_cast<std::size_t>(count - 1)];
  for (int i = count - 2; i >= 0; --i) {
    suffix[static_cast<std::size_t>(i)] =
        net.add_gate(GateKind::kOr2, minterms[static_cast<std::size_t>(i)],
                     suffix[static_cast<std::size_t>(i + 1)], delay);
  }
  // gt[i] = suffix[i+1].
  std::vector<int> gt(static_cast<std::size_t>(count - 1));
  for (int i = 0; i + 1 < count; ++i) {
    gt[static_cast<std::size_t>(i)] = suffix[static_cast<std::size_t>(i + 1)];
  }
  return gt;
}

}  // namespace

ThermometerDecoder::ThermometerDecoder(int row_bits, int col_bits,
                                       double gate_delay)
    : row_bits_(row_bits), col_bits_(col_bits) {
  if (row_bits < 1 || col_bits < 1 || row_bits + col_bits > 12 ||
      !(gate_delay > 0.0)) {
    throw std::invalid_argument("ThermometerDecoder: bad configuration");
  }
  // Inputs LSB-first: column field first, then row field. Names are built
  // by append: GCC 12 misreads "c" + std::string&& as overlapping copies
  // (a -Wrestrict false positive).
  std::vector<int> col_in, row_in;
  for (int i = 0; i < col_bits; ++i) {
    col_in.push_back(
        net_.add_input(std::string("c").append(std::to_string(i))));
  }
  for (int i = 0; i < row_bits; ++i) {
    row_in.push_back(
        net_.add_input(std::string("r").append(std::to_string(i))));
  }
  const auto col_min = build_minterms(net_, col_in, gate_delay);
  const auto row_min = build_minterms(net_, row_in, gate_delay);
  const auto col_gt = build_greater_than(net_, col_min, gate_delay);
  const auto row_gt = build_greater_than(net_, row_min, gate_delay);

  const int rows = 1 << row_bits;
  const int cols = 1 << col_bits;
  out_nodes_.reserve(static_cast<std::size_t>(outputs()));
  for (int j = 0; j < rows; ++j) {
    for (int i = 0; i < cols; ++i) {
      const int k = j * cols + i;
      if (k >= outputs()) break;
      // (r > j) OR (r == j AND c > i); r == j is the row minterm.
      int local;
      if (i + 1 < cols) {
        local = net_.add_gate(GateKind::kAnd2,
                              row_min[static_cast<std::size_t>(j)],
                              col_gt[static_cast<std::size_t>(i)],
                              gate_delay);
      } else {
        // i = cols-1: c > i is impossible; the local term is constant 0.
        local = net_.add_gate(GateKind::kConst0);
      }
      int node;
      if (j + 1 < rows) {
        node = net_.add_gate(GateKind::kOr2,
                             row_gt[static_cast<std::size_t>(j)], local,
                             gate_delay);
      } else {
        // Top row: r > j impossible; output is the local term alone.
        node = net_.add_gate(GateKind::kBuf, local, -1, gate_delay);
      }
      out_nodes_.push_back(node);
    }
  }
}

std::vector<bool> ThermometerDecoder::decode(int value) const {
  if (value < 0 || value >= (1 << input_bits())) {
    throw std::out_of_range("ThermometerDecoder::decode: value");
  }
  std::vector<bool> in(static_cast<std::size_t>(input_bits()));
  for (int i = 0; i < input_bits(); ++i) {
    in[static_cast<std::size_t>(i)] = ((value >> i) & 1) != 0;
  }
  const auto ev = net_.evaluate(in);
  std::vector<bool> out(out_nodes_.size());
  for (std::size_t k = 0; k < out_nodes_.size(); ++k) {
    out[k] = ev.value[static_cast<std::size_t>(out_nodes_[k])];
  }
  return out;
}

double ThermometerDecoder::output_arrival(int value, int k) const {
  if (k < 0 || k >= outputs()) {
    throw std::out_of_range("output_arrival: k");
  }
  std::vector<bool> in(static_cast<std::size_t>(input_bits()));
  for (int i = 0; i < input_bits(); ++i) {
    in[static_cast<std::size_t>(i)] = ((value >> i) & 1) != 0;
  }
  const auto ev = net_.evaluate(in);
  return ev.arrival[static_cast<std::size_t>(
      out_nodes_[static_cast<std::size_t>(k)])];
}

double ThermometerDecoder::worst_arrival() const {
  double worst = 0.0;
  for (int node : out_nodes_) {
    worst = std::max(worst, net_.arrival_bound(node));
  }
  return worst;
}

int ThermometerDecoder::gate_count() const { return net_.gate_count(); }

DummyDecoder::DummyDecoder(int bits, int depth, double gate_delay)
    : bits_(bits) {
  if (bits < 1 || depth < 1 || !(gate_delay > 0.0)) {
    throw std::invalid_argument("DummyDecoder: bad configuration");
  }
  for (int b = 0; b < bits; ++b) {
    int node = net_.add_input(std::string("b").append(std::to_string(b)));
    for (int d = 0; d < depth; ++d) {
      node = net_.add_gate(GateKind::kBuf, node, -1, gate_delay);
    }
    out_nodes_.push_back(node);
  }
}

DummyDecoder DummyDecoder::matched(const ThermometerDecoder& dec, int bits,
                                   double gate_delay) {
  const int depth = std::max(
      1, static_cast<int>(std::lround(dec.worst_arrival() / gate_delay)));
  return DummyDecoder(bits, depth, gate_delay);
}

double DummyDecoder::delay() const {
  return net_.arrival_bound(out_nodes_.front());
}

std::vector<bool> DummyDecoder::pass(int value) const {
  std::vector<bool> in(static_cast<std::size_t>(bits_));
  for (int i = 0; i < bits_; ++i) {
    in[static_cast<std::size_t>(i)] = ((value >> i) & 1) != 0;
  }
  const auto ev = net_.evaluate(in);
  std::vector<bool> out(out_nodes_.size());
  for (std::size_t k = 0; k < out_nodes_.size(); ++k) {
    out[k] = ev.value[static_cast<std::size_t>(out_nodes_[k])];
  }
  return out;
}

}  // namespace csdac::digital
