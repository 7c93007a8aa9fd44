#include "layout/floorplan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace csdac::layout {
namespace {

LefMacro cs_macro(const FloorplanOptions& o) {
  LefMacro m;
  m.name = "CS_CELL";
  m.width = o.cs_cell_w_um;
  m.height = o.cs_cell_h_um;
  m.pins = {
      {"SW", "INPUT", "METAL2", 1.0, o.cs_cell_h_um - 1.5, 1.6,
       o.cs_cell_h_um - 0.9},
      {"SWB", "INPUT", "METAL2", 2.2, o.cs_cell_h_um - 1.5, 2.8,
       o.cs_cell_h_um - 0.9},
      {"OUTP", "OUTPUT", "METAL3", 4.0, o.cs_cell_h_um - 1.5, 4.6,
       o.cs_cell_h_um - 0.9},
      {"OUTN", "OUTPUT", "METAL3", 5.2, o.cs_cell_h_um - 1.5, 5.8,
       o.cs_cell_h_um - 0.9},
      {"VBIAS", "INPUT", "METAL1", 0.4, 0.4, 1.0, 1.0},
  };
  return m;
}

LefMacro latch_macro(const FloorplanOptions& o) {
  LefMacro m;
  m.name = "LATCH_SW_DRV";
  m.width = o.latch_cell_w_um;
  m.height = o.latch_cell_h_um;
  m.pins = {
      {"D", "INPUT", "METAL2", 1.0, 0.4, 1.6, 1.0},
      {"CK", "INPUT", "METAL2", 2.2, 0.4, 2.8, 1.0},
      {"Q", "OUTPUT", "METAL2", 4.0, 0.4, 4.6, 1.0},
      {"QB", "OUTPUT", "METAL2", 5.2, 0.4, 5.8, 1.0},
  };
  return m;
}

LefMacro decoder_macro(const FloorplanOptions& o, double width_um,
                       const std::string& name, int outputs) {
  LefMacro m;
  m.name = name;
  m.width = width_um;
  m.height = o.decoder_h_um;
  m.pins.push_back({"CK", "INPUT", "METAL2", 0.4, 0.4, 1.0, 1.0});
  for (int i = 0; i < outputs; ++i) {
    const double x = 2.0 + 1.2 * i;
    // append, not "T" + std::string&&: GCC 12 misreads that as overlapping
    // copies (a -Wrestrict false positive).
    m.pins.push_back({std::string("T").append(std::to_string(i)), "OUTPUT",
                      "METAL2", x, 0.2, x + 0.6, 0.8});
  }
  return m;
}

}  // namespace

Floorplan build_floorplan(const core::DacSpec& spec,
                          const FloorplanOptions& opts) {
  spec.validate();
  Floorplan fp;
  const int n_unary = spec.num_unary();
  const int bin_cols = std::min(4, spec.binary_bits);

  // Unary sub-grid: smallest near-square grid holding all unary sources.
  const int ucols = static_cast<int>(std::ceil(std::sqrt(
      static_cast<double>(n_unary))));
  const int rows = (n_unary + ucols - 1) / ucols;
  const ArrayGeometry ugeo{rows, ucols, opts.cs_cell_w_um * 1e-6,
                           opts.cs_cell_h_um * 1e-6};
  fp.unary_sequence = make_sequence(opts.scheme, ugeo, n_unary, opts.seed);

  const int full_cols = ucols + bin_cols;
  fp.cs_array = ArrayGeometry{rows, full_cols, opts.cs_cell_w_um * 1e-6,
                              opts.cs_cell_h_um * 1e-6};
  // Binary columns sit in the middle of the array (Fig. 5).
  const int bin_start = (full_cols - bin_cols) / 2;
  for (int j = 0; j < bin_cols; ++j) {
    fp.binary_columns.push_back(bin_start + j);
  }
  auto map_col = [&](int ucol) {
    return ucol < bin_start ? ucol : ucol + bin_cols;
  };

  const double dbu = opts.dbu_per_micron;
  auto to_dbu = [&](double um) {
    return static_cast<long long>(std::llround(um * dbu));
  };

  DefDesign& d = fp.def;
  d.name = "csdac_" + std::to_string(spec.nbits) + "b";
  d.dbu_per_micron = opts.dbu_per_micron;

  const double cs_region_h = rows * opts.cs_cell_h_um;
  const int latch_count = n_unary + spec.binary_bits;
  const int latch_rows = (latch_count + full_cols - 1) / full_cols;
  const double latch_y0 = cs_region_h + opts.region_gap_um;
  const double latch_region_h = latch_rows * opts.latch_cell_h_um;
  const double dec_y0 = latch_y0 + latch_region_h + opts.region_gap_um;
  const double width_um = full_cols * opts.cs_cell_w_um;
  d.die_x0 = 0;
  d.die_y0 = 0;
  d.die_x1 = to_dbu(width_um);
  d.die_y1 = to_dbu(dec_y0 + opts.decoder_h_um);

  // Current-source array: unary cells in switching order.
  DefNet outp{"outp", {}};
  DefNet outn{"outn", {}};
  DefNet vbias{"vbias", {}};
  for (int k = 0; k < n_unary; ++k) {
    const int cell = fp.unary_sequence[static_cast<std::size_t>(k)];
    const int r = ugeo.row_of(cell);
    const int c = map_col(ugeo.col_of(cell));
    DefComponent comp;
    comp.name = "cs_u" + std::to_string(k);
    comp.macro = "CS_CELL";
    comp.x = to_dbu(c * opts.cs_cell_w_um);
    comp.y = to_dbu(r * opts.cs_cell_h_um);
    d.components.push_back(comp);
    outp.connections.push_back({comp.name, "OUTP"});
    outn.connections.push_back({comp.name, "OUTN"});
    vbias.connections.push_back({comp.name, "VBIAS"});
  }
  // Binary cells: one per bit, stacked in the dedicated center columns.
  for (int j = 0; j < spec.binary_bits; ++j) {
    const int col = fp.binary_columns[static_cast<std::size_t>(
        j % std::max(bin_cols, 1))];
    const int r = (j / std::max(bin_cols, 1)) + rows / 2;
    DefComponent comp;
    comp.name = "cs_b" + std::to_string(j);
    comp.macro = "CS_CELL";
    comp.x = to_dbu(col * opts.cs_cell_w_um);
    comp.y = to_dbu(std::min(r, rows - 1) * opts.cs_cell_h_um);
    d.components.push_back(comp);
    outp.connections.push_back({comp.name, "OUTP"});
    outn.connections.push_back({comp.name, "OUTN"});
    vbias.connections.push_back({comp.name, "VBIAS"});
  }

  // Latch & switch array: row-major fill; binary latches in the middle of
  // the array (Fig. 5), i.e. they take the central slots of the middle row.
  const int mid_slot_base =
      (latch_rows / 2) * full_cols + (full_cols - spec.binary_bits) / 2;
  std::vector<std::string> slot_owner(
      static_cast<std::size_t>(latch_rows * full_cols));
  for (int j = 0; j < spec.binary_bits; ++j) {
    slot_owner[static_cast<std::size_t>(mid_slot_base + j)] =
        "lat_b" + std::to_string(j);
  }
  int next_unary = 0;
  for (int s = 0; s < latch_rows * full_cols; ++s) {
    auto& owner = slot_owner[static_cast<std::size_t>(s)];
    if (owner.empty() && next_unary < n_unary) {
      owner = "lat_u" + std::to_string(next_unary++);
    }
  }
  for (int s = 0; s < latch_rows * full_cols; ++s) {
    const auto& owner = slot_owner[static_cast<std::size_t>(s)];
    if (owner.empty()) continue;
    DefComponent comp;
    comp.name = owner;
    comp.macro = "LATCH_SW_DRV";
    comp.x = to_dbu((s % full_cols) * opts.latch_cell_w_um);
    comp.y = to_dbu(latch_y0 + (s / full_cols) * opts.latch_cell_h_um);
    d.components.push_back(comp);
  }

  // Decoder blocks.
  DefComponent therm{"dec_therm", "THERM_DEC", to_dbu(0.0), to_dbu(dec_y0),
                     "N"};
  DefComponent dummy{"dec_dummy", "DUMMY_DEC", to_dbu(width_um * 0.75),
                     to_dbu(dec_y0), "N"};
  d.components.push_back(therm);
  d.components.push_back(dummy);

  // Nets: decoder -> latch, latch -> cell, shared output/bias rails.
  for (int k = 0; k < n_unary; ++k) {
    DefNet dec_net{"t" + std::to_string(k),
                   {{"dec_therm", "T" + std::to_string(k)},
                    {"lat_u" + std::to_string(k), "D"}}};
    DefNet drv_net{"sw_u" + std::to_string(k),
                   {{"lat_u" + std::to_string(k), "Q"},
                    {"cs_u" + std::to_string(k), "SW"}}};
    d.nets.push_back(std::move(dec_net));
    d.nets.push_back(std::move(drv_net));
  }
  for (int j = 0; j < spec.binary_bits; ++j) {
    DefNet dec_net{"b" + std::to_string(j),
                   {{"dec_dummy", "T" + std::to_string(j)},
                    {"lat_b" + std::to_string(j), "D"}}};
    DefNet drv_net{"sw_b" + std::to_string(j),
                   {{"lat_b" + std::to_string(j), "Q"},
                    {"cs_b" + std::to_string(j), "SW"}}};
    d.nets.push_back(std::move(dec_net));
    d.nets.push_back(std::move(drv_net));
  }
  d.nets.push_back(std::move(outp));
  d.nets.push_back(std::move(outn));
  d.nets.push_back(std::move(vbias));

  // LEF library.
  fp.macros.push_back(cs_macro(opts));
  fp.macros.push_back(latch_macro(opts));
  fp.macros.push_back(
      decoder_macro(opts, width_um * 0.7, "THERM_DEC", n_unary));
  fp.macros.push_back(decoder_macro(opts, width_um * 0.25, "DUMMY_DEC",
                                    std::max(spec.binary_bits, 1)));
  return fp;
}

std::string floorplan_lef(const Floorplan& fp) { return write_lef(fp.macros); }

std::string floorplan_def(const Floorplan& fp) { return write_def(fp.def); }

}  // namespace csdac::layout
