#include "layout/floorplan.hpp"

#include <gtest/gtest.h>

#include <set>

namespace csdac::layout {
namespace {

TEST(Floorplan, TwelveBitStructure) {
  core::DacSpec spec;  // 12 bit, b = 4, m = 8
  const Floorplan fp = build_floorplan(spec);
  // 255 unary + 4 binary CS cells, 259 latches, 2 decoders.
  int cs = 0, latches = 0, decoders = 0;
  for (const auto& c : fp.def.components) {
    if (c.macro == "CS_CELL") ++cs;
    if (c.macro == "LATCH_SW_DRV") ++latches;
    if (c.macro == "THERM_DEC" || c.macro == "DUMMY_DEC") ++decoders;
  }
  EXPECT_EQ(cs, 259);
  EXPECT_EQ(latches, 259);
  EXPECT_EQ(decoders, 2);
  EXPECT_EQ(fp.binary_columns.size(), 4u);
  EXPECT_EQ(fp.unary_sequence.size(), 255u);
}

TEST(Floorplan, NoOverlappingCsCells) {
  core::DacSpec spec;
  const Floorplan fp = build_floorplan(spec);
  std::set<std::pair<long long, long long>> positions;
  for (const auto& c : fp.def.components) {
    if (c.macro != "CS_CELL") continue;
    EXPECT_TRUE(positions.emplace(c.x, c.y).second)
        << "overlap at " << c.x << "," << c.y << " (" << c.name << ")";
  }
}

TEST(Floorplan, BinaryCellsSitInDedicatedColumns) {
  core::DacSpec spec;
  FloorplanOptions opts;
  const Floorplan fp = build_floorplan(spec, opts);
  const long long w = static_cast<long long>(opts.cs_cell_w_um *
                                             opts.dbu_per_micron);
  std::set<long long> allowed;
  for (int col : fp.binary_columns) allowed.insert(col * w);
  for (const auto& c : fp.def.components) {
    if (c.name.rfind("cs_b", 0) != 0) continue;
    EXPECT_TRUE(allowed.count(c.x)) << c.name << " at x=" << c.x;
  }
  // ... and no unary cell occupies a binary column.
  for (const auto& c : fp.def.components) {
    if (c.name.rfind("cs_u", 0) != 0) continue;
    EXPECT_FALSE(allowed.count(c.x)) << c.name << " at x=" << c.x;
  }
}

TEST(Floorplan, RegionsAreVerticallyOrdered) {
  core::DacSpec spec;
  const Floorplan fp = build_floorplan(spec);
  long long cs_max_y = 0, latch_min_y = 1LL << 60, latch_max_y = 0,
            dec_min_y = 1LL << 60;
  for (const auto& c : fp.def.components) {
    if (c.macro == "CS_CELL") cs_max_y = std::max(cs_max_y, c.y);
    if (c.macro == "LATCH_SW_DRV") {
      latch_min_y = std::min(latch_min_y, c.y);
      latch_max_y = std::max(latch_max_y, c.y);
    }
    if (c.macro == "THERM_DEC") dec_min_y = std::min(dec_min_y, c.y);
  }
  EXPECT_LT(cs_max_y, latch_min_y);   // CS array below the latch array
  EXPECT_LT(latch_max_y, dec_min_y);  // decoders on top
}

TEST(Floorplan, EveryUnarySourceIsWired) {
  core::DacSpec spec;
  const Floorplan fp = build_floorplan(spec);
  std::set<std::string> nets;
  for (const auto& n : fp.def.nets) nets.insert(n.name);
  for (int k = 0; k < spec.num_unary(); ++k) {
    EXPECT_TRUE(nets.count(std::string("t").append(std::to_string(k))));
    EXPECT_TRUE(nets.count("sw_u" + std::to_string(k)));
  }
  EXPECT_TRUE(nets.count("outp"));
  EXPECT_TRUE(nets.count("outn"));
  EXPECT_TRUE(nets.count("vbias"));
}

TEST(Floorplan, ArtefactsRoundTripThroughDefParser) {
  core::DacSpec spec;
  const Floorplan fp = build_floorplan(spec);
  const std::string def_text = floorplan_def(fp);
  const DefDesign parsed = parse_def(def_text);
  EXPECT_EQ(parsed.components.size(), fp.def.components.size());
  EXPECT_EQ(parsed.nets.size(), fp.def.nets.size());
  EXPECT_EQ(parsed.name, fp.def.name);
  const std::string lef_text = floorplan_lef(fp);
  EXPECT_NE(lef_text.find("MACRO CS_CELL"), std::string::npos);
  EXPECT_NE(lef_text.find("MACRO THERM_DEC"), std::string::npos);
}

TEST(Floorplan, SmallerConvertersScaleDown) {
  core::DacSpec spec;
  spec.nbits = 8;
  spec.binary_bits = 3;
  const Floorplan fp = build_floorplan(spec);
  EXPECT_EQ(fp.unary_sequence.size(), 31u);
  EXPECT_EQ(fp.binary_columns.size(), 3u);
  int cs = 0;
  for (const auto& c : fp.def.components) {
    if (c.macro == "CS_CELL") ++cs;
  }
  EXPECT_EQ(cs, 34);
}

TEST(Floorplan, SequenceFollowsRequestedScheme) {
  core::DacSpec spec;
  FloorplanOptions opts;
  opts.scheme = SwitchingScheme::kRowMajor;
  const Floorplan fp = build_floorplan(spec, opts);
  // Row-major: source k sits at unary-subgrid cell k.
  EXPECT_EQ(fp.unary_sequence[0], 0);
  EXPECT_EQ(fp.unary_sequence[1], 1);
}

}  // namespace
}  // namespace csdac::layout
