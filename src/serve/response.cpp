#include "serve/response.hpp"

#include <optional>
#include <string_view>
#include <type_traits>

#include "arch/weighting.hpp"
#include "core/explorer.hpp"

namespace csdac::serve {

namespace {

/// Default body: the result's field list, one JSON field per field.
void emit(bench::JsonWriter& w, const auto& v) {
  runtime::Fields<std::decay_t<decltype(v)>>::each(
      v, [&w](std::string_view name, auto x) { w.field(name, x); });
}

/// Sweeps answer with a summary and the best points, not every point.
void emit(bench::JsonWriter& w, const runtime::SweepResult& v) {
  w.field("points", static_cast<std::int64_t>(v.points.size()));
  std::int64_t feasible = 0;
  for (const auto& p : v.points) feasible += p.feasible ? 1 : 0;
  w.field("feasible", feasible);
  const auto emit_best = [&w](const char* name,
                              const std::optional<core::DesignPoint>& best) {
    if (!best) return;
    w.key(name).begin_object();
    w.field("vod_cs", best->vod_cs);
    w.field("vod_sw", best->vod_sw);
    w.field("vod_cas", best->vod_cas);
    w.field("area_m2", best->area);
    w.field("f_min_hz", best->f_min_hz);
    w.field("t_settle_s", best->t_settle_s);
    w.end_object();
  };
  emit_best("best_min_area", core::DesignSpaceExplorer::select(
                                 v.points, core::Objective::kMinArea));
  emit_best("best_max_speed", core::DesignSpaceExplorer::select(
                                  v.points, core::Objective::kMaxSpeed));
}

/// Architectures as objects, the scheme byte spelled as its name.
void emit(bench::JsonWriter& w, const runtime::ArchCompareResult& v) {
  w.field("points", static_cast<std::int64_t>(v.points.size()));
  w.key("architectures").begin_array();
  for (const auto& p : v.points) {
    w.begin_object();
    w.field("scheme",
            arch::weighting_name(static_cast<arch::WeightingKind>(p.scheme)));
    runtime::Fields<runtime::ArchPoint>::each(
        p, [&w](std::string_view name, auto x) {
          if (name != "scheme") w.field(name, x);
        });
    w.end_object();
  }
  w.end_array();
}

/// The solver counters, newton_iters onward, nest under "solver".
void emit(bench::JsonWriter& w, const runtime::SpiceMcResult& v) {
  runtime::Fields<runtime::SpiceMcResult>::each(
      v, [&w](std::string_view name, auto x) {
        if (name == "newton_iters") w.key("solver").begin_object();
        w.field(name, x);
      });
  w.end_object();
}

}  // namespace

void emit_result(bench::JsonWriter& w, const runtime::JobValue& value) {
  w.key("result").begin_object();
  std::visit([&w](const auto& v) { emit(w, v); }, value);
  w.end_object();
}

std::string error_frame(std::string_view code, std::string_view message) {
  bench::JsonWriter w;
  w.begin_object();
  w.field("schema", kResponseSchema);
  w.key("error").begin_object();
  w.field("code", code);
  w.field("message", message);
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace csdac::serve
