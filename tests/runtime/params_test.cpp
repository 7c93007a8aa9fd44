// The Params lists of runtime/job.hpp are the one definition of a job's
// inputs: job_key writes them and serve::parse_job reads a request through
// them. Two properties keep that honest:
//   * completeness: every list has one entry per member of its aggregate,
//     so a member added to a struct but not to its list cannot silently
//     alias two jobs onto one key;
//   * round trip: a job drawn at random within its lists' rules, rendered
//     as a request object from the same lists and parsed back, has the
//     same key.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <variant>
#include <vector>

#include "mathx/rng.hpp"
#include "runtime/job.hpp"
#include "runtime/json.hpp"
#include "serve/request.hpp"

namespace csdac::runtime {
namespace {

// --- Completeness ----------------------------------------------------------

/// Converts to any member type (declared only: used unevaluated).
struct Any {
  template <typename T>
  operator T() const;
};

/// Members of aggregate T: the largest N such that T{Any{}...} (N times)
/// is well-formed.
template <typename T, typename... A>
constexpr std::size_t member_count() {
  if constexpr (requires { T{A{}..., Any{}}; }) {
    return member_count<T, A..., Any>();
  } else {
    return sizeof...(A);
  }
}

template <typename T>
std::size_t entry_count() {
  T t{};
  std::size_t n = 0;
  Params<T>::each(t, [&n](std::string_view, auto&, auto&&...) { ++n; });
  return n;
}

template <typename T>
void expect_complete() {
  EXPECT_EQ(entry_count<T>(), member_count<T>()) << typeid(T).name();
}

TEST(Params, EveryMemberOfEveryJobAndInputStructIsListed) {
  static_assert(member_count<InlYieldJob>() == 11);
  static_assert(member_count<core::DacSpec>() == 10);
  static_assert(member_count<tech::MosTechParams>() == 16);
  expect_complete<core::DacSpec>();
  expect_complete<tech::MosTechParams>();
  expect_complete<core::GridAxis>();
  expect_complete<dac::CalibrationOptions>();
  expect_complete<dac::DynamicParams>();
  expect_complete<arch::TimingParams>();
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (expect_complete<std::variant_alternative_t<I, Job>>(), ...);
  }(std::make_index_sequence<kNumKinds>{});
}

// --- Round trip ------------------------------------------------------------

/// Draws every member within its rule. Unruled members keep their value
/// half the time and are otherwise perturbed around it; the caller redraws
/// jobs that a cross-field rule rejects.
struct Drawer {
  mathx::Xoshiro256& rng;

  bool coin() { return mathx::uniform_index(rng, 2) == 0; }
  std::int64_t int_in(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(mathx::uniform_index(
                    rng, static_cast<std::uint64_t>(hi - lo) + 1));
  }

  void operator()(std::string_view, bool& v, auto&&...) { v = coin(); }
  void operator()(std::string_view, int& v) {
    if (coin()) v = static_cast<int>(int_in(v / 3, v + 2));
  }
  void operator()(std::string_view, double& v) {
    if (coin()) v *= mathx::uniform(rng, 0.8, 1.25);
  }
  void operator()(std::string_view, int& v, const In& r) {
    if (coin() || v < r.lo || v > r.hi) {
      v = static_cast<int>(int_in(static_cast<std::int64_t>(r.lo),
                                  static_cast<std::int64_t>(r.hi)));
    }
  }
  void operator()(std::string_view, double& v, const In& r) {
    if (coin() || !(v >= r.lo && v <= r.hi)) {
      v = mathx::uniform(rng, r.lo, std::isfinite(r.hi) ? r.hi : r.lo + 10);
    }
  }
  void operator()(std::string_view, std::uint64_t& v, Seed) {
    v = static_cast<std::uint64_t>(int_in(0, (std::int64_t{1} << 53) - 1));
  }
  void operator()(std::string_view, double& v, const Sigma&) {
    v = mathx::uniform(rng, 0.0, 0.05);
  }
  template <typename E>
    requires std::is_enum_v<E>
  void operator()(std::string_view, E& v) {
    v = kEnumNames<E>[mathx::uniform_index(rng, kEnumNames<E>.size())].value;
  }
  void operator()(std::string_view, tech::MosTechParams& t) {
    t = kTechPresets[mathx::uniform_index(rng, kTechPresets.size())]
            .value()
            .nmos;
  }
  template <typename T>
    requires std::is_class_v<T>
  void operator()(std::string_view, T& v) {
    Params<T>::each(v, *this);
  }
};

/// Every value of a list, in order (enums as their value).
template <typename T>
std::vector<double> values(const T& t) {
  std::vector<double> out;
  Params<T>::each(t, [&out](std::string_view, const auto& v) {
    out.push_back(static_cast<double>(v));
  });
  return out;
}

/// Renders a job as request fields from its Params list: every member
/// explicit, doubles to the last bit.
struct Renderer {
  std::string& out;
  std::string prefix = {};

  void key(std::string_view name) {
    out += out.back() == '{' ? "\"" : ",\"";
    out += prefix;
    out += name;
    out += "\":";
  }
  static std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  void operator()(std::string_view name, bool v, auto&&...) {
    key(name);
    out += v ? "true" : "false";
  }
  void operator()(std::string_view name, int v, auto&&...) {
    key(name);
    out += std::to_string(v);
  }
  void operator()(std::string_view name, std::uint64_t v, Seed) {
    key(name);
    out += std::to_string(v);
  }
  void operator()(std::string_view name, double v, auto&&...) {
    key(name);
    out += num(v);
  }
  void operator()(std::string_view, bool, KeyOnly) {}
  template <typename E>
    requires std::is_enum_v<E>
  void operator()(std::string_view name, E v) {
    for (const auto& n : kEnumNames<E>) {
      if (n.value == v) {
        key(name);
        out.append("\"").append(n.name).append("\"");
      }
    }
  }
  void operator()(std::string_view name, const tech::MosTechParams& t) {
    for (const auto& p : kTechPresets) {
      if (values(p.value().nmos) == values(t)) {
        key(name);
        out.append("\"").append(p.name).append("\"");
      }
    }
  }
  template <typename T>
    requires std::is_class_v<T>
  void operator()(std::string_view name, const T& v) {
    if constexpr (std::is_same_v<T, core::DacSpec> ||
                  std::is_same_v<T, core::GridAxis>) {
      key(name);  // a sub-object
      out += "{";
      Params<T>::each(v, Renderer{out});
      out += "}";
    } else {
      Params<T>::each(v, Renderer{out, prefix + std::string(name)});
    }
  }
};

template <typename J>
std::string render(const J& j) {
  std::string out = "{\"kind\":\"";
  if constexpr (std::is_same_v<J, InlYieldJob>) {
    out += j.dnl ? "dnl_yield" : J::kName;
  } else {
    out += J::kName;
  }
  out += "\"";
  Params<J>::each(j, Renderer{out});
  return out + "}";
}

bool acceptable(const Job& job) {
  try {
    std::visit([](const auto& j) { j.spec.validate(); }, job);
    serve::check_job(job);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

template <typename J>
void round_trip_kind(std::uint64_t seed) {
  SCOPED_TRACE(std::string(J::kName));
  mathx::Xoshiro256 rng(seed);
  int accepted = 0;
  int drawn = 0;
  for (; accepted < 60 && drawn < 100'000; ++drawn) {
    J j;
    Params<J>::each(j, Drawer{rng});
    if (!acceptable(j)) continue;
    ++accepted;
    const std::string text = render(j);
    JsonValue request;
    std::string err;
    ASSERT_TRUE(parse_json(text, request, &err)) << err << "\n" << text;
    Job parsed;
    try {
      parsed = serve::parse_job(request);
    } catch (const serve::RequestError& e) {
      FAIL() << e.what() << "\n" << text;
    }
    ASSERT_EQ(parsed.index(), Job(j).index()) << text;
    ASSERT_EQ(job_key(parsed).hex(), job_key(j).hex()) << text;
  }
  EXPECT_GE(accepted, 50) << "of " << drawn << " drawn";
}

TEST(Params, RandomInBoundsJobsRoundTripThroughTheRequestParser) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (round_trip_kind<std::variant_alternative_t<I, Job>>(0x5eed + I), ...);
  }(std::make_index_sequence<kNumKinds>{});
}

}  // namespace
}  // namespace csdac::runtime
