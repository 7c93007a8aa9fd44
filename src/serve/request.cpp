#include "serve/request.hpp"

#include <cmath>
#include <type_traits>

#include "core/accuracy.hpp"

namespace csdac::serve {

namespace {

using runtime::JsonValue;

[[noreturn]] void bad_job(const std::string& msg) {
  throw RequestError("bad_job", msg);
}

/// "<kind> <msg>" as a bad_job error.
template <typename J>
[[noreturn]] void bad_kind(const J&, const std::string& msg) {
  bad_job(std::string(J::kName) + " " + msg);
}

/// The value named `given` in `names`, else bad_job "bad <key> '<given>'".
template <typename V, std::size_t N>
V by_name(std::string_view key, const std::string& given,
          const std::array<runtime::Named<V>, N>& names) {
  for (const auto& n : names) {
    if (n.name == given) return n.value;
  }
  bad_job("bad " + std::string(key) + " '" + given + "'");
}

/// `params.validate()`, its failure as bad_job "bad <what>: <why>".
void validate_as(std::string_view what, const auto& params) {
  try {
    params.validate();
  } catch (const std::exception& e) {
    bad_job("bad " + std::string(what) + ": " + e.what());
  }
}

/// Reads a request object into a job through its Params list: an absent
/// (or wrongly typed) field keeps the member's value unless its rule says
/// otherwise. `prefix` + the entry name is the wire key.
struct Reader {
  const JsonValue& obj;
  std::string prefix = {};

  std::string key(std::string_view name) const {
    return std::string(prefix).append(name);
  }

  void operator()(std::string_view name, bool& v) {
    v = obj.bool_or(key(name), v);
  }
  void operator()(std::string_view name, int& v) {
    v = static_cast<int>(obj.int_or(key(name), v));
  }
  void operator()(std::string_view name, double& v) {
    v = obj.number_or(key(name), v);
  }

  void operator()(std::string_view name, int& v, const runtime::In& r) {
    const std::string k = key(name);
    const auto lo = static_cast<std::int64_t>(r.lo);
    const auto hi = static_cast<std::int64_t>(r.hi);
    const std::int64_t x =
        obj.int_or(k, r.def ? static_cast<std::int64_t>(*r.def) : v);
    if (x < lo || x > hi) {
      bad_job("'" + k + "' out of range [" + std::to_string(lo) + ", " +
              std::to_string(hi) + "]");
    }
    v = static_cast<int>(x);
  }

  /// parse_json already rejects non-finite numbers ("1e999"); the check
  /// keeps a programmatically built JsonValue from smuggling one in.
  void operator()(std::string_view name, double& v, const runtime::In& r) {
    const std::string k = key(name);
    const double x = obj.number_or(k, r.def.value_or(v));
    if (!std::isfinite(x) || x < r.lo || x > r.hi) {
      bad_job("'" + k + "' must be a finite number in [" +
              std::to_string(r.lo) + ", " + std::to_string(r.hi) + "]");
    }
    v = x;
  }

  void operator()(std::string_view name, std::uint64_t& v,
                  runtime::Seed r) {
    v = static_cast<std::uint64_t>(obj.int_or(key(name), r.def));
  }

  void operator()(std::string_view name, double& v, const runtime::Sigma& r) {
    if (const auto* abs = obj.find(key(name))) {
      if (!abs->is_number() || abs->num < 0) bad_job("bad " + key(name));
      v = abs->num;
      return;
    }
    const double mult = obj.number_or("sigma_mult", r.mult);
    if (mult < 0) bad_job("bad sigma_mult");
    v = mult * core::unit_sigma_spec(r.spec.nbits, r.spec.inl_yield);
  }

  template <typename T>
  void operator()(std::string_view, T&, runtime::KeyOnly) {}

  template <typename E>
    requires std::is_enum_v<E>
  void operator()(std::string_view name, E& v) {
    const auto* s = obj.find(key(name));
    if (s && s->is_string()) {
      v = by_name(key(name), s->str, runtime::kEnumNames<E>);
    }
  }

  /// A nested struct spelled as a sub-object, read through its own list.
  template <typename T>
  void object(const std::string& k, T& v) {
    if (const auto* o = obj.find(k)) {
      if (!o->is_object()) bad_job("'" + k + "' must be an object");
      runtime::Params<T>::each(v, Reader{*o});
    }
  }

  /// First in every list: what follows may read it.
  void operator()(std::string_view name, core::DacSpec& spec) {
    object(key(name), spec);
    validate_as("spec", spec);
  }

  void operator()(std::string_view name, tech::MosTechParams& t) {
    const auto* s = obj.find(key(name));
    const auto preset = s && s->is_string()
                            ? by_name(key(name), s->str, runtime::kTechPresets)
                            : runtime::kTechPresets[0].value;
    t = preset().nmos;
  }

  /// A fault inside an axis object reads "bad axis <name>".
  void operator()(std::string_view name, core::GridAxis& a) {
    const std::string k = key(name);
    const auto* ax = obj.find(k);
    if (!ax || !ax->is_object()) return object(k, a);  // absent, or refused
    try {
      object(k, a);
    } catch (const RequestError&) {
      bad_job("bad axis " + k);
    }
  }

  /// Any other nested struct, flattened under the entry's name.
  template <typename T>
    requires std::is_class_v<T>
  void operator()(std::string_view name, T& v) {
    runtime::Params<T>::each(v, Reader{obj, key(name)});
  }
};

// The cross-field rules of each kind, on a job whose fields have passed
// their Params rules. A kind without an overload has none.

void check(const auto&) {}

void check(const runtime::CalYieldJob& j) {
  validate_as("calibration options", j.cal);
}

/// The waveform costs n_samples * oversample points per chip.
void check_wave(int n_samples, int oversample) {
  if (static_cast<std::int64_t>(n_samples) * oversample >
      runtime::kMaxWavePoints) {
    bad_job("n_samples * oversample exceeds the waveform ceiling");
  }
}

template <typename J>
void check_bits(const J& j, std::int64_t max_bits) {
  if (j.spec.nbits > max_bits) {
    bad_kind(j, "supports nbits <= " + std::to_string(max_bits));
  }
}

void check(const runtime::SpectrumJob& j) {
  validate_as("dynamic params", j.dyn);  // skew vs period, ...
  check_wave(j.n_samples, j.dyn.oversample);
  if (j.cycles >= j.n_samples) bad_kind(j, "cycles must be < n_samples");
}

void check(const runtime::InlYieldStratJob& j) {
  if (j.chips / 2 < j.strata) bad_job("fewer chip pairs than strata");
  if (j.spec.num_unary() < 2) {
    bad_kind(j, "needs a thermometer segment (num_unary >= 2)");
  }
}

// Open bounds, kept here for their wording.
void check(const runtime::InlYieldBridgeJob& j) {
  if (!(j.sigma_unit > 0.0)) bad_kind(j, "needs sigma > 0");
  if (!(j.limit > 0.0)) bad_kind(j, "needs limit > 0");
}

void check(const runtime::DynSpectrumJob& j) {
  check_bits(j, runtime::kMaxArchBits);
  if ((j.scheme == arch::WeightingKind::kBinary ||
       j.scheme == arch::WeightingKind::kUnary) &&
      j.scheme_param != 0) {
    bad_job("scheme_param only applies to segmented/optimized schemes");
  }
  if (j.scheme == arch::WeightingKind::kSegmented &&
      j.scheme_param >= j.spec.nbits) {
    bad_job("segmented scheme_param must be < nbits");
  }
  if (j.scheme == arch::WeightingKind::kOptimized && j.scheme_param != 0 &&
      j.scheme_param < j.spec.nbits) {
    bad_job("optimized scheme_param (cell budget) must be >= nbits");
  }
  validate_as("timing params", j.timing);  // sigma vs period
  check_wave(j.n_samples, j.timing.oversample);
}

void check(const runtime::ArchCompareJob& j) {
  check_bits(j, runtime::kMaxArchBits);
  validate_as("timing params", j.timing);
  check_wave(j.n_samples, j.timing.oversample);
  if (j.seg_hi < j.seg_lo) bad_job("seg_hi must be >= seg_lo");
  if (j.include_unary && j.spec.nbits > 10) {
    bad_job("include_unary supports nbits <= 10 (cell count explodes)");
  }
  if (j.opt_cells != 0 && j.opt_cells < j.spec.nbits) {
    bad_job("opt_cells must be 0 (default) or >= nbits");
  }
}

void check(const runtime::SpiceMcJob& j) {
  check_bits(j, runtime::kMaxSpiceBits);
}

/// Finds the job type whose kName is `kind` and reads the job as it.
template <std::size_t I = 0>
runtime::Job parse_as(std::string_view kind, const JsonValue& job) {
  if constexpr (I == runtime::kNumKinds) {
    bad_job("unknown job kind '" + std::string(kind) + "'");
  } else {
    using J = std::variant_alternative_t<I, runtime::Job>;
    if (kind != J::kName) return parse_as<I + 1>(kind, job);
    J j;
    runtime::Params<J>::each(j, Reader{job});
    check(j);
    return j;
  }
}

}  // namespace

runtime::Job parse_job(const JsonValue& job) {
  if (!job.is_object()) bad_job("job entries must be objects");
  const std::string kind = job.string_or("kind", "");
  // "dnl_yield" is inl_yield judged on max|DNL| (see InlYieldJob::dnl).
  const bool dnl = kind == "dnl_yield";
  runtime::Job out = parse_as(dnl ? runtime::InlYieldJob::kName : kind, job);
  if (dnl) std::get<runtime::InlYieldJob>(out).dnl = true;
  return out;
}

void check_job(const runtime::Job& job) {
  std::visit([](const auto& j) { check(j); }, job);
}

std::vector<RequestJob> parse_request(const runtime::JsonValue& request) {
  if (!request.is_object()) {
    throw RequestError("bad_request", "request must be a JSON object");
  }
  if (request.string_or("schema", "") != kRequestSchema) {
    throw RequestError("bad_schema", "request schema must be '" +
                                         std::string(kRequestSchema) + "'");
  }
  const auto* jobs = request.find("jobs");
  if (!jobs || !jobs->is_array() || jobs->arr.empty()) {
    throw RequestError("bad_request", "request has no jobs");
  }
  if (static_cast<std::int64_t>(jobs->arr.size()) > kMaxJobsPerRequest) {
    throw RequestError("bad_request",
                       "request exceeds " +
                           std::to_string(kMaxJobsPerRequest) + " jobs");
  }
  std::vector<RequestJob> out;
  out.reserve(jobs->arr.size());
  for (std::size_t i = 0; i < jobs->arr.size(); ++i) {
    const JsonValue& job = jobs->arr[i];
    out.push_back({job.string_or("id", "job" + std::to_string(i)),
                   parse_job(job)});
  }
  return out;
}

std::vector<RequestJob> parse_request_text(const std::string& text) {
  runtime::JsonValue request;
  std::string err;
  if (!runtime::parse_json(text, request, &err)) {
    throw RequestError("bad_json", err);
  }
  return parse_request(request);
}

}  // namespace csdac::serve
