// Workload generators. Every job starts from a template in
// tools/*_request.json (read-only) and is varied only in the fields that
// name a distinct key (seed, or an axis/limit for kinds without a seed),
// so job cost stays the template's while keys follow the workload's
// sharing pattern.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json_escape.hpp"
#include "perfbench.hpp"

namespace perfbench {

using csdac::runtime::JsonValue;

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng r(a ^ (b * 0xD6E8FEB86659FD93ull));
  r.next();
  return r.next();
}

Templates load_templates(const std::string& tools_dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(tools_dir)) {
    const std::string name = e.path().filename().string();
    if (name.size() > 13 &&
        name.compare(name.size() - 13, 13, "_request.json") == 0) {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  Templates t;
  for (const auto& f : files) {
    std::ifstream in(f, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    JsonValue doc;
    std::string err;
    if (!csdac::runtime::parse_json(buf.str(), doc, &err)) {
      throw std::runtime_error(f.string() + ": " + err);
    }
    const JsonValue* jobs = doc.find("jobs");
    if (!jobs || !jobs->is_array()) continue;
    auto& request = t.requests.emplace_back();
    for (const JsonValue& j : jobs->arr) {
      auto& of_kind = t.kinds[j.string_or("kind", "")];
      request.emplace_back(j.string_or("kind", ""), of_kind.size());
      of_kind.push_back(j);
    }
  }
  return t;
}

namespace {

void write_json(const JsonValue& v, std::string& out) {
  switch (v.type) {
    case JsonValue::Type::kNull:
      out += "null";
      break;
    case JsonValue::Type::kBool:
      out += v.b ? "true" : "false";
      break;
    case JsonValue::Type::kNumber: {
      char buf[40];
      if (std::nearbyint(v.num) == v.num && std::fabs(v.num) < 9.0e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", v.num);
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v.num);
      }
      out += buf;
      break;
    }
    case JsonValue::Type::kString:
      out += '"';
      csdac::obs::append_json_escaped(out, v.str);
      out += '"';
      break;
    case JsonValue::Type::kArray:
      out += '[';
      for (std::size_t i = 0; i < v.arr.size(); ++i) {
        if (i) out += ',';
        write_json(v.arr[i], out);
      }
      out += ']';
      break;
    case JsonValue::Type::kObject:
      out += '{';
      for (std::size_t i = 0; i < v.obj.size(); ++i) {
        if (i) out += ',';
        out += '"';
        csdac::obs::append_json_escaped(out, v.obj[i].first);
        out += "\":";
        write_json(v.obj[i].second, out);
      }
      out += '}';
      break;
  }
}

JsonValue number(double x) {
  JsonValue v;
  v.type = JsonValue::Type::kNumber;
  v.num = x;
  return v;
}

JsonValue* member(JsonValue& obj, std::string_view key) {
  for (auto& [k, v] : obj.obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

void set_num(JsonValue& obj, std::string_view key, double x) {
  if (JsonValue* m = member(obj, key)) {
    *m = number(x);
  } else {
    obj.obj.emplace_back(std::string(key), number(x));
  }
}

void erase(JsonValue& obj, std::string_view key) {
  const auto named = [key](const auto& kv) { return kv.first == key; };
  obj.obj.erase(std::remove_if(obj.obj.begin(), obj.obj.end(), named),
                obj.obj.end());
}

/// The `index`-th template of `kind` (by file name, then position), with
/// its "id" removed: ids are per-request labels, not part of the job.
JsonValue tmpl(const Templates& t, const std::string& kind,
               std::size_t index = 0) {
  const auto it = t.kinds.find(kind);
  if (it == t.kinds.end() || index >= it->second.size()) {
    throw std::runtime_error("no template #" + std::to_string(index) +
                             " of kind '" + kind + "' in tools/");
  }
  JsonValue j = it->second[index];
  erase(j, "id");
  return j;
}

/// Makes `job` a distinct key numbered `k` (0 <= k < 1e6) without changing
/// its cost: a relative 1e-9 step per k of the INL pass limit, or of an
/// axis end for the sweeps. The Monte-Carlo draws stay the template's.
void vary_limit(JsonValue& job, std::int64_t k) {
  const double step = 1.0 + 1e-9 * static_cast<double>(k + 1);
  const std::string kind = job.string_or("kind", "");
  if (kind == "sweep_basic" || kind == "sweep_cascode") {
    JsonValue* cs = member(job, "cs");
    if (!cs || !cs->is_object()) throw std::runtime_error("sweep without cs");
    set_num(*cs, "hi", cs->number_or("hi", 0.9) * step);
  } else {
    set_num(job, "limit", job.number_or("limit", 0.5) * step);
  }
}

/// Makes `job` a distinct key numbered `k`: seed `base + k` where the kind
/// draws from a seed, vary_limit otherwise.
void vary(JsonValue& job, std::uint64_t base, std::int64_t k) {
  const std::string kind = job.string_or("kind", "");
  if (kind == "sweep_basic" || kind == "sweep_cascode" ||
      kind == "inl_yield_bridge") {
    vary_limit(job, k);
  } else {
    set_num(job, "seed",
            static_cast<double>(base + static_cast<std::uint64_t>(k)));
  }
}

/// First template of `kind` whose converter has `nbits` bits (12 when the
/// template has no "spec") and that is not adaptive.
JsonValue tmpl_bits(const Templates& t, const std::string& kind, int nbits) {
  const auto it = t.kinds.find(kind);
  if (it != t.kinds.end()) {
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      const JsonValue& j = it->second[i];
      const JsonValue* spec = j.find("spec");
      const std::int64_t bits = spec ? spec->int_or("nbits", 12) : 12;
      if (bits == nbits && !j.bool_or("adaptive", false)) {
        return tmpl(t, kind, i);
      }
    }
  }
  throw std::runtime_error("no " + std::to_string(nbits) + "-bit template of "
                           "kind '" + kind + "' in tools/");
}

std::string job_text(const JsonValue& job) {
  std::string s;
  write_json(job, s);
  return s;
}

/// Seeds stay below 2^40 so they survive the request's double numbers.
std::uint64_t seed_base(std::uint64_t seed, std::uint64_t tag) {
  return mix(seed, tag) & ((1ull << 40) - 1);
}

// warm_hit: every job of every request file, two keys each. A request is
// either one job, the request shape csdac_loadgen sends by default, or one
// of the shipped multi-job requests (3 to 8 jobs) as the file holds it,
// each job on one of its two keys.
Workload warm_hit(const Templates& t, std::uint64_t seed) {
  Workload w;
  w.name = "warm_hit";
  w.prefill = true;
  w.all_hits = true;
  const std::uint64_t base = seed_base(seed, 1);
  // Heavy kinds first so the pre-fill starts them first.
  const char* order[] = {"arch_compare", "spice_mc",    "dyn_spectrum",
                         "inl_yield_is", "inl_yield_strat", "cal_yield",
                         "inl_yield",    "dnl_yield",   "spectrum",
                         "sweep_basic",  "sweep_cascode", "inl_yield_bridge"};
  // Pool id of the first key of each template; identical templates share.
  std::map<std::pair<std::string, std::size_t>, std::int64_t> first_key;
  std::map<std::string, std::int64_t> by_text;
  std::int64_t k = 0;
  for (const char* kind : order) {
    const auto it = t.kinds.find(kind);
    if (it == t.kinds.end()) {
      throw std::runtime_error(std::string("no ") + kind);
    }
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      const std::string plain = job_text(tmpl(t, kind, i));
      const auto [at, added] = by_text.try_emplace(
          plain, static_cast<std::int64_t>(w.pool.size()));
      first_key[{kind, i}] = at->second;
      if (!added) continue;
      for (int v = 0; v < 2; ++v) {
        JsonValue j = tmpl(t, kind, i);
        vary(j, base, k++);
        w.pool.push_back(job_text(j));
      }
    }
  }
  std::vector<std::vector<std::int64_t>> shipped;
  for (const auto& request : t.requests) {
    auto& ids = shipped.emplace_back();
    for (const auto& job : request) {
      const auto it = first_key.find(job);
      if (it == first_key.end()) {
        throw std::runtime_error("warm_hit does not cover kind " + job.first);
      }
      ids.push_back(it->second);
    }
  }
  const std::int64_t n = static_cast<std::int64_t>(w.pool.size());
  // One request in four is a shipped one: p50 falls among the one-job
  // requests and p90 among the multi-job ones, so both reply sizes are
  // measured.
  w.next = [n, shipped](int, Cursor& c, std::vector<std::int64_t>& ids) {
    if (c.rng.below(4) != 0) {
      ids.push_back(static_cast<std::int64_t>(
          c.rng.below(static_cast<std::uint64_t>(n))));
      return;
    }
    const auto& request = shipped[c.rng.below(shipped.size())];
    for (const std::int64_t first : request) {
      ids.push_back(first + static_cast<std::int64_t>(c.rng.below(2)));
    }
  };
  w.fresh = [](std::int64_t) -> std::string {
    throw std::logic_error("warm_hit has no fresh keys");
  };
  w.sampled = [](std::int64_t) { return false; };
  return w;
}

// cold_mc: every key fresh; mid-size 12-bit MC kinds (~30 ms each on one
// core) plus the 10-bit dyn_spectrum, one job per request.
Workload cold_mc(const Templates& t, std::uint64_t seed) {
  Workload w;
  w.name = "cold_mc";
  std::vector<JsonValue> kinds;
  {
    JsonValue j = tmpl_bits(t, "inl_yield", 12);
    set_num(j, "chips", 2000);
    kinds.push_back(j);
    j = tmpl(t, "cal_yield");  // 12-bit
    set_num(j, "chips", 1000);
    kinds.push_back(j);
    for (const char* kind : {"inl_yield_is", "inl_yield_strat"}) {
      j = tmpl(t, kind);
      erase(j, "spec");  // the 12-bit default converter
      erase(j, "sigma_unit");
      set_num(j, "sigma_mult", 1.0);
      set_num(j, "chips", 1000);
      kinds.push_back(j);
    }
    j = tmpl(t, "dyn_spectrum");  // 10-bit segmented
    set_num(j, "chips", 64);
    kinds.push_back(j);
  }
  const int clients = w.clients;
  w.next = [clients](int client, Cursor& c, std::vector<std::int64_t>& ids) {
    ids.push_back(c.n * clients + client);
  };
  const std::uint64_t base = seed_base(seed, 2);
  const std::uint64_t offset = mix(seed, 20) % kinds.size();
  w.fresh = [kinds, base, offset](std::int64_t id) {
    JsonValue j =
        kinds[(static_cast<std::uint64_t>(id) + offset) % kinds.size()];
    vary(j, base, id);
    return job_text(j);
  };
  w.sampled = [](std::int64_t id) { return id % 32 == 0; };
  return w;
}

// solo_heavy: one client, one heavy fresh job at a time on an idle server,
// rotating 12-bit inl_yield (~0.18 s on one core), spice_mc (~0.28 s) and
// arch_compare (~0.43 s). Not a benchmark workload (its spreads followed
// the host's single-core speed past the bounds); the per-layer probes take
// their spice_mc and arch_compare jobs from it. Keys differ only in the pass limit, so every job
// of a kind does the same work; the three costs are far enough apart that
// p50 falls inside the spice_mc cluster and p90 inside the arch_compare
// one, instead of on the edge between two overlapping clusters.
Workload solo_heavy(const Templates& t, std::uint64_t seed) {
  Workload w;
  w.name = "solo_heavy";
  w.clients = 1;
  std::vector<JsonValue> kinds;
  kinds.push_back(tmpl(t, "spice_mc"));  // 8-bit, 6 corners
  JsonValue arch = tmpl(t, "arch_compare");  // 10-bit
  set_num(arch, "chips", 180);
  kinds.push_back(arch);
  JsonValue inl = tmpl_bits(t, "inl_yield", 12);
  set_num(inl, "chips", 12000);
  kinds.push_back(inl);
  w.next = [](int, Cursor& c, std::vector<std::int64_t>& ids) {
    ids.push_back(c.n);
  };
  const std::int64_t base = static_cast<std::int64_t>(mix(seed, 3) % 500000);
  const std::uint64_t offset = mix(seed, 30) % kinds.size();
  w.fresh = [kinds, base, offset](std::int64_t id) {
    JsonValue job =
        kinds[(static_cast<std::uint64_t>(id) + offset) % kinds.size()];
    vary_limit(job, base + id);
    return job_text(job);
  };
  w.sampled = [](std::int64_t id) { return id % 4 == 0; };
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"warm_hit", "cold_mc"};
  return names;
}

Workload make_workload(const std::string& name, const Templates& t,
                       std::uint64_t seed) {
  if (name == "warm_hit") return warm_hit(t, seed);
  if (name == "cold_mc") return cold_mc(t, seed);
  if (name == "solo_heavy") return solo_heavy(t, seed);
  throw std::runtime_error("unknown workload '" + name + "'");
}

std::string request_text(const Workload& w,
                         const std::vector<std::int64_t>& ids,
                         const std::string& trace_id) {
  std::string s = R"({"schema":"csdac-request/1","trace_id":")";
  s += trace_id;
  s += R"(","jobs":[)";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i) s += ',';
    s += w.job_json(ids[i]);
  }
  s += "]}";
  return s;
}

}  // namespace perfbench
