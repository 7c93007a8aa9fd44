#!/usr/bin/env python3
"""Validates a BENCH_mc.json produced by tools/run_benches.

Accepts the csdac-bench/1, /2, /3, and /4 schemas: required top-level
keys, per-bench structure, and sanity of the measured numbers (positive
throughput, yields in [0, 1]). Schema /2 additionally carries runtime
cache benches ("cold"/"warm" sections): the warm pass must be a pure
cache hit (cache_hits >= 1, zero chip evaluations) and the cold pass a
miss. Schema /3 additionally embeds the metrics-registry snapshot under
"metrics"; the snapshot must carry the engine counters and a positive
mc.chips_evaluated. Schema /4 additionally records the active SIMD
dispatch ("simd_backend"/"simd_lanes" top-level) and carries at least one
simd-vs-scalar bench ("simd"/"scalar" sections + "simd_speedup"); the two
sections must report identical yields — the lane kernels are bit-identical
by contract. Schema /5 is the design-server loadgen document
(tools/csdac_loadgen): at least one bench with a "serve" section reporting
requests/errors/mismatches and the latency distribution; a run with any
failed request, any cross-client result mismatch, or non-positive
throughput fails validation. Schema /6 (run_benches again) additionally
carries the rare-event estimator bench: "bruteforce"/"is"/"stratified"/
"bridge" sections with per-estimator "chips_to_ci", an "is_chip_reduction"
variance ratio that must exceed 1 (the importance sampler must actually
beat brute force), a healthy effective sample size (low_ess false), and
bridge/IS tail agreement already enforced by the producer. Schema /7
additionally carries the dynamic-error architecture benches: the cached
timing-MC spectrum job validates as an ordinary cache bench, and the
architecture-comparison table ("architectures" array) must sweep at least
binary plus two more weightings with sane per-architecture numbers
(yields in [0, 1], positive cell counts and switching activity) and a
metrics snapshot whose arch.* engine counters actually moved. Schema /8
additionally carries the sparse-MNA engine benches: "spice_mna_12bit"
("dense"/"sparse" sections, a positive "spice_speedup", dense/sparse
solutions already cross-checked by the producer) and "spice_mc_warmstart"
("cold"/"warm" MC sections whose yields must be identical — warm starting
may only change where Newton starts, never where it converges — plus a
"warm_iter_reduction" that must exceed 1), with spice.* engine counters
in the metrics snapshot that actually moved.

With --compare BASELINE.json, every bench path present in both documents
is also checked for throughput regressions: chips_per_s must be at least
(1 - tolerance) times the baseline (default tolerance 0.2). Wall-time
baselines only transfer between same-shaped runs, so compare smoke runs
against smoke baselines and full runs against full baselines.

Used by the CI bench-smoke job; exits nonzero with a message on the first
violation. Stdlib only.
"""
import argparse
import json
import sys

SCHEMAS = ("csdac-bench/1", "csdac-bench/2", "csdac-bench/3",
           "csdac-bench/4", "csdac-bench/5", "csdac-bench/6",
           "csdac-bench/7", "csdac-bench/8")
TOP_KEYS = {
    "schema": str,
    "git_sha": str,
    "generated_unix": int,
    "smoke": bool,
    "threads": int,
    "hardware_threads": int,
    "benches": list,
}
PATH_KEYS = {"chips": int, "chips_per_s": (int, float), "wall_s": (int, float)}


def fail(msg):
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_type(obj, key, types, where):
    if key not in obj:
        fail(f"{where}: missing key '{key}'")
    if not isinstance(obj[key], types):
        fail(f"{where}: key '{key}' has type {type(obj[key]).__name__}")
    return obj[key]


def check_path(bench, name, which):
    where = f"bench '{name}' / {which}"
    path = check_type(bench, which, dict, f"bench '{name}'")
    for key, types in PATH_KEYS.items():
        check_type(path, key, types, where)
    if path["chips"] <= 0:
        fail(f"{where}: chips must be positive")
    if path["chips_per_s"] <= 0:
        fail(f"{where}: chips_per_s must be positive")
    if path["wall_s"] < 0:
        fail(f"{where}: wall_s must be >= 0")
    for key in ("yield", "yield_before", "yield_after"):
        if key in path and not 0.0 <= path[key] <= 1.0:
            fail(f"{where}: {key} out of [0, 1]")
    return path


def check_metrics(doc):
    """Schema /3 embedded registry snapshot."""
    metrics = check_type(doc, "metrics", dict, "top level")
    counters = check_type(metrics, "counters", dict, "metrics")
    check_type(metrics, "gauges", dict, "metrics")
    histograms = check_type(metrics, "histograms", dict, "metrics")
    for key in ("mc.chips_evaluated", "engine.runs", "engine.items"):
        if not isinstance(counters.get(key), int):
            fail(f"metrics: missing/non-integer counter '{key}'")
        if counters[key] < 0:
            fail(f"metrics: counter '{key}' is negative")
    if counters["mc.chips_evaluated"] <= 0:
        fail("metrics: mc.chips_evaluated must be positive after a bench run")
    for name, h in histograms.items():
        where = f"metrics histogram '{name}'"
        count = check_type(h, "count", int, where)
        check_type(h, "sum", int, where)
        buckets = check_type(h, "buckets", list, where)
        total = 0
        for pair in buckets:
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(x, int) for x in pair)):
                fail(f"{where}: buckets must be [le, count] integer pairs")
            total += pair[1]
        if total != count:
            fail(f"{where}: bucket counts sum to {total}, count is {count}")


def check_cache_bench(bench, name):
    """Schema /2 runtime cache bench: cold miss vs warm hit."""
    cold = check_path(bench, name, "cold")
    warm = check_path(bench, name, "warm")
    if cold.get("cache_misses", 0) < 1:
        fail(f"bench '{name}' / cold: expected >= 1 cache miss")
    if warm.get("cache_hits", 0) < 1:
        fail(f"bench '{name}' / warm: expected >= 1 cache hit")
    if warm.get("chip_evals", -1) != 0:
        fail(f"bench '{name}' / warm: chip_evals must be 0 "
             f"(got {warm.get('chip_evals')!r}) — the warm run recomputed")
    speedup = check_type(bench, "warm_speedup", (int, float),
                         f"bench '{name}'")
    if speedup <= 0:
        fail(f"bench '{name}': warm_speedup must be positive")


def check_simd_bench(bench, name):
    """Schema /4 simd-vs-scalar bench: identical yields, speedup field."""
    simd = check_path(bench, name, "simd")
    scalar = check_path(bench, name, "scalar")
    for key in ("yield", "yield_before", "yield_after"):
        if (key in simd) != (key in scalar):
            fail(f"bench '{name}': '{key}' present in only one section")
        if key in simd and simd[key] != scalar[key]:
            fail(f"bench '{name}': simd/scalar {key} differ "
                 f"({simd[key]!r} vs {scalar[key]!r}) — the lane kernels "
                 f"must be bit-identical")
    speedup = check_type(bench, "simd_speedup", (int, float),
                         f"bench '{name}'")
    if speedup <= 0:
        fail(f"bench '{name}': simd_speedup must be positive")


def check_rare_bench(bench, name):
    """Schema /6 rare-event estimator bench."""
    bf = check_path(bench, name, "bruteforce")
    is_ = check_path(bench, name, "is")
    strat = check_path(bench, name, "stratified")
    where = f"bench '{name}'"
    for which, path in (("bruteforce", bf), ("is", is_),
                        ("stratified", strat)):
        ctc = check_type(path, "chips_to_ci", (int, float),
                         f"{where} / {which}")
        if ctc <= 0:
            fail(f"{where} / {which}: chips_to_ci must be positive")
    bridge = check_type(bench, "bridge", dict, where)
    for key in ("yield", "c", "sigma_inl"):
        if not isinstance(bridge.get(key), (int, float)):
            fail(f"{where} / bridge: missing/non-number '{key}'")
    if not 0.0 < bridge["yield"] < 1.0:
        fail(f"{where} / bridge: yield out of (0, 1)")
    if is_.get("low_ess") is not False:
        fail(f"{where} / is: low_ess must be false — the reweighted "
             f"estimate is not trustworthy")
    if not isinstance(is_.get("ess"), (int, float)) or is_["ess"] <= 0:
        fail(f"{where} / is: ess must be positive")
    if is_.get("fails", 0) <= 0:
        fail(f"{where} / is: the proposal saw no failures")
    reduction = check_type(bench, "is_chip_reduction", (int, float), where)
    if reduction <= 1.0:
        fail(f"{where}: is_chip_reduction is {reduction:.2f}x — importance "
             f"sampling must beat brute force")


def check_arch_bench(bench, name):
    """Schema /7 architecture-comparison bench."""
    where = f"bench '{name}'"
    # Every job kind fills RunStats::wall_seconds, so a zero is a fault.
    wall = check_type(bench, "wall_s", (int, float), where)
    if wall <= 0:
        fail(f"{where}: wall_s must be positive")
    archs = check_type(bench, "architectures", list, where)
    if len(archs) < 3:
        fail(f"{where}: expected at least 3 architectures (binary plus "
             f"two more), got {len(archs)}")
    schemes = []
    for i, point in enumerate(archs):
        pw = f"{where} / architectures[{i}]"
        if not isinstance(point, dict):
            fail(f"{pw}: not an object")
        scheme = check_type(point, "scheme", str, pw)
        schemes.append(scheme)
        for key in ("param", "cells"):
            if not isinstance(point.get(key), int):
                fail(f"{pw}: missing/non-integer '{key}'")
        for key in ("inl_yield", "inl_ci95", "sfdr_db", "ete_sfdr_db",
                    "activity"):
            check_type(point, key, (int, float), pw)
        if point["cells"] <= 0:
            fail(f"{pw}: cells must be positive")
        if not 0.0 <= point["inl_yield"] <= 1.0:
            fail(f"{pw}: inl_yield out of [0, 1]")
        if point["inl_ci95"] < 0:
            fail(f"{pw}: inl_ci95 must be >= 0")
        if point["activity"] <= 0:
            fail(f"{pw}: activity must be positive")
    if "binary" not in schemes:
        fail(f"{where}: sweep is missing the binary reference architecture")


def check_spice_mna_bench(bench, name):
    """Schema /8 dense-vs-sparse MNA solve bench."""
    where = f"bench '{name}'"
    for which in ("dense", "sparse"):
        section = check_type(bench, which, dict, where)
        wall = check_type(section, "wall_s", (int, float),
                          f"{where} / {which}")
        if wall <= 0:
            fail(f"{where} / {which}: wall_s must be positive")
        iters = check_type(section, "newton_iters", int,
                           f"{where} / {which}")
        if iters <= 0:
            fail(f"{where} / {which}: newton_iters must be positive")
    sparse = bench["sparse"]
    if sparse.get("factorizations", 0) <= 0:
        fail(f"{where} / sparse: factorizations must be positive")
    if sparse.get("refactorizations", 0) <= 0:
        fail(f"{where} / sparse: refactorizations must be positive — "
             f"symbolic reuse never kicked in")
    max_dx = check_type(bench, "max_dx", (int, float), where)
    if not 0 <= max_dx <= 1e-9:
        fail(f"{where}: dense/sparse solutions diverge by {max_dx:.3e}")
    speedup = check_type(bench, "spice_speedup", (int, float), where)
    if speedup <= 0:
        fail(f"{where}: spice_speedup must be positive")


def check_spice_mc_bench(bench, name):
    """Schema /8 SPICE mismatch-MC warm-start bench."""
    where = f"bench '{name}'"
    sections = {}
    for which in ("cold", "warm"):
        section = check_type(bench, which, dict, where)
        sections[which] = section
        sw = f"{where} / {which}"
        for key in ("newton_iters", "device_evals"):
            val = check_type(section, key, int, sw)
            if val <= 0:
                fail(f"{sw}: {key} must be positive")
        y = check_type(section, "yield", (int, float), sw)
        if not 0.0 <= y <= 1.0:
            fail(f"{sw}: yield out of [0, 1]")
    if sections["cold"]["yield"] != sections["warm"]["yield"]:
        fail(f"{where}: warm starting changed the yield "
             f"({sections['cold']['yield']!r} vs "
             f"{sections['warm']['yield']!r})")
    if sections["warm"].get("warm_start_hits", 0) <= 0:
        fail(f"{where} / warm: no warm-start hits recorded")
    reduction = check_type(bench, "warm_iter_reduction", (int, float), where)
    if reduction <= 1.0:
        fail(f"{where}: warm_iter_reduction is {reduction:.2f}x — warm "
             f"starting must reduce Newton iterations")


def check_serve_bench(bench, name):
    """Schema /5 design-server loadgen bench."""
    where = f"bench '{name}' / serve"
    serve = check_type(bench, "serve", dict, f"bench '{name}'")
    for key in ("requests", "errors", "mismatches", "chip_evals"):
        if not isinstance(serve.get(key), int):
            fail(f"{where}: missing/non-integer '{key}'")
    for key in ("wall_s", "requests_per_s", "p50_us", "p99_us"):
        check_type(serve, key, (int, float), where)
    if serve["requests"] <= 0:
        fail(f"{where}: requests must be positive")
    if serve["errors"] != 0:
        fail(f"{where}: {serve['errors']} request(s) failed")
    if serve["mismatches"] != 0:
        fail(f"{where}: {serve['mismatches']} cross-client result "
             f"mismatch(es) — concurrent replies must be bit-identical")
    if serve["requests_per_s"] <= 0:
        fail(f"{where}: requests_per_s must be positive")
    if serve["p50_us"] < 0:
        fail(f"{where}: p50_us must be >= 0")
    if serve["p99_us"] < serve["p50_us"]:
        fail(f"{where}: p99_us below p50_us")
    if serve["wall_s"] < 0:
        fail(f"{where}: wall_s must be >= 0")
    if serve["chip_evals"] < 0:
        fail(f"{where}: chip_evals must be >= 0")


def bench_paths(doc):
    """Yields (bench_name, path_name, path_dict) for every measured path."""
    for bench in doc.get("benches", []):
        if not isinstance(bench, dict) or "name" not in bench:
            continue
        for which in ("workspace", "legacy", "simd", "scalar", "cold",
                      "warm", "bruteforce", "is", "stratified"):
            path = bench.get(which)
            if isinstance(path, dict) and "chips_per_s" in path:
                yield bench["name"], which, path


def check_compare(doc, baseline_path, tolerance):
    """Fails on a >tolerance relative throughput drop vs the baseline."""
    try:
        with open(baseline_path, encoding="utf-8") as f:
            base = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot parse baseline {baseline_path}: {e}")
    base_paths = {(b, w): p for b, w, p in bench_paths(base)}
    compared = 0
    for bench, which, path in bench_paths(doc):
        ref = base_paths.get((bench, which))
        if ref is None or ref["chips_per_s"] <= 0:
            continue
        ratio = path["chips_per_s"] / ref["chips_per_s"]
        status = "OK" if ratio >= 1.0 - tolerance else "FAIL"
        print(f"  {status}: {bench}/{which}: {path['chips_per_s']:.0f} "
              f"chips/s vs baseline {ref['chips_per_s']:.0f} "
              f"({ratio:.2f}x)")
        if ratio < 1.0 - tolerance:
            fail(f"bench '{bench}' / {which}: throughput regressed to "
                 f"{ratio:.2f}x of the baseline (tolerance {tolerance})")
        compared += 1
    if compared == 0:
        fail(f"no comparable bench paths between this run and "
             f"{baseline_path}")
    print(f"check_bench_json: compare OK ({compared} paths within "
          f"{tolerance:.0%} of baseline)")


def main():
    parser = argparse.ArgumentParser(
        description="Validate a run_benches JSON document.")
    parser.add_argument("bench_json")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="baseline BENCH json to diff throughput "
                             "against")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed relative throughput drop vs the "
                             "baseline (default 0.2)")
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        fail("--tolerance must be in [0, 1)")
    try:
        with open(args.bench_json, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot parse {args.bench_json}: {e}")

    if not isinstance(doc, dict):
        fail("top level is not an object")
    for key, types in TOP_KEYS.items():
        check_type(doc, key, types, "top level")
    if doc["schema"] not in SCHEMAS:
        fail(f"schema is '{doc['schema']}', expected one of {SCHEMAS}")
    v2 = doc["schema"] != "csdac-bench/1"
    v4 = doc["schema"] in ("csdac-bench/4", "csdac-bench/6",
                           "csdac-bench/7", "csdac-bench/8")
    v5 = doc["schema"] == "csdac-bench/5"
    v6 = doc["schema"] in ("csdac-bench/6", "csdac-bench/7",
                           "csdac-bench/8")
    v7 = doc["schema"] in ("csdac-bench/7", "csdac-bench/8")
    v8 = doc["schema"] == "csdac-bench/8"
    if not doc["benches"]:
        fail("benches array is empty")
    if doc["schema"] in ("csdac-bench/3", "csdac-bench/4", "csdac-bench/6",
                         "csdac-bench/7", "csdac-bench/8"):
        check_metrics(doc)
    if v8:
        counters = doc["metrics"]["counters"]
        for key in ("spice.solves", "spice.newton_iters",
                    "spice.factorizations", "spice.refactorizations",
                    "spice.device_evals"):
            if not isinstance(counters.get(key), int) or counters[key] <= 0:
                fail(f"metrics: counter '{key}' must be positive after the "
                     f"spice benches ran")
    if v7:
        counters = doc["metrics"]["counters"]
        for key in ("arch.dyn_runs", "arch.waveforms", "arch.ete_evals",
                    "arch.compare_runs"):
            if not isinstance(counters.get(key), int) or counters[key] <= 0:
                fail(f"metrics: counter '{key}' must be positive after the "
                     f"arch benches ran")
    if v4:
        check_type(doc, "simd_backend", str, "top level")
        lanes = check_type(doc, "simd_lanes", int, "top level")
        if doc["simd_backend"] not in ("scalar", "sse2", "avx2"):
            fail(f"unknown simd_backend '{doc['simd_backend']}'")
        if lanes not in (1, 2, 4):
            fail(f"simd_lanes is {lanes}, expected 1, 2, or 4")

    names = set()
    cache_benches = 0
    simd_benches = 0
    serve_benches = 0
    rare_benches = 0
    arch_benches = 0
    spice_benches = 0
    for bench in doc["benches"]:
        if not isinstance(bench, dict):
            fail("bench entry is not an object")
        name = check_type(bench, "name", str, "bench entry")
        if name in names:
            fail(f"duplicate bench name '{name}'")
        names.add(name)
        check_type(bench, "config", dict, f"bench '{name}'")
        # Spice benches are dispatched before the cache benches: the MC
        # warm-start bench also has cold/warm sections, but they hold
        # solver counters rather than cache-throughput fields.
        if "spice_speedup" in bench:
            if not v8:
                fail(f"bench '{name}': spice benches require csdac-bench/8")
            check_spice_mna_bench(bench, name)
            spice_benches += 1
            continue
        if "warm_iter_reduction" in bench:
            if not v8:
                fail(f"bench '{name}': spice benches require csdac-bench/8")
            check_spice_mc_bench(bench, name)
            spice_benches += 1
            continue
        if "cold" in bench or "warm" in bench:
            if not v2:
                fail(f"bench '{name}': cache benches require csdac-bench/2")
            check_cache_bench(bench, name)
            cache_benches += 1
            continue
        if "simd" in bench or "scalar" in bench:
            if not v4:
                fail(f"bench '{name}': simd benches require csdac-bench/4")
            check_simd_bench(bench, name)
            simd_benches += 1
            continue
        if "serve" in bench:
            if not v5:
                fail(f"bench '{name}': serve benches require csdac-bench/5")
            check_serve_bench(bench, name)
            serve_benches += 1
            continue
        if "bridge" in bench or "is" in bench:
            if not v6:
                fail(f"bench '{name}': rare-event benches require "
                     f"csdac-bench/6")
            check_rare_bench(bench, name)
            rare_benches += 1
            continue
        if "architectures" in bench:
            if not v7:
                fail(f"bench '{name}': architecture benches require "
                     f"csdac-bench/7")
            check_arch_bench(bench, name)
            arch_benches += 1
            continue
        check_path(bench, name, "workspace")
        if "legacy" in bench:
            check_path(bench, name, "legacy")
            speedup = check_type(bench, "speedup", (int, float),
                                 f"bench '{name}'")
            if speedup <= 0:
                fail(f"bench '{name}': speedup must be positive")
    if v2 and not v5 and cache_benches == 0:
        fail("csdac-bench/2 document has no runtime cache benches")
    if v4 and simd_benches == 0:
        fail("csdac-bench/4 document has no simd-vs-scalar benches")
    if v5 and serve_benches == 0:
        fail("csdac-bench/5 document has no serve benches")
    if v6 and rare_benches == 0:
        fail("csdac-bench/6+ document has no rare-event bench")
    if v7 and arch_benches == 0:
        fail("csdac-bench/7 document has no architecture-comparison bench")
    if v7 and "runtime_cache_dyn_spectrum" not in names:
        fail("csdac-bench/7 document is missing the cached dyn-spectrum "
             "bench")
    if v8 and spice_benches < 2:
        fail("csdac-bench/8 document must carry both spice benches "
             "(spice_mna_12bit and spice_mc_warmstart)")

    print(f"check_bench_json: OK ({len(names)} benches: "
          f"{', '.join(sorted(names))})")
    if args.compare:
        check_compare(doc, args.compare, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
