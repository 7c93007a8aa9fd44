#!/usr/bin/env python3
"""Validates a csdac-bench JSON document.

Accepts the two documents a producer in the tree writes:

* csdac-bench/9, from tools/run_benches: the metrics-registry snapshot
  (engine counters, positive mc.chips_evaluated, consistent histograms,
  moved arch.* and spice.* counters), the active SIMD dispatch, and the
  four gated benches. The rare-event bench needs per-estimator
  "chips_to_ci", a healthy IS effective sample size and an
  "is_chip_reduction" above 1. The architecture table must sweep binary
  plus two more weightings with sane per-architecture numbers. The sparse
  MNA bench needs dense/sparse solutions within 1e-9 and a positive
  "spice_speedup"; the SPICE MC bench needs identical cold and warm yields
  and a "warm_iter_reduction" above 1.
* csdac-bench/5, from tools/csdac_loadgen: at least one bench with a
  "serve" section; any failed request, cross-client result mismatch or
  non-positive throughput fails validation.

With --compare BASELINE.json, every baseline bench path with a positive
chips_per_s must be present in this run and reach at least
(1 - tolerance) times the baseline (default tolerance 0.2). Wall-time
baselines only transfer between same-shaped runs, so compare smoke runs
against smoke baselines and full runs against full baselines.

Used by the CI bench-smoke and serve-smoke jobs; exits nonzero with a
message on the first violation. Stdlib only.
"""
import argparse
import json
import sys

SCHEMAS = ("csdac-bench/5", "csdac-bench/9")
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
    if "yield" in path and not 0.0 <= path["yield"] <= 1.0:
        fail(f"{where}: yield out of [0, 1]")
    return path


def check_metrics(doc):
    """Embedded registry snapshot."""
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


def check_rare_bench(bench, name):
    """Rare-event estimator bench."""
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
    """Architecture-comparison bench."""
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
    """Dense-vs-sparse MNA solve bench."""
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
    """SPICE mismatch-MC warm-start bench."""
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
    """Design-server loadgen bench."""
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
    """{(bench_name, path_name): path} for every path reporting chips/s."""
    return {(bench["name"], which): path
            for bench in doc.get("benches", [])
            if isinstance(bench, dict) and "name" in bench
            for which, path in bench.items()
            if isinstance(path, dict) and "chips_per_s" in path}


def check_compare(doc, baseline_path, tolerance):
    """Fails on a missing path or a >tolerance relative throughput drop."""
    try:
        with open(baseline_path, encoding="utf-8") as f:
            base = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot parse baseline {baseline_path}: {e}")
    run_paths = bench_paths(doc)
    compared = 0
    for (bench, which), ref in bench_paths(base).items():
        if ref["chips_per_s"] <= 0:
            continue
        path = run_paths.get((bench, which))
        if path is None:
            fail(f"bench '{bench}' / {which}: in the baseline but missing "
                 f"from this run")
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
        description="Validate a csdac-bench JSON document.")
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
    gated = doc["schema"] == "csdac-bench/9"
    if not doc["benches"]:
        fail("benches array is empty")
    if gated:
        check_metrics(doc)
        counters = doc["metrics"]["counters"]
        for key in ("spice.solves", "spice.newton_iters",
                    "spice.factorizations", "spice.refactorizations",
                    "spice.device_evals"):
            if not isinstance(counters.get(key), int) or counters[key] <= 0:
                fail(f"metrics: counter '{key}' must be positive after the "
                     f"spice benches ran")
        for key in ("arch.waveforms", "arch.ete_evals", "arch.compare_runs"):
            if not isinstance(counters.get(key), int) or counters[key] <= 0:
                fail(f"metrics: counter '{key}' must be positive after the "
                     f"arch benches ran")
        check_type(doc, "simd_backend", str, "top level")
        lanes = check_type(doc, "simd_lanes", int, "top level")
        if doc["simd_backend"] not in ("scalar", "sse2", "avx2"):
            fail(f"unknown simd_backend '{doc['simd_backend']}'")
        if lanes not in (1, 2, 4):
            fail(f"simd_lanes is {lanes}, expected 1, 2, or 4")

    names = set()
    counts = {"serve": 0, "rare": 0, "arch": 0, "spice": 0}
    for bench in doc["benches"]:
        if not isinstance(bench, dict):
            fail("bench entry is not an object")
        name = check_type(bench, "name", str, "bench entry")
        if name in names:
            fail(f"duplicate bench name '{name}'")
        names.add(name)
        check_type(bench, "config", dict, f"bench '{name}'")
        if "spice_speedup" in bench:
            check_spice_mna_bench(bench, name)
            kind = "spice"
        elif "warm_iter_reduction" in bench:
            check_spice_mc_bench(bench, name)
            kind = "spice"
        elif "serve" in bench:
            check_serve_bench(bench, name)
            kind = "serve"
        elif "bridge" in bench or "is" in bench:
            check_rare_bench(bench, name)
            kind = "rare"
        elif "architectures" in bench:
            check_arch_bench(bench, name)
            kind = "arch"
        else:
            fail(f"bench '{name}': not a bench this schema knows")
        if (kind == "serve") == gated:
            fail(f"bench '{name}': {kind} benches do not belong in a "
                 f"{doc['schema']} document")
        counts[kind] += 1
    if not gated and counts["serve"] == 0:
        fail("csdac-bench/5 document has no serve benches")
    if gated and counts["rare"] == 0:
        fail("csdac-bench/9 document has no rare-event bench")
    if gated and counts["arch"] == 0:
        fail("csdac-bench/9 document has no architecture-comparison bench")
    if gated and counts["spice"] < 2:
        fail("csdac-bench/9 document must carry both spice benches "
             "(spice_mna_12bit and spice_mc_warmstart)")

    print(f"check_bench_json: OK ({len(names)} benches: "
          f"{', '.join(sorted(names))})")
    if args.compare:
        check_compare(doc, args.compare, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
