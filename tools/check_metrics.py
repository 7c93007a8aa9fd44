#!/usr/bin/env python3
"""Validate Prometheus text-exposition dumps written by csdac tools.

Parses the dump (stdlib only — no prometheus_client in the toolchain),
checks the exposition structure, then applies csdac-specific invariants:

  * every sample line is `name value` with a finite non-negative value,
    names match [a-zA-Z_][a-zA-Z0-9_]*; the label form `name{k="v",...}`
    is accepted on any sample, with the exposition escapes (\\, \",
    \n) decoded and series identity taken as (name, label set);
  * every metric has a # TYPE line (HELP is optional — instruments may
    register without help text) declaring counter/gauge/histogram;
  * counters end in _total; histogram series are complete (_bucket with
    a trailing le="+Inf", _sum, _count), bucket counts are cumulative
    (monotone in le) and the +Inf bucket equals _count — checked per
    label group, so csdac_serve_stage_us{kind=...,stage=...} must be a
    complete histogram for every (kind, stage) pair it mentions.

Modes:
  check_metrics.py METRICS.prom [--expect-simd BACKEND] [--expect-serve]
      Structural validation plus cold-run sanity: chips evaluated > 0 and
      cache misses >= 1 when the cache counters are present. The SIMD
      dispatch counters (csdac_simd_dispatch_{scalar,sse2,avx2}_total)
      must all be present with at least one Monte-Carlo run recorded.
      --expect-simd additionally pins WHICH backend ran: that backend's
      counter must be positive and the other two zero (used by CI to
      prove the CSDAC_SIMD override reached the kernels). The lane
      kernels' verdict counters (csdac_dac_decide_lanes_total and
      csdac_dac_decide_exact_lanes_total) must be present too, and the
      verdicts taken from the exact code walk at most 1 % of them.
  check_metrics.py --cold COLD.prom --warm WARM.prom
      Additionally asserts the warm run recomputed nothing: the warm dump
      must show csdac_cache_misses_total == 0,
      csdac_mc_chips_evaluated_total == 0, csdac_cache_hits_total >= 1,
      and warm hits >= cold misses (every cold result reached the store).

--expect-serve (either mode) additionally requires the design-server
counters: connections and requests accepted, zero error frames, a
complete serve.request_us latency histogram, and — when the hot-tier
series are present — one hot-tier outcome per submitted job:
csdac_cache_hot_hits_total + csdac_cache_hot_misses_total ==
csdac_sched_submitted_total (a queued task's worker counts its hit or
miss, a hit answered at submit counts itself, a dedup attachment is not
a submission). Used by the CI serve-smoke job on the
dumps the server writes at shutdown.

--expect-rare (either mode) additionally requires the rare-event
estimator instruments: the cold dump must show at least one importance-
sampling run with proposal chips drawn and a positive csdac_rare_ess
gauge (the ESS diagnostic actually reached the registry); the warm dump
must show ZERO rare-event proposal chips — a cached IS result must be
served without re-running the estimator.

--expect-spice (either mode) additionally requires the sparse-MNA SPICE
instruments: the cold dump must show at least one SPICE mismatch-MC run
with Newton iterations, batched device evaluations, and — the point of
the symbolic-reuse engine — at least one symbolic factorization that was
then replayed as numeric refactorizations; the warm dump must show ZERO
Newton iterations and device evaluations — a cached SPICE MC result must
be served without re-simulating anything.

--expect-stages (either mode) requires the per-stage latency attribution
histograms (csdac_serve_stage_us{kind=...,stage=...}): every kind that
appears must carry the full stage set (admission, queue, hot, disk,
compute, store, serialize, total). On a cold dump the compute stage must
have accumulated positive time (work actually ran). On a warm dump the
compute stage must have count > 0 with sum == 0: every job was observed
through the stage pipeline, and every one of them skipped compute
because the cache answered.

--expect-arch (either mode) additionally requires the dynamic-error
architecture instruments: the cold dump must show at least one
dyn-spectrum run with waveform syntheses and ETE predictions recorded;
the warm dump must show ZERO waveform syntheses — a cached dyn-spectrum
result must be served without re-synthesizing waveforms.

Exits nonzero with a message on the first violation.
"""
import math
import re
import sys

SIMD_BACKENDS = ("scalar", "sse2", "avx2")

NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

STAGE_HIST = "csdac_serve_stage_us"
STAGES = ("admission", "queue", "hot", "disk", "compute", "store",
          "serialize", "total")


def fail(msg):
    print(f"check_metrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_sample_name(raw, where):
    """Splits `name{k="v",...}` into (name, labels) with labels a tuple of
    (key, value) pairs, decoding the exposition escapes (backslash, quote,
    newline). A bare name yields an empty label tuple."""
    brace = raw.find("{")
    if brace < 0:
        if not NAME_RE.match(raw):
            fail(f"{where}: bad metric name {raw!r}")
        return raw, ()
    name = raw[:brace]
    if not NAME_RE.match(name):
        fail(f"{where}: bad metric name {name!r}")
    if not raw.endswith("}"):
        fail(f"{where}: unterminated label set in {raw!r}")
    body = raw[brace + 1:-1]
    labels = []
    i = 0
    while i < len(body):
        eq = body.find('="', i)
        if eq < 0:
            fail(f"{where}: malformed label set in {raw!r}")
        key = body[i:eq]
        if not NAME_RE.match(key):
            fail(f"{where}: bad label name {key!r} in {raw!r}")
        i = eq + 2
        val = []
        while True:
            if i >= len(body):
                fail(f"{where}: unterminated label value in {raw!r}")
            c = body[i]
            if c == "\\":
                if i + 1 >= len(body):
                    fail(f"{where}: dangling escape in {raw!r}")
                esc = body[i + 1]
                if esc == "n":
                    val.append("\n")
                elif esc in ('"', "\\"):
                    val.append(esc)
                else:
                    fail(f"{where}: unknown escape \\{esc} in {raw!r}")
                i += 2
            elif c == '"':
                i += 1
                break
            else:
                val.append(c)
                i += 1
        labels.append((key, "".join(val)))
        if i < len(body):
            if body[i] != ",":
                fail(f"{where}: expected ',' between labels in {raw!r}")
            i += 1
            if i >= len(body):
                fail(f"{where}: trailing comma in {raw!r}")
    return name, tuple(sorted(labels))


def sample_key(name, labels):
    """Series identity: plain string for label-free samples (keeps the
    existing check_* helpers untouched), (name, labels) otherwise."""
    return name if not labels else (name, labels)


def labels_text(labels):
    return "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"


def parse_value(text, where):
    try:
        v = float(text)
    except ValueError:
        fail(f"{where}: bad sample value {text!r}")
    if math.isnan(v) or math.isinf(v):
        fail(f"{where}: non-finite sample value {text!r}")
    return v


def parse_exposition(path):
    """Returns (samples, types): samples maps a series key — the bare
    name, or (name, labels) for labeled series — to its value; types maps
    metric name to the declared TYPE."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    if not lines:
        fail(f"{path} is empty")

    samples = {}
    types = {}
    for i, line in enumerate(lines, 1):
        where = f"{path}:{i}"
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 4:
                fail(f"{where}: HELP line without text")
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                fail(f"{where}: malformed TYPE line")
            name, kind = parts[2], parts[3]
            if kind not in ("counter", "gauge", "histogram"):
                fail(f"{where}: unknown metric type {kind!r}")
            if name in types:
                fail(f"{where}: duplicate TYPE for {name}")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        # rsplit, not split: label values may legally contain spaces
        # (the escaper only rewrites backslash, quote, newline).
        fields = line.rsplit(None, 1)
        if len(fields) != 2:
            fail(f"{where}: sample line is not `name value`")
        raw_name, value = fields
        name, labels = parse_sample_name(raw_name, where)
        key = sample_key(name, labels)
        if key in samples:
            fail(f"{where}: duplicate sample {raw_name!r}")
        samples[key] = parse_value(value, where)
    if not types:
        fail(f"{path}: no TYPE lines — not an exposition dump?")
    return samples, types


def le_key(le):
    return math.inf if le == "+Inf" else float(le)


def series_of(samples, name):
    """All samples of one metric as (labels, value) pairs."""
    out = []
    for key, v in samples.items():
        if key == name:
            out.append(((), v))
        elif isinstance(key, tuple) and key[0] == name:
            out.append((key[1], v))
    return out


def check_structure(path, samples, types):
    for name, kind in types.items():
        if kind == "counter":
            if not name.endswith("_total"):
                fail(f"{path}: counter {name} lacks _total suffix")
            series = series_of(samples, name)
            if not series:
                fail(f"{path}: counter {name} has no sample")
            for labels, v in series:
                if v < 0:
                    fail(f"{path}: counter {name}{labels_text(labels)} "
                         f"is negative")
        elif kind == "gauge":
            if not series_of(samples, name):
                fail(f"{path}: gauge {name} has no sample")
        elif kind == "histogram":
            # Group the buckets by their non-le labels: each group is an
            # independent histogram series needing +Inf / _sum / _count.
            groups = {}
            for labels, v in series_of(samples, name + "_bucket"):
                les = [lv for lk, lv in labels if lk == "le"]
                if len(les) != 1:
                    fail(f"{path}: bucket {name}{labels_text(labels)} "
                         f"needs exactly one le label")
                group = tuple(p for p in labels if p[0] != "le")
                groups.setdefault(group, []).append((le_key(les[0]), v))
            if not groups:
                fail(f"{path}: histogram {name} has no buckets")
            for group, buckets in sorted(groups.items()):
                tag = name + (labels_text(group) if group else "")
                buckets.sort(key=lambda p: p[0])
                if buckets[-1][0] != math.inf:
                    fail(f"{path}: histogram {tag} lacks a +Inf bucket")
                prev = -1
                for le, count in buckets:
                    if count < prev:
                        fail(f"{path}: histogram {tag} bucket le={le} "
                             f"count {count} below previous {prev} "
                             f"(not cumulative)")
                    prev = count
                for suffix in ("_sum", "_count"):
                    if sample_key(name + suffix, group) not in samples:
                        fail(f"{path}: histogram {tag} lacks {suffix}")
                count = samples[sample_key(name + "_count", group)]
                if buckets[-1][1] != count:
                    fail(f"{path}: histogram {tag} +Inf bucket "
                         f"{buckets[-1][1]} != _count {count}")
    # Every sample must belong to a declared metric.
    for key in samples:
        base = key[0] if isinstance(key, tuple) else key
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base.removesuffix(
                    suffix) in types:
                base = base.removesuffix(suffix)
                break
        if base not in types:
            fail(f"{path}: sample {key!r} has no TYPE declaration")


def counter(samples, name, default=None):
    v = samples.get(name, default)
    if v is None:
        fail(f"expected counter {name} in dump")
    return v


def check_cold(path, samples):
    if counter(samples, "csdac_mc_chips_evaluated_total") <= 0:
        fail(f"{path}: cold run evaluated no Monte-Carlo chips")
    if "csdac_cache_misses_total" in samples:
        if counter(samples, "csdac_cache_misses_total") < 1:
            fail(f"{path}: cold run shows no cache misses")
    check_simd(path, samples)
    check_decide(path, samples)


def check_decide(path, samples):
    """The lane kernels decide a chip from the segmented decomposition of
    its transfer and walk every code only when its metric lies within the
    decomposition's rounding bound of the limit. That must stay rare, or
    the kernels have lost their speed without any result changing."""
    lanes = counter(samples, "csdac_dac_decide_lanes_total")
    exact = counter(samples, "csdac_dac_decide_exact_lanes_total")
    if exact > 0.01 * lanes:
        fail(f"{path}: {int(exact)} of {int(lanes)} chip verdicts took the "
             f"exact code walk (more than 1 %)")


def check_simd(path, samples, expect=None):
    """The SIMD dispatch counters are registered eagerly, so every dump
    must carry all three; a run that evaluated chips must have recorded at
    least one dispatch. With `expect`, only that backend may be positive —
    this is how CI proves a CSDAC_SIMD override actually took effect."""
    dispatch = {
        b: counter(samples, f"csdac_simd_dispatch_{b}_total")
        for b in SIMD_BACKENDS
    }
    if sum(dispatch.values()) < 1:
        fail(f"{path}: no SIMD dispatch recorded despite chip evaluations")
    if expect is not None:
        if expect not in dispatch:
            fail(f"--expect-simd {expect!r}: unknown backend "
                 f"(one of {SIMD_BACKENDS})")
        if dispatch[expect] < 1:
            fail(f"{path}: expected {expect} dispatches, counter is 0")
        for b, v in dispatch.items():
            if b != expect and v != 0:
                fail(f"{path}: expected only {expect} dispatches, but "
                     f"{b} recorded {int(v)}")


def check_serve(path, samples):
    """A dump from the design server must show it actually served:
    connections accepted, requests answered, no error frames, and the
    request latency histogram populated."""
    if counter(samples, "csdac_serve_connections_total") < 1:
        fail(f"{path}: server accepted no connections")
    requests = counter(samples, "csdac_serve_requests_total")
    if requests < 1:
        fail(f"{path}: server answered no requests")
    if counter(samples, "csdac_serve_errors_total", 0) != 0:
        fail(f"{path}: server sent "
             f"{int(samples['csdac_serve_errors_total'])} error frame(s)")
    latency_count = samples.get("csdac_serve_request_us_count", 0)
    if latency_count < requests:
        fail(f"{path}: latency histogram recorded {int(latency_count)} "
             f"requests, counter says {int(requests)}")
    if "csdac_cache_hot_hits_total" in samples:
        hits = counter(samples, "csdac_cache_hot_hits_total")
        misses = counter(samples, "csdac_cache_hot_misses_total")
        submitted = counter(samples, "csdac_sched_submitted_total")
        if hits + misses != submitted:
            fail(f"{path}: {int(hits)} hot hits + {int(misses)} hot misses "
                 f"!= {int(submitted)} submitted jobs — a job's hot-tier "
                 f"outcome was counted twice or not at all")


def check_rare_cold(path, samples):
    """A dump from a run that importance-sampled a rare-event job."""
    if counter(samples, "csdac_rare_is_runs_total") < 1:
        fail(f"{path}: no importance-sampling runs recorded")
    if counter(samples, "csdac_rare_is_chips_total") < 1:
        fail(f"{path}: importance sampling drew no proposal chips")
    ess = samples.get("csdac_rare_ess")
    if ess is None:
        fail(f"{path}: rare-event run did not publish the csdac_rare_ess "
             f"gauge")
    if ess <= 0:
        fail(f"{path}: csdac_rare_ess is {ess} — the reweighted estimate "
             f"carries no information")
    essf = samples.get("csdac_rare_ess_fraction")
    if essf is None or not 0.0 < essf <= 1.0:
        fail(f"{path}: csdac_rare_ess_fraction missing or out of (0, 1] "
             f"(got {essf!r})")


def check_rare_warm(path, samples):
    if counter(samples, "csdac_rare_is_chips_total", 0) != 0:
        fail(f"{path}: warm run drew rare-event proposal chips — the "
             f"cached IS result was recomputed")


def check_arch_cold(path, samples):
    """A dump from a run that executed a dynamic-spectrum timing-MC job."""
    if counter(samples, "csdac_arch_dyn_runs_total") < 1:
        fail(f"{path}: no dynamic-spectrum runs recorded")
    if counter(samples, "csdac_arch_waveforms_total") < 1:
        fail(f"{path}: dyn-spectrum run synthesized no waveforms")
    if counter(samples, "csdac_arch_ete_evals_total") < 1:
        fail(f"{path}: dyn-spectrum run made no ETE predictions — the "
             f"analytic cross-check never ran")


def check_arch_warm(path, samples):
    if counter(samples, "csdac_arch_waveforms_total", 0) != 0:
        fail(f"{path}: warm run synthesized waveforms — the cached "
             f"dyn-spectrum result was recomputed")


def check_spice_cold(path, samples):
    """A dump from a run that executed a SPICE-in-the-loop mismatch MC."""
    if counter(samples, "csdac_spice_mc_runs_total") < 1:
        fail(f"{path}: no SPICE mismatch-MC runs recorded")
    if counter(samples, "csdac_spice_newton_iters_total") < 1:
        fail(f"{path}: SPICE run recorded no Newton iterations")
    if counter(samples, "csdac_spice_device_evals_total") < 1:
        fail(f"{path}: SPICE run made no batched device evaluations")
    if counter(samples, "csdac_spice_factorizations_total") < 1:
        fail(f"{path}: SPICE run never built a symbolic factorization — "
             f"the sparse engine was not exercised")
    if counter(samples, "csdac_spice_refactorizations_total") < 1:
        fail(f"{path}: SPICE run never reused a symbolic factorization — "
             f"every solve paid the full symbolic cost")
    rate = samples.get("csdac_spice_warm_start_hit_rate")
    if rate is None or not 0.0 <= rate <= 1.0:
        fail(f"{path}: csdac_spice_warm_start_hit_rate missing or out of "
             f"[0, 1] (got {rate!r})")


def check_spice_warm(path, samples):
    for name in ("csdac_spice_newton_iters_total",
                 "csdac_spice_device_evals_total"):
        if counter(samples, name, 0) != 0:
            fail(f"{path}: warm run shows nonzero {name} — the cached "
                 f"SPICE MC result was re-simulated")


def stage_values(samples, suffix):
    """(kind, stage) -> value over csdac_serve_stage_us_<suffix> series."""
    out = {}
    for labels, v in series_of(samples, STAGE_HIST + suffix):
        d = dict(labels)
        if "kind" in d and "stage" in d:
            out[(d["kind"], d["stage"])] = v
    return out


def check_stages_complete(path, samples):
    """Every job kind that shows up in the stage histograms must carry
    the full stage vocabulary — a missing stage means some path through
    serve::answer (serve/answer.cpp) skipped part of the attribution
    pipeline."""
    sums = stage_values(samples, "_sum")
    if not sums:
        fail(f"{path}: no {STAGE_HIST} series — per-stage latency "
             f"attribution never reached the registry")
    for kind in sorted({k for k, _ in sums}):
        for stage in STAGES:
            if (kind, stage) not in sums:
                fail(f"{path}: stage histograms for kind={kind} lack "
                     f"stage={stage}")
    return sums


def check_stages_cold(path, samples):
    sums = check_stages_complete(path, samples)
    compute = sum(v for (_, s), v in sums.items() if s == "compute")
    if compute <= 0:
        fail(f"{path}: cold run attributed zero compute time — stage "
             f"timing is not reaching the executor")


def check_stages_warm(path, samples):
    sums = check_stages_complete(path, samples)
    counts = stage_values(samples, "_count")
    observed = sum(v for (_, s), v in counts.items() if s == "compute")
    if observed < 1:
        fail(f"{path}: warm run observed no jobs through the compute "
             f"stage — zero-duration stages must still be recorded")
    compute = sum(v for (_, s), v in sums.items() if s == "compute")
    if compute != 0:
        fail(f"{path}: warm run attributed {int(compute)} us of compute "
             f"— the cache did not answer everything")


def check_warm(path, samples):
    if counter(samples, "csdac_cache_misses_total", 0) != 0:
        fail(f"{path}: warm run has cache misses — the cache did not "
             f"answer everything")
    if counter(samples, "csdac_mc_chips_evaluated_total", 0) != 0:
        fail(f"{path}: warm run evaluated Monte-Carlo chips")
    if counter(samples, "csdac_cache_hits_total", 0) < 1:
        fail(f"{path}: warm run shows no cache hits")


def main(argv):
    expect_serve = "--expect-serve" in argv
    argv = [a for a in argv if a != "--expect-serve"]
    expect_rare = "--expect-rare" in argv
    argv = [a for a in argv if a != "--expect-rare"]
    expect_arch = "--expect-arch" in argv
    argv = [a for a in argv if a != "--expect-arch"]
    expect_spice = "--expect-spice" in argv
    argv = [a for a in argv if a != "--expect-spice"]
    expect_stages = "--expect-stages" in argv
    argv = [a for a in argv if a != "--expect-stages"]
    expect_simd = None
    if len(argv) == 4 and argv[2] == "--expect-simd":
        expect_simd = argv[3]
        argv = argv[:2]
    if len(argv) == 2 and not argv[1].startswith("-"):
        samples, types = parse_exposition(argv[1])
        check_structure(argv[1], samples, types)
        check_cold(argv[1], samples)
        if expect_simd is not None:
            check_simd(argv[1], samples, expect_simd)
        if expect_serve:
            check_serve(argv[1], samples)
        if expect_rare:
            check_rare_cold(argv[1], samples)
        if expect_arch:
            check_arch_cold(argv[1], samples)
        if expect_spice:
            check_spice_cold(argv[1], samples)
        if expect_stages:
            check_stages_cold(argv[1], samples)
        print(f"check_metrics: OK — {argv[1]}: {len(types)} metrics, "
              f"{len(samples)} samples")
        return 0
    if len(argv) == 5 and argv[1] == "--cold" and argv[3] == "--warm":
        cold_path, warm_path = argv[2], argv[4]
        cold, cold_types = parse_exposition(cold_path)
        warm, warm_types = parse_exposition(warm_path)
        check_structure(cold_path, cold, cold_types)
        check_structure(warm_path, warm, warm_types)
        check_cold(cold_path, cold)
        check_warm(warm_path, warm)
        if expect_serve:
            check_serve(cold_path, cold)
            check_serve(warm_path, warm)
        if expect_rare:
            check_rare_cold(cold_path, cold)
            check_rare_warm(warm_path, warm)
        if expect_arch:
            check_arch_cold(cold_path, cold)
            check_arch_warm(warm_path, warm)
        if expect_spice:
            check_spice_cold(cold_path, cold)
            check_spice_warm(warm_path, warm)
        if expect_stages:
            check_stages_cold(cold_path, cold)
            check_stages_warm(warm_path, warm)
        if counter(warm, "csdac_cache_hits_total") < counter(
                cold, "csdac_cache_misses_total"):
            fail("warm hits < cold misses: some cold results never "
                 "reached the cache")
        print(f"check_metrics: OK — cold evaluated "
              f"{int(cold['csdac_mc_chips_evaluated_total'])} chips with "
              f"{int(cold['csdac_cache_misses_total'])} misses; warm "
              f"served {int(warm['csdac_cache_hits_total'])} hits with "
              f"0 chips")
        return 0
    print("usage: check_metrics.py METRICS.prom [--expect-simd BACKEND] "
          "[--expect-serve] [--expect-rare] [--expect-arch] "
          "[--expect-spice] [--expect-stages]\n"
          "       check_metrics.py --cold COLD.prom --warm WARM.prom "
          "[--expect-serve] [--expect-rare] [--expect-arch] "
          "[--expect-spice] [--expect-stages]",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
