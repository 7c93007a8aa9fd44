#!/usr/bin/env python3
"""Design-server benchmark.

Builds the shipped csdac_serve server and the benchmark runner from this
checkout's sources (perfbench/CMakeLists.txt, build tree under
$CARGO_TARGET_DIR or .bench_build), then runs one workload:

  python3 perfbench/run.py --workload warm_hit --seed 1 --seconds 10 --trace 0

Workloads: warm_hit, cold_mc (see BENCHMARK.json for why each exists);
--workload all runs both in turn and exits nonzero if either does. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer ones. The last stdout line is the result object; the runner also
writes a full record (environment stamp, p99, sample counts) and, for
--trace 1, a Chrome trace of its spans under <build>/perfbench-results.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_hit", "cold_mc")
# The runner stops itself at 170 s; this only guards a hung runner.
RUNNER_TIMEOUT_S = 178


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the program's sources: names the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    # Only this checkout's own repository: a bare copy inside some other
    # repository must not report that repository's commit.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr
    so the result stays the last stdout line."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "--target", "csdac_serve",
                    "perfbench_runner", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                 "tools/csdac_serve.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die("no program sources here (missing %s)" % need)

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    build_dir = os.path.join(base, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        die("build failed: %s" % e)

    common = ["--seed", str(args.seed),
              "--seconds", repr(args.seconds),
              "--trace", str(args.trace),
              "--server", os.path.join(build_dir, "csdac_tools", "csdac_serve"),
              "--root", ROOT,
              "--work", os.path.join(base, "perfbench-work"),
              "--out", os.path.join(base, "perfbench-results"),
              "--git-sha", git_sha(),
              "--source-digest", source_digest()]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        cmd = [os.path.join(build_dir, "perfbench_runner"),
               "--workload", name] + common
        try:
            r = subprocess.run(cmd, timeout=RUNNER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("runner timed out on " + name)
        status = status or r.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
