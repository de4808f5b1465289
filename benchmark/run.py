#!/usr/bin/env python3
"""The serving benchmark's one command.

Builds benchmark/ (Release, into build-benchmark/ at the repository root)
and runs each workload in its own process, so caches, resident memory and
thread counts never leak from one workload into the next.

Two ways to call it, both from the repository root:

  python3 benchmark/run.py --workload scan --seed 2021 --seconds 10 --trace 0
      one workload; the last stdout line is its result object
      {"correct", "attempted", "failed", "metrics"}.

  python3 benchmark/run.py [--seed S] [--workloads a,b] [--trace] [--smoke]
      every (or the listed) workload; prints one "workload metric value unit"
      line per metric and writes benchmark/out/results.json with the host
      facts. Nothing is written when any workload fails its gates.

Standard library only.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
BUILD = ROOT / "build-benchmark"
BINARY = BUILD / "exawatt_benchmark"
OUT = BENCH / "out"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; output goes to stderr.
    A first build takes about a minute on 4 cores; the timeouts keep a
    first run, build included, under 15 minutes."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no library sources under {ROOT} to build against")
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=120)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "exawatt_benchmark", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=600)


def run_one(bench, workload, seed, seconds, trace, smoke):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(OUT)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    declared = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    if list(result["metrics"]) != declared:
        raise RuntimeError(f"{workload} reported metrics other than the ones "
                           "BENCHMARK.json declares")
    return result


def host_facts(seed, seconds, trace, smoke):
    compiler = "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text(encoding="utf-8").splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1]
                version = subprocess.run([path, "--version"], text=True,
                                         stdout=subprocess.PIPE, check=False)
                compiler = version.stdout.splitlines()[0] if version.stdout else path
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         check=False).stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "build_type": "Release",
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "machine": platform.machine(),
        "kernel": platform.release(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main():
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload and print only its result object")
    ap.add_argument("--workloads", default=",".join(names),
                    help="comma-separated workloads (default: all)")
    ap.add_argument("--seed", type=int, default=2021)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", nargs="?", const="1", default="0",
                    choices=["0", "1"], help="per-layer run (writes traces)")
    ap.add_argument("--smoke", action="store_true",
                    help="1/20 length, all gates on")
    ap.add_argument("--results", default=str(OUT / "results.json"),
                    help="where the all-workload mode writes its results")
    args = ap.parse_args()
    trace = args.trace == "1"

    try:
        build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"run.py: build failed: {e}")
        return 2

    if args.workload:
        try:
            result = run_one(bench, args.workload, args.seed, args.seconds,
                             trace, args.smoke)
        except (RuntimeError, ValueError, subprocess.SubprocessError) as e:
            log(f"run.py: {e}")
            return 1
        print(json.dumps(result))
        return 0

    wanted = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in wanted if w not in names]
    if unknown:
        log(f"run.py: unknown workloads {unknown}; known: {names}")
        return 2
    results = {}
    for w in wanted:
        try:
            results[w] = run_one(bench, w, args.seed, args.seconds, trace,
                                 args.smoke)
        except (RuntimeError, ValueError, subprocess.SubprocessError) as e:
            log(f"run.py: {e}; no results written")
            return 1
        for name, m in results[w]["metrics"].items():
            print(f"{w} {name} {m['value']:.6g} {m['unit']}")
        print(f"{w} attempted {results[w]['attempted']} count")
        print(f"{w} failed {results[w]['failed']} count", flush=True)
    path = Path(args.results)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"host": host_facts(args.seed, args.seconds, trace, args.smoke),
           "workloads": results}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    log(f"run.py: wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
