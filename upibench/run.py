#!/usr/bin/env python3
"""The UPI engine benchmark: builds its program from source and runs one workload.

  python3 upibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark program (upibench/src, its own
CMake project compiling ../src) is built into $CARGO_TARGET_DIR, or .bench_build
when that is unset. Workloads and metrics are declared in BENCHMARK.json:

  --trace 0  the end-to-end metrics, measured with tracing off;
  --trace 1  the per-layer metrics, from a separate traced run
             (upibench/spans.py derives them from the span file).

Every metric is printed with its unit (and sample count, for timings); the
last stdout line is the JSON result. Exits non-zero, printing no result,
when the engine sources are missing, the build fails, or the program fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import spans  # noqa: E402

RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"upibench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the program; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "database.h")):
        fail("engine sources (src/) not found next to upibench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir, *generator,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "upibench_bin")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark program timed out", 1)
    sys.stdout.write(r.stdout)
    if r.returncode != 0:
        fail(f"benchmark program exited with {r.returncode}", 1)
    with open(os.path.join(out_dir, "result.json")) as f:
        result = json.load(f)

    if args.trace:
        span_list = spans.load_spans(os.path.join(out_dir, "spans.tsv"))
        derived = spans.derive(result, span_list)
        spans.print_report(derived, span_list)
        have = {name: (value, unit) for name, value, unit, _ in derived}
    else:
        have = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    metrics = {}
    for m in wanted:
        if m["name"] not in have:
            fail(f"benchmark program did not report {m['name']}", 1)
        value, unit = have[m["name"]]
        if unit != m["unit"]:
            fail(f"{m['name']} reported in {unit}, declared in {m['unit']}", 1)
        metrics[m["name"]] = {"value": value, "unit": unit}

    attempted, failed = int(result["attempted"]), int(result["failed"])
    print(f"# seed={args.seed} threads={result['threads']} "
          f"failed_frac={failed / max(1, attempted):.6f} ({failed} / {attempted})")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
