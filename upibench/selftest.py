#!/usr/bin/env python3
"""Self-test of the benchmark's reference check.

For each workload, runs the benchmark program briefly twice: once as is, which must
report no failed operation, and once with one wrong expectation planted in
the possible-world oracle (--plant_wrong 1), which must make failed_frac
non-zero. Exits 0 when both hold on every workload.

  python3 upibench/selftest.py [workload ...]
"""
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["hot_serve", "cold_analytic", "durable_ingest"]


def failed_frac(binary, build_dir, workload, plant):
    out_dir = os.path.join(build_dir, "runs", f"selftest-{workload}-plant{plant}")
    subprocess.run([binary, "--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", "0", "--plant_wrong", str(plant),
                    "--out", out_dir], check=True, stdout=subprocess.DEVNULL,
                   timeout=run.RUN_TIMEOUT_S)
    with open(os.path.join(out_dir, "result.json")) as f:
        result = json.load(f)
    return result["failed"] / max(1, result["attempted"])


def main(workloads):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(run.ROOT, ".bench_build"))
    binary = run.build(build_dir)
    ok = True
    for w in workloads:
        clean = failed_frac(binary, build_dir, w, 0)
        planted = failed_frac(binary, build_dir, w, 1)
        passed = clean == 0 and planted > 0
        ok &= passed
        print(f"{w:16s} failed_frac clean={clean:.6f} planted={planted:.6f} "
              f"{'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or WORKLOADS))
