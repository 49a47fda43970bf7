#!/usr/bin/env python3
"""Compares the simulated-cost rows of two BENCH JSON files.

Usage: tools/check_sim_rows.py BASELINE.json CANDIDATE.json

Both files are lists of bench rows ({"bench", "config", "sim_ms", "wall_ms",
"rows"}). The simulated clock is deterministic, so the two files must hold
the same rows in the same order, with `bench`, `config` (which carries the
per-query pages and seeks), `sim_ms` and `rows` equal exactly. `wall_ms` is
host time and is ignored. Exit status 0 = identical, 1 = a difference
(printed one per line), 2 = bad usage or unreadable input.
"""
import json
import sys

KEYS = ("bench", "config", "sim_ms", "rows")


def load(path):
    with open(path, encoding="utf-8") as f:
        rows = json.load(f)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a list of bench rows")
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        base, cand = load(argv[1]), load(argv[2])
    except (OSError, ValueError) as e:
        print(f"check_sim_rows: {e}", file=sys.stderr)
        return 2
    diffs = []
    if len(base) != len(cand):
        diffs.append(f"row count: {len(base)} vs {len(cand)}")
    for i, (a, b) in enumerate(zip(base, cand)):
        for key in KEYS:
            if a.get(key) != b.get(key):
                diffs.append(f"row {i} ({a.get('config')}): {key} "
                             f"{a.get(key)!r} vs {b.get(key)!r}")
    for d in diffs:
        print(d)
    print(f"check_sim_rows: {min(len(base), len(cand))} rows compared, "
          f"{len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
