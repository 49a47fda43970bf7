#!/usr/bin/env python3
"""Span post-processor: turns a traced run into the per-layer metrics.

Input is the directory a traced upibench_bin run wrote:

  result.json  raw counters from the untraced half of the run (pool, device,
               maintenance, WAL, plan cache, fan-out), and the median latency
               of the untraced queries interleaved with the traced ones
  spans.tsv    one span per line: id, parent, request, name, start_ns, end_ns

Span-derived metrics are medians of span durations. A layer's self time is
its span's duration minus the part of that interval its child spans cover;
exec.self_us is BoundQuery::Execute minus the AccessPath probe re-run
with the same inputs. Every ratio is printed with its base.

  python3 upibench/spans.py <run-dir>
"""
import json
import os
import statistics
import sys
from collections import defaultdict

NEXT_BATCH = 1024  # Cursor::Next calls per btree.next_batch span


def load_spans(path):
    spans = []
    with open(path) as f:
        next(f)  # header
        for line in f:
            sid, parent, request, name, start, end = line.rstrip("\n").split("\t")
            spans.append({"id": int(sid), "parent": int(parent),
                          "request": int(request), "name": name,
                          "start": int(start), "end": int(end)})
    return spans


def self_times(spans):
    """Per span name: list of (duration, self time) in ns."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[(s["request"], s["parent"])].append(s)
    out = defaultdict(list)
    for s in spans:
        covered, cursor = 0, s["start"]
        for c in sorted(children.get((s["request"], s["id"]), []),
                        key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        dur = s["end"] - s["start"]
        out[s["name"]].append((dur, dur - covered))
    return out


def median(values, default=0.0):
    return statistics.median(values) if values else default


def ratio(num, den):
    return num / den if den else 0.0


def derive(result, spans):
    """Returns [(name, value, unit, base)] for every per-layer metric."""
    c = defaultdict(float, result["counters"])
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s["end"] - s["start"])
    parents = {(s["request"], s["id"]): s["name"] for s in spans}

    def med_us(name):
        return median(by_name[name]) / 1e3

    # exec self time: re-executed BoundQuery minus the re-run path probe.
    per_rerun = defaultdict(dict)
    for s in spans:
        if parents.get((s["request"], s["parent"])) == "rerun":
            per_rerun[(s["request"], s["parent"])][s["name"]] = s["end"] - s["start"]
    exec_self = [r["exec.reexecute"] - r[p] for r in per_rerun.values()
                 for p in r if p.startswith("engine.path_") and "exec.reexecute" in r]
    executes = [s["end"] - s["start"] for s in spans if s["name"] == "exec.execute"]
    queries_traced = by_name["query"]
    setups = max(1, len(by_name["datagen.gen"]))
    q, w = c["queries"], c["writes"]
    frac_q = c["fractured_queries"] if "fractured_queries" in result["counters"] else q
    traced_p50 = median(queries_traced) / 1e3
    untraced_p50 = c["untraced_query_p50_us"]

    m = [
        ("datagen.gen_s", median(by_name["datagen.gen"]) / 1e9, "s",
         f"{len(by_name['datagen.gen'])} spans"),
        ("engine.create_table_s", sum(by_name["engine.create_table"]) / 1e9 / setups, "s",
         f"{len(by_name['engine.create_table'])} tables / {setups} set-ups"),
        ("btree.get_us", med_us("btree.get"), "us", f"{len(by_name['btree.get'])} gets"),
        ("btree.next_ns", median(by_name["btree.next_batch"]) / NEXT_BATCH, "ns",
         f"{len(by_name['btree.next_batch'])} batches of {NEXT_BATCH}"),
        ("engine.path_ptq_us", med_us("engine.path_ptq"), "us",
         f"{len(by_name['engine.path_ptq'])} probes"),
        ("engine.path_secondary_us", med_us("engine.path_secondary"), "us",
         f"{len(by_name['engine.path_secondary'])} probes"),
        ("engine.path_topk_us", med_us("engine.path_topk"), "us",
         f"{len(by_name['engine.path_topk'])} probes"),
        ("exec.execute_us", median(executes) / 1e3, "us", f"{len(executes)} executions"),
        ("exec.self_us", median(exec_self) / 1e3, "us", f"{len(exec_self)} re-run pairs"),
        ("exec.rows_per_query", ratio(c["query_rows"], q), "count",
         f"{c['query_rows']:.0f} rows / {q:.0f} queries"),
        ("engine.plan_us", med_us("engine.plan"), "us", f"{len(by_name['engine.plan'])} plans"),
        ("engine.plan_cache_hit_ratio", ratio(c["plan_hits"], c["plans"] + c["plan_hits"]),
         "ratio", f"{c['plan_hits']:.0f} hits / {c['plans'] + c['plan_hits']:.0f} binds"),
        ("storage.pool_hit_ratio",
         ratio(c["pool_hits"], c["pool_hits"] + c["pool_misses"]), "ratio",
         f"{c['pool_hits']:.0f} hits / {c['pool_hits'] + c['pool_misses']:.0f} fetches"),
        ("storage.pool_misses_per_query", ratio(c["pool_misses"], q), "count",
         f"{c['pool_misses']:.0f} misses / {q:.0f} queries"),
        ("storage.pool_evictions_per_query", ratio(c["pool_evictions"], q), "count",
         f"{c['pool_evictions']:.0f} evictions / {q:.0f} queries"),
        ("sim.reads_per_query", ratio(c["query_reads"], q), "count",
         f"{c['query_reads']:.0f} reads / {q:.0f} queries"),
        ("sim.seeks_per_query", ratio(c["query_seeks"], q), "count",
         f"{c['query_seeks']:.0f} seeks / {q:.0f} queries"),
        ("sim.file_opens_per_query", ratio(c["query_file_opens"], q), "count",
         f"{c['query_file_opens']:.0f} opens / {q:.0f} queries"),
        ("core.fractures_probed_per_query", ratio(c["fractures_probed"], frac_q), "count",
         f"{c['fractures_probed']:.0f} probed / {frac_q:.0f} fractured-table queries"),
        ("core.fractures_pruned_ratio",
         ratio(c["fractures_pruned"], c["fractures_probed"] + c["fractures_pruned"]), "ratio",
         f"{c['fractures_pruned']:.0f} pruned / "
         f"{c['fractures_probed'] + c['fractures_pruned']:.0f} fracture visits"),
        ("core.num_fractures", c["num_fractures"], "count", "fractured table at mid-run"),
        ("engine.shards_probed_per_query",
         ratio(c["shards_probed"], c["partitioned_queries"]), "count",
         f"{c['shards_probed']:.0f} probed / {c['partitioned_queries']:.0f} partitioned queries"),
        ("engine.shards_pruned_ratio",
         ratio(c["shards_pruned"], c["shards_probed"] + c["shards_pruned"]), "ratio",
         f"{c['shards_pruned']:.0f} pruned / "
         f"{c['shards_probed'] + c['shards_pruned']:.0f} shard visits"),
        ("maintenance.busy_frac", ratio(c["maint_busy_s"], c["window_s"]), "ratio",
         f"{c['maint_busy_s']:.3f} s in RunMaintenance / {c['window_s']:.3f} s"),
        ("maintenance.flushes", c["maint_flushes"], "count", "untraced half"),
        ("maintenance.partial_merges", c["maint_partial_merges"], "count", "untraced half"),
        ("maintenance.full_merges", c["maint_full_merges"], "count", "untraced half"),
        ("maintenance.task_sim_frac", ratio(c["maint_sim_ms"], c["disk_sim_ms"]), "ratio",
         f"{c['maint_sim_ms']:.1f} maintenance sim-ms / {c['disk_sim_ms']:.1f} device sim-ms"),
        ("storage.pool_writebacks_per_write", ratio(c["pool_writebacks"], w), "count",
         f"{c['pool_writebacks']:.0f} writebacks / {w:.0f} writes"),
        ("sim.writes_per_write", ratio(c["disk_writes"], w), "count",
         f"{c['disk_writes']:.0f} device writes / {w:.0f} writes"),
        ("wal.syncs_per_append", ratio(c["wal_syncs"], c["wal_appends"]), "ratio",
         f"{c['wal_syncs']:.0f} syncs / {c['wal_appends']:.0f} appends"),
        ("wal.bytes_per_write", ratio(c["wal_bytes"], w), "B",
         f"{c['wal_bytes']:.0f} log bytes / {w:.0f} writes"),
        ("sim.rotations_per_write", ratio(c["disk_rotations"], w), "count",
         f"{c['disk_rotations']:.0f} rotations / {w:.0f} writes"),
        ("wal.records_replayed", c["wal_records_replayed"], "count", "reopen after the window"),
        ("obs.trace_overhead_frac", ratio(traced_p50, untraced_p50) - 1 if untraced_p50 else 0.0,
         "ratio", f"traced query p50 {traced_p50:.2f} us / untraced {untraced_p50:.2f} us"),
    ]
    return m


def print_report(metrics, spans, out=sys.stdout):
    for name, value, unit, base in metrics:
        print(f"{name:34s} {value:14.4f} {unit:6s} ({base})", file=out)
    print("# span self time: name count median_us median_self_us total_self_ms", file=out)
    for name, rows in sorted(self_times(spans).items()):
        print(f"#   {name:24s} {len(rows):7d} {median([d for d, _ in rows]) / 1e3:10.2f}"
              f" {median([s for _, s in rows]) / 1e3:10.2f}"
              f" {sum(s for _, s in rows) / 1e6:10.1f}", file=out)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(argv[1], "result.json")) as f:
        result = json.load(f)
    spans = load_spans(os.path.join(argv[1], "spans.tsv"))
    print_report(derive(result, spans), spans)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
