"""Plan-engine benchmark: compiled built-ins vs their raw plans.

``get_count`` / ``top_k_flows`` are thin compilations onto the declarative
plan IR (``compile_get_count``, ``compile_top_k_flows``).  This benchmark
proves the built-in layer costs nothing over the IR and that the pushdown
is real:

* wall time of each built-in versus the same question shipped as a raw
  ``Q_PLAN`` of its compiled plan, over a serial cluster in the same run
  (median of interleaved repeats, many queries per sample) - the built-in
  must stay within **1.2x** of its raw plan;
* a flow-keyed plan over a spanning (hot+cold) TIB must show nonzero hot
  index routing *and* nonzero cold segment pruning in its per-plan scan
  statistics - the Filter provably pushed down into both tiers.

Writes ``reports/plan_engine.txt`` and folds a machine-readable summary
into ``BENCH_storage.json`` under ``"plans"``.
"""

import statistics
import time

from repro.analysis import format_table
from repro.core import (Q_GET_COUNT, Q_PLAN, Q_TOP_K_FLOWS, Query,
                        QueryCluster)
from repro.core import plan as planlib
from repro.core.plan import Aggregate, Filter, Plan, TopK
from repro.core.tib import Tib
from repro.storage import ColdArchive, RetentionPolicy
from repro.storage.records import flow_key

from query_testbed import QUICK, build_query_topology, populate_cluster
from storage_workload import fold_into_bench_json, make_records

NUM_HOSTS = 8 if QUICK else 16
RECORDS_PER_HOST = 200 if QUICK else 400
#: Queries per timing sample (the built-ins are microsecond-scale; a
#: batch keeps the ratio out of timer noise).
BATCH = 30 if QUICK else 60
REPEATS = 7 if QUICK else 15
#: The acceptance bound: a built-in within 1.2x of its raw plan.
MAX_OVERHEAD = 1.2

#: Spanning-TIB leg: 15x the cap forces most records cold.
SPAN_RECORDS = 1_200 if QUICK else 4_800
SPAN_CAP = 80
SPAN_SEGMENT = 64


def median_wall_s(cluster, queries):
    """Median over REPEATS of the wall time for one pass over queries."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for query in queries:
            cluster.execute(query)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def paired_wall_s(cluster, builtin_queries, raw_queries):
    """Medians for the built-in/raw-plan batch pair, with the passes
    *interleaved* (and one warmup pass each) so machine drift during the
    run lands on both sides of the ratio equally."""
    for query in builtin_queries + raw_queries:
        cluster.execute(query)
    builtin_samples, raw_samples = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for query in builtin_queries:
            cluster.execute(query)
        builtin_samples.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for query in raw_queries:
            cluster.execute(query)
        raw_samples.append(time.perf_counter() - t0)
    return statistics.median(builtin_samples), statistics.median(raw_samples)


def builtin_pairs(cluster):
    """(label, built-in queries, the same questions as raw Q_PLAN queries
    of their compiled plans) per compiled built-in."""
    sample = cluster.agent(cluster.hosts[0]).tib.records()[0]
    count_params = [{"flow": sample.flow_id},
                    {"flow": sample.flow_id, "time_range": (0.0, 1e6)}]
    topk_params = [{"k": 100}, {"k": 20, "time_range": (0.0, 1e6)}]
    count_plans = [planlib.compile_get_count(p["flow"], p.get("time_range"))
                   for p in count_params]
    topk_plans = [planlib.compile_top_k_flows(p["k"], None,
                                              p.get("time_range"))
                  for p in topk_params]
    return [
        ("get_count",
         [Query(Q_GET_COUNT, dict(p)) for p in count_params] *
         (BATCH // 2),
         [Query(Q_PLAN, {"plan": plan}) for plan in count_plans] *
         (BATCH // 2)),
        ("top_k_flows",
         [Query(Q_TOP_K_FLOWS, dict(p)) for p in topk_params] *
         (BATCH // 2),
         [Query(Q_PLAN, {"plan": plan}) for plan in topk_plans] *
         (BATCH // 2)),
    ]


def spanning_pushdown():
    """Run a flow-keyed plan over a hot+cold TIB; return its scan stats
    and the fraction of cold segments the pushdown skipped."""
    tib = Tib("span", retention=RetentionPolicy(max_records=SPAN_CAP),
              archive=ColdArchive(segment_records=SPAN_SEGMENT))
    for record in make_records(SPAN_RECORDS, SPAN_RECORDS * 4 // 5):
        tib.add_record(record)
    tib.flush_archive()
    cold = tib.records()[0]
    plan = Plan(ops=(
        Filter(flow_keys=(flow_key(cold.flow_id),), start=0.0, end=1e6),
        Aggregate(func="sum", fields=("bytes",), by=("flow",)),
        TopK(k=10),
    ))
    execution = planlib.execute_plan(tib, plan)
    stats = execution.scan_stats
    segments = tib.tier_stats()["segments"]
    return stats, segments, execution.records_scanned


def test_plan_engine(benchmark, report_writer):
    cluster = QueryCluster(build_query_topology(NUM_HOSTS))
    populate_cluster(cluster, RECORDS_PER_HOST)

    def run():
        results = {}
        for label, builtin_queries, raw_queries in builtin_pairs(cluster):
            results[label] = paired_wall_s(cluster, builtin_queries,
                                           raw_queries)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    # ---- the overhead bound (the acceptance criterion) ------------------
    for label, (builtin_s, raw_s) in results.items():
        ratio = builtin_s / raw_s
        assert ratio <= MAX_OVERHEAD, \
            f"{label}: built-in {ratio:.2f}x its raw plan " \
            f"(bound {MAX_OVERHEAD}x)"

    # ---- raw Q_PLAN round trip of the unconstrained top-k ----------------
    raw_plan = Plan(ops=(Filter(),
                         Aggregate(func="sum", fields=("bytes",),
                                   by=("flow",)),
                         TopK(k=100)))
    raw_queries = [Query(Q_PLAN, {"plan": raw_plan})] * (BATCH // 2)
    raw_s = median_wall_s(cluster, raw_queries)

    # ---- provable pushdown on the spanning TIB --------------------------
    stats, segments, scanned = spanning_pushdown()
    assert stats["hot_flow_routed"] > 0, stats
    assert stats["cold_segments_skipped"] > 0, stats
    assert stats["cold_segments_skipped"] <= segments
    pruned_pct = 100.0 * stats["cold_segments_skipped"] / max(segments, 1)

    per_query_us = {
        label: (builtin_s / BATCH * 1e6, raw_s / BATCH * 1e6)
        for label, (builtin_s, raw_s) in results.items()}
    rows = [
        ["cluster", f"{NUM_HOSTS} hosts x {RECORDS_PER_HOST} records",
         "serial, direct"],
    ]
    for label, (builtin_us, raw_us) in per_query_us.items():
        rows.append([f"{label} (built-in)", f"{builtin_us:.0f} us/query",
                     f"{builtin_us / raw_us:.2f}x its raw plan"])
        rows.append([f"{label} (raw Q_PLAN)", f"{raw_us:.0f} us/query",
                     "the compiled plan, shipped as data"])
    rows += [
        ["raw Q_PLAN (filter+sum by flow+top-k)",
         f"{raw_s / (BATCH // 2) * 1e6:.0f} us/query",
         "generic IR, no built-in"],
        ["spanning pushdown: hot routing",
         f"{stats['hot_flow_routed']} flow-index scans",
         "0 full scans" if stats["hot_full_scans"] == 0 else
         f"{stats['hot_full_scans']} full scans"],
        ["spanning pushdown: cold pruning",
         f"{stats['cold_segments_skipped']}/{segments} segments skipped",
         f"{pruned_pct:.0f}% pruned, {scanned} records surfaced"],
    ]
    report_writer("plan_engine", format_table(
        ["quantity", "value", "note"], rows,
        title=f"Plan engine: built-ins vs their raw plans "
              f"(bound {MAX_OVERHEAD}x; quick={QUICK})"))

    fold_into_bench_json("plans", {
        "quick": QUICK,
        "hosts": NUM_HOSTS,
        "records_per_host": RECORDS_PER_HOST,
        "overhead_bound": MAX_OVERHEAD,
        "per_query_us": {
            label: {"builtin": round(builtin_us, 1),
                    "raw_plan": round(raw_us, 1),
                    "ratio": round(builtin_us / raw_us, 3)}
            for label, (builtin_us, raw_us) in per_query_us.items()},
        "raw_plan_us": round(raw_s / (BATCH // 2) * 1e6, 1),
        "spanning_pushdown": {
            "hot_flow_routed": stats["hot_flow_routed"],
            "hot_full_scans": stats["hot_full_scans"],
            "cold_segments_skipped": stats["cold_segments_skipped"],
            "cold_segments_total": segments,
            "cold_entries_skipped": stats["cold_entries_skipped"],
            "records_scanned": scanned,
        },
    })
