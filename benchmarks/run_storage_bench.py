#!/usr/bin/env python
"""Standalone storage-engine benchmark; writes ``BENCH_storage.json``.

Runs the same workloads as ``bench_regress_storage.py`` across several
record counts and records insert/merge throughput plus time-range, link and
flow query latencies in a machine-readable file at the repository root, so
successive PRs accumulate a perf trajectory::

    PYTHONPATH=src python benchmarks/run_storage_bench.py [--quick]

``--quick`` drops the largest record count and most query repetitions - the
tier CI runs (and uploads as a build artifact) on every push.  Keep the
workload deterministic (fixed seeds) so numbers are comparable across runs
on the same machine.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from storage_workload import (make_records, measured_on,  # noqa: E402
                              populate_tib)

from repro.core.tib import Tib  # noqa: E402

#: Record counts swept (the largest dominates the runtime).
SIZES = (2_000, 10_000, 50_000)
QUICK_SIZES = (2_000, 10_000)
#: Merge-heavy workloads reuse this fraction of distinct pairs.
MERGE_PAIR_FRACTION = 0.1
#: Query repetitions per measurement.
QUERY_ROUNDS = 50
QUICK_QUERY_ROUNDS = 10

OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_storage.json"


def _timeit(func, rounds: int, setup=None) -> float:
    """Median seconds per call over ``rounds`` calls.

    ``setup`` (untimed) builds each round's argument: the TIB retains and,
    on merge, mutates the records it is given, so workloads must be rebuilt
    per round to stay identical.
    """
    samples = []
    for _ in range(rounds):
        arg = setup() if setup is not None else None
        start = time.perf_counter()
        func(arg) if setup is not None else func()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def bench_size(count: int, query_rounds: int = QUERY_ROUNDS) -> dict:
    merge_pairs = max(1, int(count * MERGE_PAIR_FRACTION))

    def add_all(records):
        # adopt=True: the records are freshly built and never touched
        # again, which is the trajectory-eviction fast path the engine
        # numbers have always tracked (the default copies on insert to
        # protect caller-owned records).
        Tib("bench-host").add_records(records, adopt=True)

    insert_s = _timeit(add_all, rounds=3,
                       setup=lambda: make_records(count, count))
    merge_s = _timeit(add_all, rounds=3,
                      setup=lambda: make_records(count, merge_pairs))

    tib = populate_tib(count)
    windows = [(100.0 * i, 100.0 * i + 50.0) for i in range(10)]
    state = {"i": 0}

    def time_query():
        start, end = windows[state["i"] % len(windows)]
        state["i"] += 1
        tib.records(time_range=(start, end))

    links = [(f"spine-{i % 2}", f"leaf-{i % 8}") for i in range(16)]

    def link_query():
        link = links[state["i"] % len(links)]
        state["i"] += 1
        tib.records(link=link)

    sample_flows = [record.flow_id for record in tib.records()[:64]]

    def flow_query():
        flow = sample_flows[state["i"] % len(sample_flows)]
        state["i"] += 1
        tib.records(flow_id=flow)

    time_query()  # warm-up read, not timed
    return {
        "records": count,
        "insert_ops_per_s": round(count / insert_s, 1),
        "merge_ops_per_s": round(count / merge_s, 1),
        "time_range_query_ms": round(_timeit(time_query,
                                             query_rounds) * 1e3, 4),
        "link_query_ms": round(_timeit(link_query, query_rounds) * 1e3, 4),
        "flow_query_ms": round(_timeit(flow_query, query_rounds) * 1e3, 4),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweep for CI (fewer sizes and "
                             "query repetitions)")
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else SIZES
    query_rounds = QUICK_QUERY_ROUNDS if args.quick else QUERY_ROUNDS
    measured = measured_on()
    report = {
        "benchmark": "storage-engine",
        "generated_unix_time": int(time.time()),
        "quick": args.quick,
        "workload": {
            "merge_pair_fraction": MERGE_PAIR_FRACTION,
            "query_rounds": query_rounds,
        },
        "results": [{**measured, **bench_size(size, query_rounds)}
                    for size in sizes],
    }
    if OUTPUT.exists():
        # Keep sections other benchmarks fold in (e.g. bench_event_plane's
        # "event_plane" summary) instead of clobbering them.
        previous = json.loads(OUTPUT.read_text())
        for key, value in previous.items():
            report.setdefault(key, value)
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {OUTPUT}")


if __name__ == "__main__":
    main()
