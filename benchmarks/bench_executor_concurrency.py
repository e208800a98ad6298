"""Scatter-gather executor: measured (not modelled) parallel speedup.

The figure benchmarks run the executor in its deterministic serial mode so
payloads reproduce byte for byte.  This benchmark demonstrates the other
half of the engine, in two regimes:

* **Wait-bound** scatters (the loopback transport really sleeps its
  injected per-message delay, releasing the GIL): thread-mode concurrency
  overlaps the round-trips and the measured wall clock drops nearly
  linearly with the worker count.  A multi-level scatter over the same
  hosts overlaps every request leg and each tree depth's response legs,
  so it costs about one leg per depth plus one.
* **CPU-bound** scatters (per-host work is a pure-Python scan over the
  host's TIB): threads are GIL-bound - the thread pool runs no faster
  than serial - while ``mode="process"`` ships each host's work to its
  agent-server worker process over the binary wire protocol and scales
  with the machine's cores.  The comparison is *measured* wall clock; on
  a single-core box (this container's CI fallback) process mode is bound
  by the hardware and the report says so - the multi-core speedup shows
  up on the CI runners, whose report is uploaded as a build artifact.

The payload produced by every configuration must be byte-identical to the
serial payload: every mode merges in one canonical order, which makes the
result independent of arrival order, and the wire codec round-trips
process-mode results losslessly.
"""

import os
import time

import pytest

from repro.analysis import format_table
from repro.core import (LoopbackTransport, MECHANISM_DIRECT,
                        MECHANISM_MULTILEVEL, MODE_CONCURRENT, MODE_PROCESS,
                        MODE_SERIAL, Query, wire)
from repro.core.query import Q_FLOW_SIZE_DISTRIBUTION, Q_TOP_K_FLOWS

from query_testbed import QUICK, build_query_cluster

#: Hosts in the scatter (the acceptance bar is >= 4; use 8).
NUM_HOSTS = 8
#: Records per host (small: the benchmark measures overlap, not TIB speed).
RECORDS_PER_HOST = 200
#: Injected one-way delivery delay per message (really slept).
DELAY_S = 0.02
#: Worker-pool sizes swept in concurrent mode.
WORKER_SWEEP = (1, 2, 4, 8)

#: Records per host for the CPU-bound process-vs-thread comparison (the
#: per-host work must dwarf the ~per-query IPC cost of process mode).
CPU_RECORDS_PER_HOST = 2_000 if QUICK else 24_000
#: Repetitions of the CPU-bound query per mode (best-of to damp scheduler
#: noise on loaded CI machines).
CPU_REPEATS = 2 if QUICK else 3


def _timed_execute(cluster, query, hosts, mechanism=MECHANISM_DIRECT):
    started = time.perf_counter()
    result = cluster.execute(query, hosts, mechanism)
    return result, time.perf_counter() - started


def test_executor_concurrency_speedup(benchmark, report_writer):
    cluster = build_query_cluster(
        NUM_HOSTS, records_per_host=RECORDS_PER_HOST,
        transport=LoopbackTransport(delay=DELAY_S, respond_delay=DELAY_S))
    query = Query(Q_TOP_K_FLOWS, params={"k": 100})
    hosts = cluster.hosts

    def run(mechanism, mode, workers):
        cluster.configure_executor(mode=mode, max_workers=workers)
        return (mechanism, mode, workers,
                *_timed_execute(cluster, query, hosts, mechanism))

    def sweep():
        rows = [run(MECHANISM_DIRECT, MODE_SERIAL, 1)]
        rows += [run(MECHANISM_DIRECT, MODE_CONCURRENT, workers)
                 for workers in WORKER_SWEEP]
        rows += [run(MECHANISM_MULTILEVEL, MODE_SERIAL, 1),
                 run(MECHANISM_MULTILEVEL, MODE_CONCURRENT, NUM_HOSTS)]
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    serial_s = {mechanism: elapsed
                for mechanism, mode, _, _, elapsed in rows
                if mode == MODE_SERIAL}
    table = [[mechanism, mode, workers, f"{elapsed * 1e3:.1f}",
              f"{serial_s[mechanism] / elapsed:.1f}x",
              f"{result.wall_clock_s * 1e3:.1f}"]
             for mechanism, mode, workers, result, elapsed in rows]
    report_writer("executor_concurrency", format_table(
        ["mechanism", "mode", "workers", "wall clock (ms)",
         "speedup vs serial", "executor wall (ms)"], table,
        title=f"Scatter-gather executor: {NUM_HOSTS}-host top-k scatter "
              f"over a loopback transport with {DELAY_S * 1e3:.0f} ms "
              "injected per-message delay (measured wall clock; payloads "
              "identical across all rows)"))

    # Identical payloads in every mechanism/mode/worker configuration.
    for _, _, _, result, _ in rows[1:]:
        assert result.payload == rows[0][3].payload
        assert not result.partial
    # A >= 4-host concurrent run shows real (measured) parallel speedup,
    # direct and multi-level.
    direct_pool, multilevel_pool = rows[len(WORKER_SWEEP)], rows[-1]
    assert direct_pool[2] >= 4
    assert serial_s[MECHANISM_DIRECT] / direct_pool[4] >= 2.0
    assert serial_s[MECHANISM_MULTILEVEL] / multilevel_pool[4] >= 2.0
    # More workers never slow the scatter down dramatically (monotone-ish).
    assert direct_pool[4] <= rows[1][4]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="asserts process < thread, which needs cores for the 8 worker "
           "processes to overlap on; below 4 cores they time-slice with the "
           "controller and the comparison measures the scheduler")
def test_process_vs_thread_cpu_bound(benchmark, report_writer):
    """CPU-bound 8-host scatter: agent-server processes vs GIL-bound threads.

    Per-host work is a flow-size-distribution scan over every TIB record -
    pure Python, no sleeps - so thread-mode fan-out cannot beat serial.
    Process mode runs the same scan inside the per-host worker processes;
    on a multi-core machine its measured wall clock beats the thread pool
    (asserted), on a single core it is hardware-bound (reported).
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    cluster = build_query_cluster(NUM_HOSTS,
                                  records_per_host=CPU_RECORDS_PER_HOST)
    query = Query(Q_FLOW_SIZE_DISTRIBUTION,
                  params={"links": [None], "binsize": 1_000})
    try:
        cluster.configure_executor(mode=MODE_PROCESS)  # spawn + sync once

        def run_mode(mode):
            cluster.configure_executor(mode=mode, max_workers=NUM_HOSTS)
            best = None
            for _ in range(CPU_REPEATS):
                result, elapsed = _timed_execute(cluster, query,
                                                 cluster.hosts)
                if best is None or elapsed < best[1]:
                    best = (result, elapsed)
            return best

        def sweep():
            return [(mode, *run_mode(mode))
                    for mode in (MODE_SERIAL, MODE_CONCURRENT, MODE_PROCESS)]

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    finally:
        cluster.close()

    timings = {mode: elapsed for mode, _, elapsed in rows}
    serial_s = timings[MODE_SERIAL]
    thread_s = timings[MODE_CONCURRENT]
    process_s = timings[MODE_PROCESS]
    table = [[mode, f"{elapsed * 1e3:.1f}", f"{serial_s / elapsed:.2f}x",
              f"{thread_s / elapsed:.2f}x", result.traffic_bytes]
             for mode, result, elapsed in rows]
    report_writer("executor_process_vs_thread", format_table(
        ["mode", "wall clock (ms)", "vs serial", "vs threads",
         "traffic (B, measured)"], table,
        title=f"CPU-bound {NUM_HOSTS}-host flow-size-distribution scatter, "
              f"{CPU_RECORDS_PER_HOST} records/host, best of {CPU_REPEATS} "
              f"(measured wall clock; {cores} core(s) available - process "
              "mode scales with cores, threads are GIL-bound; payloads "
              "byte-identical across all rows)"))

    # Byte-identical payloads in every mode.  Measured traffic is
    # identical across the in-process modes; process mode ships the same
    # frames inside one single-entry envelope per host each way, which
    # adds only the envelope framing.
    serial_payload = wire.encode_value(rows[0][1].payload)
    for _, result, _ in rows[1:]:
        assert wire.encode_value(result.payload) == serial_payload
        assert not result.partial
    serial_traffic = rows[0][1].traffic_bytes
    assert rows[1][1].traffic_bytes == serial_traffic
    assert 0 < rows[2][1].traffic_bytes - serial_traffic <= 64 * NUM_HOSTS
    if cores >= 2 and not QUICK:
        # The measured point of process mode: CPU-bound scatters escape the
        # GIL.  (At --quick scale the per-host work is too small to dwarf
        # the IPC cost, and on one core there is no parallelism to claim -
        # the report rows above carry the measured truth either way.)
        assert process_s < thread_s
    else:
        # No parallelism available (or toy scale): process mode must still
        # be within a constant factor (bounded IPC + codec overhead), not
        # an order of magnitude off.
        assert process_s < max(serial_s, thread_s) * 8.0
