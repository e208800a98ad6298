"""Scatter-gather executor: measured (not modelled) process-mode speedup.

The figure benchmarks run the deterministic serial fold so payloads
reproduce byte for byte.  This benchmark measures what the worker plane
buys on a **CPU-bound** scatter (per-host work is a pure-Python scan over
the host's TIB): ``mode="process"`` ships each host's work to its
agent-server worker process over the binary wire protocol and scales with
the machine's cores, where any in-process fan-out is GIL-bound and runs
at serial speed.  The comparison is *measured* wall clock; on a box with
fewer than four cores the worker processes time-slice with the controller,
so the test is skipped there - the multi-core speedup shows up on the CI
runners, whose report is uploaded as a build artifact.

The process-mode payload must be byte-identical to the serial payload:
both merge in one canonical order, and the wire codec round-trips
process-mode results losslessly.
"""

import os
import time

import pytest

from repro.analysis import format_table
from repro.core import MODE_PROCESS, MODE_SERIAL, Query, wire
from repro.core.query import Q_FLOW_SIZE_DISTRIBUTION

from query_testbed import QUICK, build_query_cluster

#: Hosts in the scatter (the acceptance bar is >= 4; use 8).
NUM_HOSTS = 8

#: Records per host for the CPU-bound process-vs-serial comparison (the
#: per-host work must dwarf the ~per-query IPC cost of process mode).
CPU_RECORDS_PER_HOST = 2_000 if QUICK else 24_000
#: Repetitions of the CPU-bound query per mode (best-of to damp scheduler
#: noise on loaded CI machines).
CPU_REPEATS = 2 if QUICK else 3


def _timed_execute(cluster, query, hosts):
    started = time.perf_counter()
    result = cluster.execute(query, hosts)
    return result, time.perf_counter() - started


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="asserts process < serial, which needs cores for the 8 worker "
           "processes to overlap on; below 4 cores they time-slice with the "
           "controller and the comparison measures the scheduler")
def test_process_vs_serial_cpu_bound(benchmark, report_writer):
    """CPU-bound 8-host scatter: agent-server processes vs the serial fold.

    Per-host work is a flow-size-distribution scan over every TIB record -
    pure Python, no sleeps.  Process mode runs the same scan inside the
    per-host worker processes; on a multi-core machine its measured wall
    clock beats the serial fold (asserted).
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    cluster = build_query_cluster(NUM_HOSTS,
                                  records_per_host=CPU_RECORDS_PER_HOST)
    query = Query(Q_FLOW_SIZE_DISTRIBUTION,
                  params={"links": [None], "binsize": 1_000})
    try:
        cluster.configure_executor(mode=MODE_PROCESS)  # spawn + sync once
        # One discarded serial query: the first query after the spawn reads
        # slower whichever mode runs it, so it must not land on a timed row.
        cluster.configure_executor(mode=MODE_SERIAL)
        cluster.execute(query, cluster.hosts)

        def run_mode(mode):
            cluster.configure_executor(mode=mode)
            best = None
            for _ in range(CPU_REPEATS):
                result, elapsed = _timed_execute(cluster, query,
                                                 cluster.hosts)
                if best is None or elapsed < best[1]:
                    best = (result, elapsed)
            return best

        def sweep():
            return [(mode, *run_mode(mode))
                    for mode in (MODE_SERIAL, MODE_PROCESS)]

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    finally:
        cluster.close()

    timings = {mode: elapsed for mode, _, elapsed in rows}
    serial_s = timings[MODE_SERIAL]
    process_s = timings[MODE_PROCESS]
    table = [[mode, f"{elapsed * 1e3:.1f}", f"{serial_s / elapsed:.2f}x",
              result.traffic_bytes]
             for mode, result, elapsed in rows]
    report_writer("executor_process_vs_serial", format_table(
        ["mode", "wall clock (ms)", "vs serial", "traffic (B, measured)"],
        table,
        title=f"CPU-bound {NUM_HOSTS}-host flow-size-distribution scatter, "
              f"{CPU_RECORDS_PER_HOST} records/host, best of {CPU_REPEATS} "
              f"(measured wall clock; {cores} core(s) available - process "
              "mode scales with cores, in-process work is GIL-bound; "
              "payloads byte-identical across all rows)"))

    # Byte-identical payloads and traffic.  Process mode ships the same
    # frames inside one single-entry envelope per host each way, but
    # traffic counts the per-host legs in every mode: the envelope framing
    # shows only in the pool's counters.
    serial, process = rows[0][1], rows[1][1]
    assert wire.encode_value(process.payload) == \
        wire.encode_value(serial.payload)
    assert not serial.partial and not process.partial
    assert process.traffic_bytes == serial.traffic_bytes
    if cores >= 2 and not QUICK:
        # The measured point of process mode: CPU-bound scatters escape the
        # GIL.  (At --quick scale the per-host work is too small to dwarf
        # the IPC cost, and on one core there is no parallelism to claim -
        # the report rows above carry the measured truth either way.)
        assert process_s < serial_s
    else:
        # No parallelism available (or toy scale): process mode must still
        # be within a constant factor (bounded IPC + codec overhead), not
        # an order of magnitude off.
        assert process_s < serial_s * 8.0
