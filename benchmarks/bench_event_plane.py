"""Event plane: measured alarm-delivery latency and per-tick overhead.

The paper's end hosts run a continuous TCP-performance monitor and push
``Alarm(flowID, Reason, Paths)`` events to the controller (Sections 3.2 and
4).  This benchmark measures the reproduction's event plane across all
three cluster modes:

* **Alarm-delivery latency**: wall-clock time from the start of one
  cluster-wide monitor sweep (``run_monitors``) until each POOR_PERF alarm
  lands in a bus subscriber.  In serial mode delivery is an in-process
  call; in the worker modes every alarm crosses the wire
  protocol (a monitor-tick envelope out, an encoded alarm batch back) -
  the measured difference is the real cost of moving the monitors
  host-side.
* **Sweep right after a reset**: the wall time of that sweep issued
  *immediately* after ``reset_stats()`` beside the same sweep issued after
  a drain barrier (a ping round-trip per worker group).  ``reset_stats()``
  returns once its frames are written, so whatever the workers still have
  to do for it is paid by the next tick; asserted per worker mode:
  immediate <= 1.5x drained, medians of ``RESET_SWEEPS`` sweeps a side,
  the modes and the two sides taking turns.  (While the reset re-shipped
  every monitor ledger the ratio read 2.0-2.8x: the "alarm delivery" of
  every row was then mostly the previous reset's re-seed.)
* **Idle tick overhead**: the cost of one sweep when every poor flow is
  already latched (the steady-state periodic check the paper runs every
  200 ms).
* **Tick traffic**: measured ``len(encoded)`` of the tick/alarm frames in
  the worker modes (zero in serial mode, which needs no wire).
* **Frame coalescing** (socket mode): one ``MSG_GROUP_BATCH`` envelope
  per worker group, holding one tick entry for every host of the group
  and answered by one alarm batch, where process mode (the same pool and
  connection, one host per group) ships one envelope per host.  Asserted:
  ``frames_sent`` (hosts addressed) is the group size times
  ``envelopes_sent``, and the amortized per-host
  idle-tick cost is below the process row's of the same run (the same
  pool code in two shapes, measured on the same box at the same time).
* **Mirrored ingest**: records/s of one-record ``ingest_path_record``
  calls, as the caller sees them and with the workers drained.  In the
  worker modes every call also feeds the worker mirror - queued on the
  connection's outbox and shipped as a few coalesced envelopes - so the
  gap to the serial row is the mirror's whole cost.

Alarm streams must be byte-identical across all three modes (asserted),
so the latency/overhead columns compare like with like.  The summary of
a run that passed is folded into ``BENCH_storage.json`` under
``"event_plane"`` so the cross-PR perf trajectory captures it.
"""

import statistics
import time

from repro.analysis import format_table
from repro.core import (MODE_PROCESS, MODE_SERIAL, MODE_SOCKET,
                        QueryCluster, wire)
from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import PathFlowRecord

from query_testbed import QUICK, build_query_topology
from storage_workload import fold_into_bench_json

#: Smoke tier (CI) keeps the shape, cuts the scale.
NUM_HOSTS = 4 if QUICK else 8
#: Monitored flows per host (a fraction of them persistently poor).
FLOWS_PER_HOST = 50 if QUICK else 400
#: Fraction of monitored flows that trip the poor-flow check.
POOR_FRACTION = 0.25
#: Measurement rounds per mode (each round re-opens alerting).
ROUNDS = 2 if QUICK else 5
#: Idle ticks timed per mode.  One costs a few ms, so a median over many
#: stays cheap, and it holds steady when the box's load shifts mid-run.
IDLE_TICKS = 5 * ROUNDS
#: Sweeps timed per mode and side (right after a reset, after a drain) for
#: the reset-queueing check; cheap for the same reason.
RESET_SWEEPS = 5 * ROUNDS

#: One-record merge-upserts per host for the mirrored-ingest figure.
INGEST_PER_HOST = 50 if QUICK else 500

#: Worker groups for the coalesced (socket-mode) measurement: the same
#: worker plane, NUM_HOSTS/GROUP_COUNT tick frames per envelope.
GROUP_COUNT = 2

ALL_MODES = (MODE_SERIAL, MODE_PROCESS, MODE_SOCKET)

#: A sweep issued right after ``reset_stats()`` may cost this much of one
#: issued after the workers drained (same run, so the box's speed cancels).
RESET_QUEUEING_BOUND = 1.5


def build_event_cluster(mode):
    """A cluster whose monitors hold FLOWS_PER_HOST observed flows each."""
    # Process and socket mode share the pool and its connection, so the
    # socket row isolates coalescing: grouped workers, batched envelopes.
    cluster = QueryCluster(build_query_topology(NUM_HOSTS), mode=mode,
                           group_count=GROUP_COUNT)
    poor_every = max(1, int(1 / POOR_FRACTION))
    for index, host in enumerate(cluster.hosts):
        agent = cluster.agent(host)
        dst = cluster.hosts[(index + 1) % len(cluster.hosts)]
        for n in range(FLOWS_PER_HOST):
            flow = FlowId(host, dst, 20_000 + n, 80, PROTO_TCP)
            poor = n % poor_every == 0
            agent.monitor.observe_flow(
                flow, retransmissions=6 if poor else 1,
                consecutive=5 if poor else 1, when=float(n))
            agent.ingest_path_record(PathFlowRecord(
                flow, (host, "leaf-0", dst), float(n), n + 0.2,
                1000 * (n + 1), n + 1))
    return cluster


def drain(cluster):
    """Barrier: every worker has served everything written to it so far
    (one ping round-trip per group; nothing to wait for in-process)."""
    pool = cluster.agent_servers
    if pool is not None:
        for key in pool.group_keys():
            pool.group_ping_state(key)


def warm_up(cluster):
    """One unmeasured sweep: the first of a cluster's life pays every
    lazy set-up on both sides of the wire."""
    cluster.reset_stats()
    cluster.run_monitors(1.0)


def measure_mode(cluster, rounds=ROUNDS):
    """Per-alarm delivery latencies of sweeps issued right after a reset,
    and tick traffic."""
    delivery_ms = []
    sweep_start = 0.0

    def on_alarm(alarm):
        delivery_ms.append((time.perf_counter() - sweep_start) * 1e3)

    cluster.alarm_bus.subscribe(on_alarm)
    streams = []
    traffic = 0
    for _round in range(rounds):
        cluster.reset_stats()  # re-opens alerting (new measurement interval)
        sweep_start = time.perf_counter()
        # Constant simulated tick time: alarm payloads (time included) must
        # be identical round to round so the streams can be byte-compared.
        sweep = cluster.run_monitors(1.0)
        assert sweep and not sweep.partial
        streams.append(wire.encode_alarm_batch(list(sweep)))
        traffic = sweep.traffic_bytes
    assert all(stream == streams[0] for stream in streams)
    return {
        "alarms_per_sweep": len(delivery_ms) // rounds,
        "alarm_delivery_ms": round(statistics.median(delivery_ms), 4),
        "tick_traffic_bytes": traffic,
        "stream": streams[0],
    }


def measure_reset_queueing(clusters, sweeps=RESET_SWEEPS):
    """Median wall per mode of a sweep issued right after
    ``reset_stats()`` and of one issued after a drain barrier.  The modes
    take turns sweep by sweep, the first of each round rotating, and each
    mode's two sides alternate which goes first, so a change in the box's
    load lands on every cell alike and the sides compare within one run."""
    modes = list(clusters)
    sweep_ms = {(mode, drained): [] for mode in modes
                for drained in (False, True)}
    for index in range(sweeps):
        shift = index % len(modes)
        sides = (False, True) if index % 2 == 0 else (True, False)
        for mode in modes[shift:] + modes[:shift]:
            cluster = clusters[mode]
            for drained in sides:
                cluster.reset_stats()
                if drained:
                    drain(cluster)
                started = time.perf_counter()
                sweep = cluster.run_monitors(1.0)
                sweep_ms[mode, drained].append(
                    (time.perf_counter() - started) * 1e3)
                assert sweep and not sweep.partial
    return {mode: {
        "sweep_after_reset_ms": round(
            statistics.median(sweep_ms[mode, False]), 4),
        "sweep_after_drain_ms": round(
            statistics.median(sweep_ms[mode, True]), 4)} for mode in modes}


def measure_idle_ticks(clusters, ticks=IDLE_TICKS):
    """Median idle-tick wall per mode, once every poor flow is latched (a
    sweep that delivers nothing).  The modes take turns tick by tick, the
    first of each round rotating, so a change in the box's load lands on
    every row alike and the rows compare within one run."""
    modes = list(clusters)
    idle_ms = {mode: [] for mode in modes}
    for tick in range(ticks):
        shift = tick % len(modes)
        for mode in modes[shift:] + modes[:shift]:
            started = time.perf_counter()
            sweep = clusters[mode].run_monitors(100.0 + tick)
            idle_ms[mode].append((time.perf_counter() - started) * 1e3)
            assert sweep == []
    return {mode: round(statistics.median(samples), 4)
            for mode, samples in idle_ms.items()}


def measure_ingest(cluster):
    """Mirrored-ingest rate: INGEST_PER_HOST one-record merge-upserts per
    host onto populated keys, hosts interleaved.  ``ingest_records_per_s``
    stops the clock when the last call returns (the worker copy may still
    be in an outbox); ``ingest_drained_records_per_s`` adds a ping barrier
    per worker group, so both copies hold every write (the same number
    in-process, where there is nothing to drain)."""
    work = []
    for n in range(INGEST_PER_HOST):
        for index, host in enumerate(cluster.hosts):
            dst = cluster.hosts[(index + 1) % len(cluster.hosts)]
            flow = FlowId(host, dst, 20_000 + n % FLOWS_PER_HOST, 80,
                          PROTO_TCP)
            work.append((cluster.agent(host).ingest_path_record,
                         PathFlowRecord(flow, (host, "leaf-0", dst),
                                        float(n), n + 0.1, 1460, 1)))
    started = time.perf_counter()
    for ingest, record in work:
        ingest(record)
    called = time.perf_counter() - started
    drain(cluster)
    drained = time.perf_counter() - started
    return {"ingest_records_per_s": round(len(work) / called),
            "ingest_drained_records_per_s": round(len(work) / drained)}


def test_event_plane_latency(benchmark, report_writer):
    clusters = {mode: build_event_cluster(mode) for mode in ALL_MODES}
    try:
        def sweep():
            for cluster in clusters.values():
                warm_up(cluster)
            queueing = measure_reset_queueing(clusters)
            results = {mode: measure_mode(clusters[mode])
                       for mode in ALL_MODES}
            for mode in ALL_MODES:
                results[mode].update(queueing[mode])
            for mode, idle_ms in measure_idle_ticks(clusters).items():
                results[mode]["idle_tick_ms"] = idle_ms
            return results

        results = benchmark.pedantic(sweep, rounds=1, iterations=1)
        # Coalescing, counted: the grouped sweep moved one envelope per
        # group where process mode moved one envelope per host.
        group_stats = clusters[MODE_SOCKET].agent_servers.stats
        assert group_stats.envelopes_sent > 0
        assert group_stats.frames_sent == \
            group_stats.envelopes_sent * (NUM_HOSTS // GROUP_COUNT)
        per_host_stats = clusters[MODE_PROCESS].agent_servers.stats
        assert per_host_stats.frames_sent == per_host_stats.envelopes_sent
        for mode in ALL_MODES:  # after the counters above were read
            results[mode].update(measure_ingest(clusters[mode]))
    finally:
        for cluster in clusters.values():
            cluster.close()

    # The alarm stream (order included) is byte-identical in every mode.
    serial_stream = results[MODE_SERIAL].pop("stream")
    for mode in (MODE_PROCESS, MODE_SOCKET):
        assert results[mode].pop("stream") == serial_stream
    results[MODE_SOCKET]["group_count"] = GROUP_COUNT

    table = [[mode, row["alarms_per_sweep"],
              f"{row['alarm_delivery_ms']:.3f}",
              f"{row['sweep_after_reset_ms']:.3f}",
              f"{row['sweep_after_drain_ms']:.3f}",
              f"{row['idle_tick_ms']:.3f}", row["tick_traffic_bytes"],
              row["ingest_records_per_s"],
              row["ingest_drained_records_per_s"]]
             for mode, row in results.items()]
    report_writer("event_plane", format_table(
        ["mode", "alarms/sweep", "delivery latency (ms, median)",
         "sweep right after reset (ms)", "... after a drain (ms)",
         "idle tick (ms, median)", "tick traffic (B, measured)",
         "mirrored ingest (records/s)", "... workers drained"], table,
        title=f"Event plane: {NUM_HOSTS}-host monitor sweep, "
              f"{FLOWS_PER_HOST} monitored flows/host "
              f"({POOR_FRACTION:.0%} poor), median over {ROUNDS} rounds "
              f"({RESET_SWEEPS} sweeps a side after a reset / a drain and "
              f"{IDLE_TICKS} idle ticks per mode, modes taking turns) "
              "(measured wall clock; alarm streams byte-identical across "
              "modes; worker-mode traffic is len(encoded) of the "
              "tick/alarm frames; socket = grouped workers, "
              f"{GROUP_COUNT} coalesced envelopes per sweep; ingest = "
              f"{INGEST_PER_HOST} one-record upserts/host, hosts "
              "interleaved, mirrored through the connection outbox)"))

    # Sanity bounds, not a speed race: every mode delivers every alarm,
    # and the in-process sweep needs no wire.
    poor_every = max(1, int(1 / POOR_FRACTION))
    expected = NUM_HOSTS * len(range(0, FLOWS_PER_HOST, poor_every))
    for mode, row in results.items():
        assert row["alarms_per_sweep"] == expected
    assert results[MODE_SERIAL]["tick_traffic_bytes"] == 0
    assert results[MODE_PROCESS]["tick_traffic_bytes"] > 0
    assert results[MODE_SOCKET]["tick_traffic_bytes"] > 0

    # reset_stats() ships the operation, so the tick behind it does not
    # queue behind workers restoring their ledgers.
    for mode in (MODE_PROCESS, MODE_SOCKET):
        row = results[mode]
        assert row["sweep_after_reset_ms"] <= \
            RESET_QUEUEING_BOUND * row["sweep_after_drain_ms"], (mode, row)

    # The coalescing claim, measured: batching the group's ticks into one
    # envelope amortizes the per-frame transport cost, so the socket row's
    # idle tick (NUM_HOSTS/GROUP_COUNT frames per envelope) stays below the
    # process row's (one frame per envelope) in the same run.  Both rows
    # tick the same NUM_HOSTS hosts, so per-host costs compare as totals.
    assert results[MODE_SOCKET]["idle_tick_ms"] < \
        results[MODE_PROCESS]["idle_tick_ms"], results

    # Fold only a run that passed, so a failed run never becomes the
    # baseline the next run is checked against.
    fold_into_bench_json("event_plane", {
        "hosts": NUM_HOSTS,
        "flows_per_host": FLOWS_PER_HOST,
        "poor_fraction": POOR_FRACTION,
        "rounds": ROUNDS,
        "quick": QUICK,
        "per_mode": results,
    })
