"""Scale-out: the paper's deployment scale over the socket transport.

PathDump's evaluation argues the controller comfortably drives on the
order of a thousand servers (Section 5: >10K servers projected from the
112-host testbed).  This benchmark runs that scale for real: a k=16
fat-tree (1,024 end hosts, the paper's "1000-host" regime) whose agents
live in GROUP_COUNT worker processes behind multiplexed socket
connections, driven end-to-end by one controller process.

Measured and asserted:

* **Byte-identity at scale**: every query of the sweep (direct and
  multilevel) and the monitor-sweep alarm stream are byte-identical to
  the serial in-process run over the same TIBs - the scale-out plane
  changes the cost, never the answer.
* **Frame coalescing beats naive per-frame send**: one coalesced
  ``MSG_GROUP_BATCH`` envelope per group versus one frame per host over
  the same multiplexed connections, compared on *amortized per-host
  tick cost* (the steady-state number a 200 ms monitoring loop pays).
* **Multilevel is coalesced too**: a multi-level query ships exactly one
  request envelope per worker group (each group folds the whole
  subtrees in its shard), and its socket wall stays within 2x of the
  same query asked directly (best of ``RATIO_ROUNDS``, so one noisy run
  cannot decide it).
* **Deployment numbers** for the report: worker start-up + sync time,
  per-query wall clock and measured traffic at 1,024 hosts.

The summary is folded into ``BENCH_storage.json`` under ``"scaleout"``.
The ``--quick`` tier (CI) runs the same sweep on a k=8 fat-tree
(128 hosts, 4 groups) so the assertions hold on every push at smoke
scale.
"""

import statistics
import time

from repro.analysis import format_table
from repro.core import (MECHANISM_DIRECT, MECHANISM_MULTILEVEL, MODE_SOCKET,
                        Q_FLOW_SIZE_DISTRIBUTION, Q_TOP_K_FLOWS,
                        Q_TRAFFIC_MATRIX, Query, QueryCluster, wire)
from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import PathFlowRecord
from repro.topology.fattree import FatTreeTopology

from query_testbed import QUICK
from storage_workload import fold_into_bench_json

#: Fat-tree arity: k=16 -> 1,024 hosts (the paper-scale sweep);
#: the CI smoke tier runs k=8 -> 128 hosts.
K = 8 if QUICK else 16
#: Worker groups (= agent-server processes) sharding the hosts.
GROUP_COUNT = 4 if QUICK else 8
#: TIB records per host (kept modest: the sweep exercises the transport
#: and the fan-out, not per-host scan throughput - bench_two_tier covers
#: that).
RECORDS_PER_HOST = 10 if QUICK else 20
#: Monitored flows per host; one of them persistently poor.
FLOWS_PER_HOST = 4
#: Idle-tick measurement rounds for the coalesced-vs-naive comparison.
TICK_ROUNDS = 3
#: Rounds of the multilevel-vs-direct wall comparison (best of).
RATIO_ROUNDS = 5

SWEEP = (
    (Query(Q_TOP_K_FLOWS, {"k": 100}), MECHANISM_DIRECT),
    (Query(Q_TOP_K_FLOWS, {"k": 100}), MECHANISM_MULTILEVEL),
    (Query(Q_FLOW_SIZE_DISTRIBUTION, {"links": [None], "binsize": 4000}),
     MECHANISM_DIRECT),
    (Query(Q_TRAFFIC_MATRIX, {}), MECHANISM_DIRECT),
)


def populate(cluster):
    """Deterministic synthetic flows: records into the TIBs, TCP symptoms
    into the monitors (one poor flow per host), all through the agent
    APIs so a later mode flip ships identical state to the workers."""
    hosts = cluster.hosts
    for index, host in enumerate(hosts):
        agent = cluster.agent(host)
        dst = hosts[(index + 7) % len(hosts)]
        for n in range(RECORDS_PER_HOST):
            flow = FlowId(host, dst, 20_000 + n, 80, PROTO_TCP)
            agent.ingest_path_record(PathFlowRecord(
                flow, (host, f"edge-{index % 8}", dst), float(n), n + 0.5,
                1000 * ((index + n) % 13 + 1), n + 1))
        for n in range(FLOWS_PER_HOST):
            flow = FlowId(host, dst, 40_000 + n, 80, PROTO_TCP)
            poor = n == 0
            agent.monitor.observe_flow(
                flow, retransmissions=6 if poor else 1,
                consecutive=5 if poor else 1, when=float(n))


def test_thousand_host_fat_tree_sweep(benchmark, report_writer):
    topo = FatTreeTopology(K)
    cluster = QueryCluster(topo, shared_cache=True, group_count=GROUP_COUNT,
                           socket_transport="unix")
    num_hosts = len(cluster.hosts)
    assert num_hosts == K ** 3 // 4
    populate(cluster)

    # Serial ground truth over the same TIBs: payloads and alarm stream.
    reference = {}
    serial_wall = {}
    for query, mechanism in SWEEP:
        started = time.perf_counter()
        result = cluster.execute(query, mechanism=mechanism)
        serial_wall[(query.name, mechanism)] = time.perf_counter() - started
        reference[(query.name, mechanism)] = wire.encode_value(result.payload)
    serial_stream = wire.encode_alarm_batch(list(cluster.run_monitors(1.0)))
    assert serial_stream != wire.encode_alarm_batch([])

    rows = []
    try:
        # Flip the populated cluster to socket mode: the start-up sync
        # ships every TIB + monitor to its group worker and barriers on
        # one coalesced ping per group.
        started = time.perf_counter()
        cluster.configure_executor(mode=MODE_SOCKET)
        startup_s = time.perf_counter() - started
        pool = cluster.agent_servers
        assert len(pool.group_keys()) == GROUP_COUNT

        # The alarm stream at scale: re-open alerting (the serial sweep
        # latched both sides of the mirror), then one coalesced sweep.
        cluster.reset_stats()
        socket_stream = wire.encode_alarm_batch(
            list(cluster.run_monitors(1.0)))
        assert socket_stream == serial_stream

        def full_sweep():
            measured = []
            for query, mechanism in SWEEP:
                envelopes = pool.stats.envelopes_sent
                started = time.perf_counter()
                result = cluster.execute(query, mechanism=mechanism)
                wall_s = time.perf_counter() - started
                assert not result.partial
                # One envelope per group whichever the mechanism: no
                # per-host round trips.
                assert pool.stats.envelopes_sent - envelopes == GROUP_COUNT
                payload = wire.encode_value(result.payload)
                assert payload == reference[(query.name, mechanism)]
                measured.append((query.name, mechanism, wall_s,
                                 result.traffic_bytes, len(payload)))
            return measured

        sweep_rows = benchmark.pedantic(full_sweep, rounds=1, iterations=1)

        def best_wall(mechanism):
            walls = []
            for _ in range(RATIO_ROUNDS):
                started = time.perf_counter()
                cluster.execute(SWEEP[0][0], mechanism=mechanism)
                walls.append(time.perf_counter() - started)
            return min(walls)

        multilevel_vs_direct = \
            best_wall(MECHANISM_MULTILEVEL) / best_wall(MECHANISM_DIRECT)
        assert multilevel_vs_direct <= 2.0

        # Coalesced versus naive per-frame ticks over the *same* socket
        # connections: the coalesced sweep ships one envelope per group,
        # the naive loop one frame per host.
        coalesced_ms, naive_ms = [], []
        for round_index in range(TICK_ROUNDS):
            started = time.perf_counter()
            sweep = cluster.run_monitors(100.0 + round_index)
            coalesced_ms.append((time.perf_counter() - started) * 1e3)
            assert sweep == [] and not sweep.partial
        for round_index in range(TICK_ROUNDS):
            started = time.perf_counter()
            for host in cluster.hosts:
                alarms, _nbytes = pool.monitor_tick(
                    host, 200.0 + round_index)
                assert alarms == []
            naive_ms.append((time.perf_counter() - started) * 1e3)
        coalesced_per_host_us = \
            statistics.median(coalesced_ms) / num_hosts * 1e3
        naive_per_host_us = statistics.median(naive_ms) / num_hosts * 1e3
        # The transport claim, measured at deployment scale.
        assert coalesced_per_host_us < naive_per_host_us

        stats = pool.stats
        assert stats.frames_sent > stats.envelopes_sent > 0
        coalescing_factor = stats.frames_sent / stats.envelopes_sent

        for (name, mechanism, wall_s, traffic, payload_bytes) in sweep_rows:
            rows.append({
                "query": name, "mechanism": mechanism,
                "serial_wall_s": round(serial_wall[(name, mechanism)], 4),
                "socket_wall_s": round(wall_s, 4),
                "traffic_bytes": traffic,
                "payload_bytes": payload_bytes,
            })
    finally:
        cluster.close()

    table = [[row["query"], row["mechanism"],
              f"{row['serial_wall_s']:.3f}", f"{row['socket_wall_s']:.3f}",
              row["traffic_bytes"], row["payload_bytes"]]
             for row in rows]
    table.append(["monitor tick (per host)", "coalesced vs naive",
                  f"{coalesced_per_host_us:.1f}us",
                  f"{naive_per_host_us:.1f}us", "-", "-"])
    report_writer("scaleout", format_table(
        ["query", "mechanism", "serial wall (s)", "socket wall (s)",
         "traffic (B, measured)", "payload (B)"], table,
        title=f"Scale-out sweep: k={K} fat-tree, {num_hosts} hosts in "
              f"{GROUP_COUNT} worker groups over unix-socket transport "
              f"(start-up+sync {startup_s:.2f}s; every payload and the "
              "alarm stream byte-identical to serial; coalescing factor "
              f"{coalescing_factor:.1f} frames/envelope)"))

    fold_into_bench_json("scaleout", {
        "k": K,
        "hosts": num_hosts,
        "group_count": GROUP_COUNT,
        "transport": "unix",
        "records_per_host": RECORDS_PER_HOST,
        "quick": QUICK,
        "startup_s": round(startup_s, 3),
        "queries": rows,
        "tick_coalesced_per_host_us": round(coalesced_per_host_us, 2),
        "tick_naive_per_host_us": round(naive_per_host_us, 2),
        "tick_speedup": round(naive_per_host_us / coalesced_per_host_us, 2),
        "coalescing_factor": round(coalescing_factor, 2),
        "multilevel_vs_direct_wall": round(multilevel_vs_direct, 2),
    })
