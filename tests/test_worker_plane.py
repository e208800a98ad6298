"""Tests for the worker plane: agent-server worker groups behind one pool.

Every worker mode runs on :class:`GroupAgentPool`; ``mode="process"`` is the
shape "one host per group", ``mode="socket"`` whatever ``group_count``
says, and every group worker is reached over one connected stream pair.
The identity, traffic and alarm-stream checks run over every pool shape in
:data:`SHAPES`; the failure, recovery and chaos checks on the shapes that
exercise them.

Covers: host sharding, byte-identical payloads and alarm streams across
serial and worker execution, measured traffic reconciled against
envelope lengths, frame coalescing, the ingest mirror (also across mode
flips), a dead worker surfacing like a dead agent for its whole shard,
the local fallback for queries the workers cannot serve, supervised
restart over a fresh connection, connection-level chaos (torn close,
stalled socket), a worker killed before each envelope of a fixed
schedule, the spawn lock that keeps one worker's connection out of
another, and the standalone pool lifecycle.
"""

import dataclasses
import functools
import multiprocessing
import os
import pathlib
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.core import (AgentServerError, GroupAgentPool, MECHANISM_DIRECT,
                        MECHANISM_MULTILEVEL, MODE_PROCESS, MODE_SERIAL,
                        MODE_SOCKET, Q_FLOW_SIZE_DISTRIBUTION,
                        Q_GET_COUNT, Q_GET_DURATION, Q_GET_FLOWS, Q_GET_PATHS,
                        Q_PATH_CONFORMANCE, Q_PLAN, Q_POOR_TCP_FLOWS,
                        Q_TOP_K_FLOWS, Q_TRAFFIC_MATRIX, Query, QueryCluster,
                        Supervisor, shard_hosts, wire)
import repro.core.cluster as cluster_module
from repro.core.aggregation import AggregationTree
from repro.core.alarms import PC_FAIL
from repro.core.executor import (W_HOST_FAILED, W_HOST_TIMEOUT,
                                 W_MIRROR_DETACHED, W_WORKER_RESTARTED,
                                 PlanNode)
from repro.core.groupserver import OUTBOX_FLUSH_BYTES
from repro.core.monitor import MonitorSnapshot
from repro.core.plan import (PE_FUNC, Aggregate, Filter, Plan, Project,
                             TopK, span_length)
from repro.core.shards import cut_plan
from repro.core.supervisor import EVENT_RESTARTED, ChaosPolicy, WorkerSeed
from repro.core.worker import EndpointClosed, FramedSocket
from repro.network import make_tcp_packet
from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import PathFlowRecord, flow_key
from repro.topology import FatTreeTopology
from test_event_plane import feed_workload
from test_merge_contract import counted_merges
from test_wire import golden_alarms
from test_supervisor import (FAST, STARTUP_FRAMES, group_key, kill_and_wait,
                             pool_of, populate, sample_records,
                             small_topology)

NUM_HOSTS = 6
GROUPS = 2  # the default socket shape here: 2 shards of 3 hosts

#: (mode, group_count) - every pool shape the identity checks run over.
#: The last two are the mode strings with the cluster's default argument:
#: "process" ignores it (one worker per host), "socket" takes the default
#: group count (clamped to the 6 hosts).
SHAPES = [
    pytest.param((MODE_SOCKET, count), id=f"{count}xunix")
    for count in (1, GROUPS, NUM_HOSTS)
] + [
    pytest.param((MODE_PROCESS, None), id="process-alias"),
    pytest.param((MODE_SOCKET, None), id="socket-alias"),
]

#: The two shapes the failure-semantics checks run on: groups of one, and
#: real groups.
FAILURE_SHAPES = [
    pytest.param((MODE_PROCESS, None), id="process-alias"),
    pytest.param((MODE_SOCKET, GROUPS), id="2xunix"),
]

#: One flow of :func:`populate` (server-2 -> server-1 via leaf-0, seen
#: from 3.0 to 3.5), for the point queries.
POINT_FLOW = FlowId("server-2", "server-1", 30_003, 80, PROTO_TCP)
POINT_PATH = ("server-2", "leaf-0", "server-1")

#: The identity matrix's queries.  The first five are the unconstrained
#: built-ins; the rest route each read through a different index (link,
#: time window, flow key) and end in each merge operator (top-k merge,
#: key sums, concat, histogram merge, keyed and scalar plan aggregates,
#: and the span merge of ``get_duration``: a bare flow, a (flow, path)
#: pair, and a window that clips the flow).
QUERIES = [
    (Q_TOP_K_FLOWS, {"k": 30}),
    (Q_FLOW_SIZE_DISTRIBUTION, {"links": [None], "binsize": 4000}),
    (Q_GET_FLOWS, {}),
    (Q_TRAFFIC_MATRIX, {}),
    (Q_PLAN, {"plan": Plan(ops=(
        Filter(), Aggregate(func="sum", fields=("bytes",), by=("flow",)),
        TopK(k=12)))}),
    (Q_TOP_K_FLOWS, {"k": 5, "link": ("leaf-1", None)}),
    (Q_TOP_K_FLOWS, {"k": 8, "time_range": (4.0, 16.0)}),
    (Q_FLOW_SIZE_DISTRIBUTION, {
        "links": [("leaf-0", None), (None, "server-5")], "binsize": 2500}),
    (Q_GET_FLOWS, {"link": ("leaf-2", None), "time_range": (0.0, 10.0)}),
    (Q_GET_PATHS, {"flow_id": POINT_FLOW}),
    (Q_GET_COUNT, {"flow": POINT_FLOW}),
    (Q_PLAN, {"plan": Plan(ops=(
        Filter(links=(("leaf-1", None),)),
        Aggregate(func="count", by=("path",))))}),
    (Q_PLAN, {"plan": Plan(ops=(
        Filter(start=2.0, end=20.0),
        Aggregate(func="histogram", fields=("bytes",), binsize=5000)))}),
    (Q_PLAN, {"plan": Plan(ops=(
        Filter(links=(("leaf-0", None),)),
        Project(fields=("flow", "bytes"))))}),
    (Q_PLAN, {"plan": Plan(ops=(
        Filter(), Aggregate(func="sum", fields=("bytes", "pkts"))))}),
    (Q_GET_DURATION, {"flow": POINT_FLOW}),
    (Q_GET_DURATION, {"flow": (POINT_FLOW, POINT_PATH)}),
    (Q_GET_DURATION, {"flow": POINT_FLOW, "time_range": (3.2, 10.0)}),
]

#: A flow whose records sit on three hosts, so only the merge can answer
#: its getDuration.
SPREAD_FLOW = FlowId("server-9", "server-0", 40_000, 80, PROTO_TCP)


def populate_spread_flow(cluster):
    populate(cluster)
    for index, host in enumerate(cluster.hosts[1:4]):
        cluster.agent(host).tib.add_record(PathFlowRecord(
            SPREAD_FLOW, ("server-9", f"leaf-{index}", host),
            2.0 + 3 * index, 4.0 + 5 * index, 100, 1))




def worker_cluster(mode=MODE_SOCKET, group_count=GROUPS, supervisor=None,
                   chaos=None, records_per_host=25, feed=populate, **kwargs):
    """A populated cluster flipped into a worker mode (populate-first, so
    the startup sync - not the ingest mirror - ships the records)."""
    cluster = QueryCluster(small_topology(NUM_HOSTS), group_count=group_count,
                           supervisor=supervisor, chaos=chaos, **kwargs)
    if feed is populate:
        feed(cluster, records_per_host=records_per_host)
    else:
        feed(cluster)
    cluster.configure_executor(mode=mode)
    return cluster


def reference_payload(query, mechanism=MECHANISM_DIRECT, feed=populate):
    with QueryCluster(small_topology(NUM_HOSTS)) as cluster:
        feed(cluster)
        return wire.encode_value(
            cluster.execute(query, mechanism=mechanism).payload)


@pytest.fixture(scope="module", params=SHAPES)
def shaped_cluster(request):
    """One healthy populated worker cluster per pool shape, shared by the
    read-only checks (tests must not kill its workers)."""
    mode, group_count = request.param
    cluster = worker_cluster(mode, group_count)
    cluster.worker_mode = mode
    yield cluster
    cluster.close()


@pytest.fixture(params=FAILURE_SHAPES)
def fresh_cluster(request):
    """A private worker cluster for tests that break or reconfigure it."""
    mode, group_count = request.param
    cluster = worker_cluster(mode, group_count)
    yield cluster
    cluster.close()


class TestSharding:
    def test_contiguous_balanced_deterministic(self):
        hosts = [f"h-{i}" for i in range(10)]
        shards = shard_hosts(hosts, 4)
        assert [len(s) for s in shards] == [3, 3, 2, 2]
        # contiguity: concatenating the shards restores the host order
        assert [h for shard in shards for h in shard] == hosts
        assert shard_hosts(hosts, 4) == shards  # deterministic

    def test_group_count_clamped_to_hosts(self):
        assert len(shard_hosts(["a", "b"], 8)) == 2

    def test_bad_group_count_rejected(self):
        with pytest.raises(ValueError):
            shard_hosts(["a"], 0)


class TestModeAliases:
    @pytest.mark.parametrize("mode,groups", [(MODE_PROCESS, NUM_HOSTS),
                                             (MODE_SOCKET, GROUPS)])
    def test_mode_strings_resolve_to_pool_shapes(self, mode, groups):
        """``"socket"`` takes ``group_count``; ``"process"`` is groups of
        one whatever it says."""
        with worker_cluster(mode, group_count=GROUPS) as cluster:
            pool = cluster.agent_servers
            assert pool.groups == shard_hosts(cluster.hosts, groups)
            assert cluster.execute(Query(Q_GET_FLOWS, {})).mode == mode

    def test_flip_replaces_the_pool_only_when_the_shape_changes(self):
        with worker_cluster(MODE_SOCKET) as cluster:
            grouped = cluster.agent_servers
            cluster.configure_executor(mode=MODE_SERIAL)
            cluster.configure_executor(mode=MODE_SOCKET)
            assert cluster.agent_servers is grouped  # kept alive, in sync
            # a write still in the old pool's outbox dies with that pool
            cluster.agent(cluster.hosts[0]).ingest_path_record(
                late_record(cluster.hosts[0]))
            cluster.configure_executor(mode=MODE_PROCESS)
            per_host = cluster.agent_servers
            assert per_host is not grouped and not grouped.alive("group-0")
            assert per_host.group_count == NUM_HOSTS
            # the fresh pool re-synced from the local mirrors
            for host in cluster.hosts:
                assert per_host.ping(host) == \
                    cluster.agent(host).tib.record_count()
        # the same shape under the other mode string - an explicit count, or
        # the default one clamped to the host count: nothing to replace
        for group_count in (NUM_HOSTS, None):
            with worker_cluster(MODE_SOCKET,
                                group_count=group_count) as cluster:
                pool = cluster.agent_servers
                cluster.configure_executor(mode=MODE_PROCESS)
                assert cluster.agent_servers is pool
                assert cluster.execute(Query(Q_GET_FLOWS, {})).mode == \
                    MODE_PROCESS

    @pytest.mark.parametrize("transport", ["tcp", "pipe", ""])
    def test_only_the_unix_socket_transport_is_accepted(self, transport):
        """``socket_transport`` survives for callers that name the one
        connection; any other value is refused at construction."""
        with pytest.raises(ValueError, match="socket transport"):
            QueryCluster(small_topology(NUM_HOSTS), mode=MODE_SOCKET,
                         socket_transport=transport)

    def test_ingest_under_an_in_process_mode_still_reaches_workers(self):
        """Flipping back to serial keeps the workers alive and mirrored, so
        a later flip to the worker mode answers with the new records."""
        with worker_cluster(MODE_PROCESS) as cluster:
            cluster.configure_executor(mode=MODE_SERIAL)
            host = cluster.hosts[0]
            flow = FlowId("newcomer", host, 5555, 80, PROTO_TCP)
            cluster.agent(host).ingest_path_record(PathFlowRecord(
                flow, ("newcomer", "leaf-0", host), 100.0, 100.5, 4242, 3))
            serial = cluster.execute(Query(Q_GET_FLOWS, {}))
            cluster.configure_executor(mode=MODE_PROCESS)
            worker = cluster.execute(Query(Q_GET_FLOWS, {}))
            assert any(flow_id == flow for flow_id, _ in worker.payload)
            assert wire.encode_value(worker.payload) == \
                wire.encode_value(serial.payload)


class TestPayloadIdentity:
    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    @pytest.mark.parametrize("name,params", QUERIES)
    def test_modes_byte_identical(self, shaped_cluster, mechanism, name,
                                  params):
        """Serial and worker runs of the same query return byte-identical
        payloads; the result reports the mode string the caller asked
        for."""
        query = Query(name, dict(params))
        worker_mode = shaped_cluster.worker_mode
        results, charged = {}, {}
        stats = shaped_cluster.rpc.stats
        for mode in (MODE_SERIAL, worker_mode):
            shaped_cluster.configure_executor(mode=mode)
            stats.reset()
            results[mode] = shaped_cluster.execute(query,
                                                   mechanism=mechanism)
            charged[mode] = (stats.messages, stats.bytes)
        encoded = {mode: wire.encode_value(result.payload)
                   for mode, result in results.items()}
        assert encoded[MODE_SERIAL] == encoded[worker_mode]
        assert encoded[MODE_SERIAL] != wire.encode_value(None)
        assert results[worker_mode].mode == worker_mode
        assert not results[worker_mode].partial
        # Per-host or per-tree-edge legs in every mode, on both counters.
        assert results[MODE_SERIAL].traffic_bytes == \
            results[worker_mode].traffic_bytes
        assert charged[MODE_SERIAL] == charged[worker_mode]

    def test_unroutable_target_fails_like_a_dead_agent(self, shaped_cluster):
        """A target no worker serves lands in ``hosts_failed`` (it does not
        raise out of the scatter); the runs either side of it still answer."""
        hosts = shaped_cluster.hosts
        results = []
        for mode in (MODE_SERIAL, shaped_cluster.worker_mode):
            shaped_cluster.configure_executor(mode=mode)
            results.append(shaped_cluster.execute_direct(
                Query(Q_GET_FLOWS, {}), hosts=hosts[:3] + ["nope"] + hosts[3:]))
        for result in results:
            assert result.partial and result.hosts_failed == ["nope"]
            assert [(w.code, w.host) for w in result.warnings] == \
                [(W_HOST_FAILED, "nope")]
        assert results[0].payload and wire.encode_value(results[0].payload) \
            == wire.encode_value(results[1].payload)

    def test_workers_hold_the_same_records(self, shaped_cluster):
        pool = shaped_cluster.agent_servers
        for host in shaped_cluster.hosts:
            local = shaped_cluster.agent(host).tib.record_count()
            assert pool.ping(host) == local

    @pytest.mark.parametrize("shape", FAILURE_SHAPES)
    def test_monitor_backed_query_identical(self, shape):
        query = Query(Q_POOR_TCP_FLOWS, {})
        want = reference_payload(query, feed=feed_workload)
        with worker_cluster(*shape, feed=feed_workload) as cluster:
            result = cluster.execute(query)
            assert not result.partial
            assert wire.encode_value(result.payload) == want
            assert want != wire.encode_value([])


class TestDurationAcrossHosts:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_merged_span_is_the_clamped_spread_over_every_host(self, shape):
        """``get_duration`` of a flow seen on three hosts: the merged span's
        length is the brute-force clamped spread over all three hosts'
        records, in both mechanisms, byte-identical in every mode."""
        windows = (None, (3.0, 9.0), (5.0, None), (None, 3.0))
        with worker_cluster(*shape, feed=populate_spread_flow) as cluster:
            records = [record for host in cluster.hosts for record in
                       cluster.agent(host).tib.records(flow_id=SPREAD_FLOW)]
            assert len({record.path[-1] for record in records}) == 3
            answers = {}
            for mode in (MODE_SERIAL, shape[0]):
                cluster.configure_executor(mode=mode)
                for window in windows:
                    start, end = window or (None, None)
                    inside = [r for r in records
                              if (start is None or r.etime >= start)
                              and (end is None or r.stime <= end)]
                    spread = (
                        max(r.etime if end is None else min(r.etime, end)
                            for r in inside)
                        - min(r.stime if start is None
                              else max(r.stime, start) for r in inside))
                    for mechanism in (MECHANISM_DIRECT, MECHANISM_MULTILEVEL):
                        result = cluster.execute(Query(Q_GET_DURATION, {
                            "flow": SPREAD_FLOW, "time_range": window}),
                            mechanism=mechanism)
                        assert not result.partial
                        assert span_length(result.payload) == spread > 0
                        answers.setdefault((window, mechanism), set()).add(
                            wire.encode_value(result.payload))
            assert all(len(encoded) == 1 for encoded in answers.values())


class TestMeasuredTraffic:
    def test_direct_envelopes_reconcile_with_pool_counters(
            self, shaped_cluster):
        """The pool counts exactly: one request envelope per worker group
        holding one shard query for the whole shard, plus that group's
        reply envelope holding one shard result - a fixed-width report per
        host and the group's folded partial (no estimates anywhere).
        Under ``"process"`` that is one envelope per host each way."""
        cluster = shaped_cluster
        pool = cluster.agent_servers
        query = Query(Q_TOP_K_FLOWS, {"k": 10})
        request = wire.encode_query_request(query, None)
        expected = 0
        for key in pool.group_keys():
            unit = PlanNode(None, children=[
                PlanNode(host) for host in pool.group_hosts(key)])
            local = cluster.engine.fold(
                query, unit, lambda host: cluster.agent(host).execute_query(
                    query))
            reply = wire.encode_shard_result(
                [(host, 0.0, 0.0, report.response_bytes)
                 for host, report in local.reports.items()],
                [(0.0, wire.encode_result(local.value))], [])
            shard = wire.encode_shard_query(request,
                                            wire.encode_fold_units([unit]))
            expected += len(wire.encode_group_batch(
                1, [(wire.EVERY_HOST, shard)]))
            expected += len(wire.encode_group_batch(
                1, [(wire.EVERY_HOST, reply)]))
        cluster.configure_executor(mode=cluster.worker_mode)
        pool.reset_stats()
        outcome = cluster.execute(query, mechanism=MECHANISM_DIRECT)
        assert pool.stats.bytes_sent + pool.stats.bytes_received == expected
        assert outcome.duplicate_traffic_bytes == 0
        assert outcome.wall_clock_s > 0

    def test_multilevel_edge_parts_sum_to_the_combined_frame(
            self, shaped_cluster):
        """An edge's (query, spec) part sizes reconcile exactly with the
        paper's batched request frame, the real encoder's query+spec
        encode - what the edge is priced at (the worker modes ship the
        bare query frame)."""
        query = Query(Q_TOP_K_FLOWS, {"k": 3})
        request = wire.encode_query_request(query, None)
        tree = AggregationTree(shaped_cluster.hosts, fanout=(2, 2))
        specs = {node.host: node.spec for node in tree.host_nodes()}
        plan = [shaped_cluster._plan_from_tree(tree.root, request)]
        for node in plan:  # breadth-first, growing as it goes
            plan += node.children
        assert len(plan) == len(shaped_cluster.hosts) + 1
        for node in plan[1:]:
            frame = wire.encode_query_request(query, specs[node.host])
            assert node.request_parts[0] == len(request)
            assert sum(node.request_parts) == len(frame)

    def test_result_wire_bytes_is_the_inner_reply_frame(self,
                                                        shaped_cluster):
        pool = shaped_cluster.agent_servers
        host = shaped_cluster.hosts[0]
        query = Query(Q_GET_FLOWS, {})
        remote = pool.query(host, query)
        local = shaped_cluster.agent(host).execute_query(query)
        assert remote.wire_bytes == local.wire_bytes == \
            len(wire.encode_result(local))
        assert wire.encode_value(remote.payload) == \
            wire.encode_value(local.payload)

    def test_reply_timeout_fails_worker_instead_of_desyncing(self):
        """A timed-out reply must not be read by the *next* request: the
        worker is declared dead, so later exchanges raise instead of
        returning stale payloads."""
        with GroupAgentPool(["a"], reply_timeout_s=0.1) as pool:
            record = PathFlowRecord(FlowId("x", "a", 1, 2, PROTO_TCP),
                                    ("x", "sw", "a"), 0.0, 1.0, 10, 1)
            pool.add_records("a", [record])
            pool.stall("a", 0.6)
            with pytest.raises(AgentServerError, match="did not reply"):
                pool.query("a", Query(Q_GET_FLOWS, {}))
            # The stale reply is never served to a later request.
            with pytest.raises(AgentServerError):
                pool.query("a", Query(Q_TOP_K_FLOWS, {"k": 3}))
            deadline = time.monotonic() + 2.0
            while pool.alive("a") and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not pool.alive("a")


class TestFrameCoalescing:
    def test_fewer_envelopes_than_frames(self):
        """The point of grouping: logical per-host frames outnumber the
        physical envelopes that carried them."""
        with worker_cluster() as cluster:
            pool = cluster.agent_servers
            pool.reset_stats()
            cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 10}))
            cluster.run_monitors(1.0)
            stats = pool.stats
            assert stats.frames_sent > stats.envelopes_sent > 0
            assert stats.frames_received > stats.envelopes_received > 0
            # 3 hosts per group -> exactly 3 logical frames per envelope
            # on these all-host scatters
            assert stats.frames_sent == \
                NUM_HOSTS // GROUPS * stats.envelopes_sent

    def test_process_alias_ships_one_envelope_per_host(self):
        """Groups of one still speak envelopes - one per host, no special
        bare-frame path - for sweeps and both query mechanisms."""
        with worker_cluster(MODE_PROCESS) as cluster:
            pool = cluster.agent_servers
            pool.reset_stats()
            cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 10}))
            cluster.run_monitors(1.0)
            cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 10}),
                            mechanism=MECHANISM_MULTILEVEL)
            assert pool.stats.envelopes_sent == 3 * NUM_HOSTS
            assert pool.stats.frames_sent == pool.stats.envelopes_sent

    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    def test_queries_ship_one_envelope_per_group_touched(self, mechanism):
        """A query costs one request envelope per group touched, however
        its targets interleave the groups, not one round trip per host:
        one shard query entry per group, holding a fold unit per run of
        the group's targets - and a one-level tree cuts as the direct plan
        does, so both mechanisms ship the same bytes.  What is *priced*
        differs: ``traffic_bytes`` is serial's, and a multi-level query's
        exceeds the direct one's by exactly its edges' subtree specs (the
        paper's batched query+spec request; six hosts under fan-out 7 make
        a one-level tree, so the response legs are the direct query's)."""
        query = Query(Q_TOP_K_FLOWS, {"k": 10})
        request = wire.encode_query_request(query, None)
        with worker_cluster() as cluster:
            pool = cluster.agent_servers
            targets = cluster.hosts[::2] + cluster.hosts[1::2]
            tree = AggregationTree(targets)
            assert tree.depth() == 1
            h = cluster.hosts  # group-0 holds h[:3], group-1 h[3:]
            runs = {"group-0": [[h[0], h[2]], [h[1]]],
                    "group-1": [[h[4]], [h[3], h[5]]]}
            expected = sum(len(wire.encode_group_batch(1, [(
                wire.EVERY_HOST, wire.encode_shard_query(
                    request, wire.encode_fold_units([
                        PlanNode(None, children=[
                            PlanNode(host) for host in run])
                        for run in group_runs])))]))
                for group_runs in runs.values())
            shipped = {}
            for each in (mechanism, MECHANISM_DIRECT):
                pool.reset_stats()
                shipped[each] = cluster.execute(query, targets, each)
                assert not shipped[each].partial
                assert pool.stats.envelopes_sent == GROUPS
                assert pool.stats.frames_sent == NUM_HOSTS
                assert pool.stats.bytes_sent == expected
            cluster.configure_executor(mode=MODE_SERIAL)
            serial = cluster.execute(query, targets, mechanism)
        result, direct = shipped[mechanism], shipped[MECHANISM_DIRECT]
        assert wire.encode_value(result.payload) == \
            wire.encode_value(serial.payload)
        assert result.traffic_bytes == serial.traffic_bytes
        specs = sum(node.spec_len for node in tree.host_nodes())
        assert result.traffic_bytes - direct.traffic_bytes == \
            (specs if mechanism == MECHANISM_MULTILEVEL else 0)

    def test_sweep_coalesces_one_envelope_per_group(self):
        with worker_cluster(feed=feed_workload) as cluster:
            pool = cluster.agent_servers
            pool.reset_stats()
            sweep = cluster.run_monitors(1.0)
            assert sweep  # feed_workload makes poor flows alert
            assert pool.stats.envelopes_sent == GROUPS
            assert pool.stats.frames_sent == NUM_HOSTS
            assert sweep.traffic_bytes > 0

    def test_a_sweep_and_a_reset_ship_one_entry_per_group(self,
                                                          monkeypatch):
        """A sweep writes one envelope per group holding one tick entry
        addressed to every host, and reads one reply per group holding one
        alarm batch; ``reset_stats`` flushes one re-open entry per group.
        The frame counters still count hosts addressed."""
        with worker_cluster(feed=feed_workload) as cluster:
            pool = cluster.agent_servers
            written, read = [], []
            encode, decode = wire.encode_group_batch, wire.decode_group_batch

            def encode_group_batch(cid, entries):
                written.append((cid, list(entries)))
                return encode(cid, entries)

            def decode_group_batch(frame):
                cid, entries = decode(frame)
                read.append((cid, [host for host, _reply in entries]))
                return cid, entries

            monkeypatch.setattr(wire, "encode_group_batch",
                                encode_group_batch)
            monkeypatch.setattr(wire, "decode_group_batch",
                                decode_group_batch)
            pool.reset_stats()
            sweep = cluster.run_monitors(1.0)
            assert len(sweep) == 3 * NUM_HOSTS and not sweep.partial
            tick = wire.encode_monitor_tick(1.0)
            assert [entries for _cid, entries in written] == \
                [[(wire.EVERY_HOST, tick)]] * GROUPS
            assert all(cid > 0 for cid, _entries in written)
            assert sorted(read) == sorted(
                (cid, [wire.EVERY_HOST]) for cid, _entries in written)
            stats = pool.stats
            assert (stats.envelopes_sent, stats.envelopes_received) == \
                (GROUPS, GROUPS)
            assert stats.frames_sent == stats.frames_received == NUM_HOSTS

            written.clear()
            sent = []
            zero = pool.reset_stats
            pool.reset_stats = lambda: (sent.append(
                (pool.stats.envelopes_sent, pool.stats.frames_sent)), zero())
            cluster.reset_stats()
            assert written == [
                (0, [(wire.EVERY_HOST, wire.encode_monitor_reopen())])
            ] * GROUPS
            assert sent == [(2 * GROUPS, 2 * NUM_HOSTS)]
            assert len(cluster.run_monitors(2.0)) == 3 * NUM_HOSTS


class TestSplitPhaseScatter:
    """A worker-mode scatter writes every group's envelope, then consumes
    the replies in group order on the calling thread."""

    @pytest.mark.parametrize("shape", FAILURE_SHAPES)
    def test_queries_and_sweeps_start_no_thread(self, shape, monkeypatch):
        with worker_cluster(*shape, feed=feed_workload) as cluster:
            started = []
            real_start = threading.Thread.start

            def start(thread):
                started.append(thread.name)
                real_start(thread)

            with monkeypatch.context() as patch:
                patch.setattr(threading.Thread, "start", start)
                assert cluster.run_monitors(1.0)
                assert cluster.run_monitors(2.0) == []
                for mechanism in (MECHANISM_DIRECT, MECHANISM_MULTILEVEL):
                    result = cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 5}),
                                             mechanism=mechanism)
                    assert result.payload and not result.partial
            assert started == []

    def test_every_envelope_leaves_before_the_first_wait(self, monkeypatch):
        """Group 0 stalled for S: group 1's reported exchange time is its
        own send-to-reply, not its wait behind group 0.  Both stalled: the
        two stalls overlap, and group 1 - consumed after group 0, its
        reply long landed - still reports the S its exchange took."""
        stall_s = 0.4
        with worker_cluster(feed=feed_workload) as cluster:
            pool = cluster.agent_servers
            gathers = []
            scatter = QueryCluster._scatter_groups

            def recording_scatter(*args, **kwargs):
                gathers.append(scatter(*args, **kwargs))
                return gathers[-1]

            monkeypatch.setattr(QueryCluster, "_scatter_groups",
                                recording_scatter)
            pool.stall(pool.group_hosts("group-0")[0], stall_s)
            assert cluster.run_monitors(1.0)
            reports = gathers[-1][1].reports
            assert reports["group-0"].exec_s >= stall_s
            assert reports["group-1"].exec_s < stall_s / 2
            for key in pool.group_keys():
                pool.stall(pool.group_hosts(key)[0], stall_s)
            result = cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 5}))
            assert not result.partial
            assert stall_s <= result.wall_clock_s < 1.5 * stall_s
            assert result.breakdown["host_execution"] >= stall_s
            assert all(report.exec_s >= stall_s
                       for report in gathers[-1][1].reports.values())


class TestRepeatedHosts:
    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    @pytest.mark.parametrize("mode", [MODE_SERIAL, MODE_SOCKET])
    def test_a_host_named_twice_is_rejected_before_sending(self, mode,
                                                           mechanism):
        """A repeated host would answer - and its bytes count - twice; the
        scatter names it and sends nothing."""
        with worker_cluster(mode=mode) as cluster:
            host = cluster.hosts[1]
            query = Query(Q_TOP_K_FLOWS, {"k": 5})
            pool = cluster.agent_servers
            sent = pool.stats.envelopes_sent if pool is not None else 0
            messages = cluster.rpc.stats.messages
            with pytest.raises(ValueError, match=repr(host)):
                cluster.execute(query, hosts=[host, cluster.hosts[0], host],
                                mechanism=mechanism)
            assert cluster.rpc.stats.messages == messages
            if pool is not None:
                assert pool.stats.envelopes_sent == sent
            assert not cluster.execute(query, hosts=[host],
                                       mechanism=mechanism).partial


@pytest.fixture(scope="module")
def serial_alarm_streams():
    """The serial reference: (sweep alarm stream, PC_FAIL stream raised by
    a direct path-conformance query) over ``feed_workload``."""
    with QueryCluster(small_topology(NUM_HOSTS)) as serial:
        feed_workload(serial)
        sweep = wire.encode_alarm_batch(list(serial.run_monitors(1.0)))
        serial.execute(Query(Q_PATH_CONFORMANCE, {"max_hops": 0}),
                       mechanism=MECHANISM_DIRECT)
        piggybacked = wire.encode_alarm_batch(
            list(serial.alarm_bus.by_reason(PC_FAIL)))
    assert sweep != wire.encode_alarm_batch([])
    assert piggybacked != wire.encode_alarm_batch([])
    return sweep, piggybacked


class TestAlarmStreamIdentity:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_alarm_streams_identical_to_serial(self, shape,
                                               serial_alarm_streams):
        """Sweep alarms, and PC_FAIL alarms raised host-side that ride the
        coalesced reply envelopes, land on the bus in canonical host order
        - byte-identical to the serial streams - and at most once."""
        want_sweep, want_piggybacked = serial_alarm_streams
        with worker_cluster(*shape, feed=feed_workload) as cluster:
            sweep = cluster.run_monitors(1.0)
            assert sweep.mode == shape[0] and not sweep.partial
            assert wire.encode_alarm_batch(list(sweep)) == want_sweep
            assert cluster.run_monitors(2.0) == []  # all latched
            cluster.execute(Query(Q_PATH_CONFORMANCE, {"max_hops": 0}),
                            mechanism=MECHANISM_DIRECT)
            assert wire.encode_alarm_batch(
                list(cluster.alarm_bus.by_reason(PC_FAIL))) == \
                want_piggybacked


class TestResetShipsTheOperation:
    """``reset_stats()`` makes every worker monitor run the same
    ``reset_stats()`` the local one ran (``MSG_MONITOR_REOPEN``) instead of
    re-shipping the reset ledgers flow by flow."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ledgers_stay_identical_for_a_few_bytes_a_host(self, shape):
        with QueryCluster(small_topology(NUM_HOSTS)) as serial:
            feed_workload(serial)
            serial.run_monitors(1.0)
            serial.reset_stats()
            want = wire.encode_alarm_batch(list(serial.run_monitors(2.0)))
        assert want != wire.encode_alarm_batch([])
        with worker_cluster(*shape, feed=feed_workload) as cluster:
            pool = cluster.agent_servers
            assert cluster.run_monitors(1.0)  # latches both sides
            assert cluster.run_monitors(1.5) == []
            sent = []
            zero = pool.reset_stats
            zero()
            pool.reset_stats = lambda: (sent.append(pool.stats.bytes_sent),
                                        zero())
            cluster.reset_stats()
            # Sent before the counters were zeroed, so the next interval
            # starts at zero - and a few bytes a host, not a state frame.
            assert len(sent) == 1 and 0 < sent[0] <= 64 * NUM_HOSTS
            assert pool.stats.bytes_sent == 0
            for host in cluster.hosts:
                local = cluster.agent(host).monitor.snapshot()
                assert local.alerts_raised == 0
                assert pool.monitor_state(host) == local
            sweep = cluster.run_monitors(2.0)
            assert not sweep.partial
            assert wire.encode_alarm_batch(list(sweep)) == want
            assert cluster.run_monitors(3.0) == []

    @pytest.mark.parametrize("shape", SHAPES)
    def test_restart_between_reset_and_tick_re_alerts_once(self, shape):
        """The re-seed of a worker restarted after the reset carries the
        cleared latches (it is built from the local ledger, which ran the
        same reset): every poor flow alerts again, exactly once."""
        with worker_cluster(*shape, feed=feed_workload,
                            supervisor=Supervisor(FAST)) as cluster:
            pool = cluster.agent_servers
            first = cluster.run_monitors(1.0)
            assert first
            cluster.reset_stats()
            kill_and_wait(pool, cluster.hosts[0])
            # The dead group's tick fails (and heals it); the next sweep
            # hears from the re-seeded worker.
            sweeps = [cluster.run_monitors(2.0), cluster.run_monitors(3.0)]
            assert sweeps[0].partial and not sweeps[1].partial
            assert pool.stats.restarts == 1
            assert sorted((alarm.host, alarm.flow_id)
                          for sweep in sweeps for alarm in sweep) == \
                sorted((alarm.host, alarm.flow_id) for alarm in first)
            assert cluster.run_monitors(4.0) == []

    @pytest.mark.parametrize("shape", SHAPES)
    def test_reset_with_a_dead_unsupervised_group_returns(self, shape):
        with worker_cluster(*shape, feed=feed_workload) as cluster:
            pool = cluster.agent_servers
            assert cluster.run_monitors(1.0)
            victim = cluster.hosts[0]
            dead = set(pool.group_hosts(group_key(pool, victim)))
            kill_and_wait(pool, victim)
            cluster.reset_stats()
            assert pool.stats.bytes_sent == 0
            sweep = cluster.run_monitors(2.0)
            assert sweep.partial and set(sweep.hosts_failed) == dead
            # the surviving groups' flows re-alert
            assert {alarm.host for alarm in sweep} == \
                set(cluster.hosts) - dead


#: Pathbench's fan-out shape: 128 hosts (a k=8 fat-tree) in two
#: contiguous shards, queried directly or along the paper's (7, 4, 4) tree.
FANOUT_GROUPS = 2

#: What the controller decodes per query on that shape: a direct plan is
#: one fold unit per group; the tree, named in pre-order, leaves 3 runs of
#: whole subtrees and 1 host whose subtree spans both shards, sending its
#: own result.
FANOUT_PARTIALS = {MECHANISM_DIRECT: FANOUT_GROUPS, MECHANISM_MULTILEVEL: 4}


@pytest.fixture(scope="module")
def fanout_cluster():
    """A 128-host socket cluster of two groups, a record on every host."""
    cluster = QueryCluster(FatTreeTopology(8), group_count=FANOUT_GROUPS)
    hosts = cluster.hosts
    for index, host in enumerate(hosts):
        src = hosts[(index + 7) % len(hosts)]
        cluster.agent(host).tib.add_record(PathFlowRecord(
            FlowId(src, host, 30_000 + index, 80, PROTO_TCP), (src, host),
            1.0, 2.0 + index % 9, 100 * (index % 13 + 1), 1))
    cluster.configure_executor(mode=MODE_SOCKET)
    yield cluster
    cluster.close()


def count_decodes(monkeypatch):
    """The result frames ``wire.decode_result`` decodes from now on, in
    this process: the controller's."""
    decoded = []
    decode = wire.decode_result

    def decode_result(frame, query=None):
        decoded.append(frame)
        return decode(frame, query)

    monkeypatch.setattr(wire, "decode_result", decode_result)
    return decoded


def _reshard(entries, change):
    """Group-1's shard result entry with ``change(reports, partials,
    alarms)`` applied, re-encoded."""
    (host, frame), = entries
    reply = wire.decode_shard_result(frame)
    reports, partials, alarms = change(
        list(reply.reports), list(reply.partials), list(reply.alarms))
    return [(host, wire.encode_shard_result(
        reports, [(merge_s, wire.encode_result(partial))
                  for merge_s, partial in partials], alarms))]


#: Group-1's shard result rewritten to contradict the query it answers: a
#: report for another group's host, a report short, an extra partial, an
#: alarm for another group's host, a truncated frame.
QUERY_REPLY_DAMAGE = {
    "wrong-host": lambda entries: _reshard(
        entries, lambda reports, partials, alarms: (
            [("server-0",) + reports[0][1:]] + reports[1:], partials,
            alarms)),
    "short-reports": lambda entries: _reshard(
        entries, lambda reports, partials, alarms: (
            reports[:-1], partials, alarms)),
    "extra-partial": lambda entries: _reshard(
        entries, lambda reports, partials, alarms: (
            reports, partials + partials, alarms)),
    "foreign-alarm": lambda entries: _reshard(
        entries, lambda reports, partials, alarms: (
            reports, partials, alarms + [dataclasses.replace(
                golden_alarms()[0], host="server-0")])),
    "truncated": lambda entries: [(entries[0][0], entries[0][1][:-1])],
}


class TestShardFold:
    """Each worker group folds the units of the plan that lie in its shard
    and sends one partial per unit: the controller decodes those and folds
    what is left, and answers, prices and fails exactly as serial."""

    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    def test_the_cut_of_the_fanout_plan(self, fanout_cluster, mechanism):
        cluster = fanout_cluster
        pool = cluster.agent_servers
        request = wire.encode_query_request(Query(Q_GET_FLOWS), None)
        if mechanism == MECHANISM_DIRECT:
            plan = PlanNode(None, children=[
                PlanNode(host, (len(request),)) for host in cluster.hosts])
        else:
            plan = cluster._plan_from_tree(
                AggregationTree(cluster.hosts).root, request)
        cut = cut_plan(plan, pool.group_of)
        units = [(key, unit) for key, part in cut.parts.items()
                 for unit in part.units]
        assert len(units) == FANOUT_PARTIALS[mechanism]
        named = []
        for key, unit in units:
            stack = list(unit.children)
            while stack:
                node = stack.pop()
                assert pool.group_of(node.host) == key  # wholly in a shard
                named.append(node.host)
                stack += node.children
        assert sorted(named) == sorted(cluster.hosts)
        assert sorted(cut.hosts) == sorted(cluster.hosts)
        for key, part in cut.parts.items():
            assert len(part.hosts) == len(set(part.hosts))
            assert set(part.hosts) <= set(pool.group_hosts(key))

    def test_a_plan_is_cut_once_per_mechanism_and_shape(self, fanout_cluster,
                                                        monkeypatch):
        """Direct and multi-level queries taking turns over the same hosts
        cut each plan once, whatever the query - every served merge
        regroups; a float key sum the validator rejects fails its hosts
        and leaves the kept cuts alone; other targets replace the direct
        cut."""
        cluster = fanout_cluster
        cluster._cuts.clear()  # what earlier tests on this cluster kept
        cuts = []
        cut = cluster_module.cut_plan
        monkeypatch.setattr(
            cluster_module, "cut_plan",
            lambda plan, group_of: cuts.append(plan) or cut(plan, group_of))
        top_k = Query(Q_TOP_K_FLOWS, {"k": 5})
        matrix = Query(Q_TRAFFIC_MATRIX, {})
        float_sum = Query(Q_PLAN, {"plan": Plan(ops=(Aggregate(
            func="sum", fields=("stime",), by=("flow",)),))})
        for query in (top_k, top_k, matrix, float_sum, top_k):
            for mechanism in (MECHANISM_DIRECT, MECHANISM_MULTILEVEL):
                result = cluster.execute(query, mechanism=mechanism)
                assert result.partial == (query is float_sum)
        assert len(cuts) == 2
        cluster.execute(top_k, hosts=cluster.hosts[:3])
        cluster.execute(top_k)
        assert len(cuts) == 4

    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    def test_the_controller_decodes_one_partial_per_fold_unit(
            self, fanout_cluster, mechanism, monkeypatch):
        """128 hosts in two groups: a direct query decodes one partial per
        group and merges once, at the root; a multi-level one decodes 4.
        Payload, traffic and channel counters are serial's."""
        cluster = fanout_cluster
        query = Query(Q_TOP_K_FLOWS, {"k": 20})
        cluster.configure_executor(mode=MODE_SERIAL)
        want = cluster.execute(query, mechanism=mechanism)
        cluster.configure_executor(mode=MODE_SOCKET)
        decoded = count_decodes(monkeypatch)
        merges = counted_merges(cluster, monkeypatch)
        result = cluster.execute(query, mechanism=mechanism)
        assert not result.partial
        assert len(decoded) == FANOUT_PARTIALS[mechanism]
        if mechanism == MECHANISM_DIRECT:
            assert merges == [FANOUT_GROUPS]
        assert wire.encode_value(result.payload) == \
            wire.encode_value(want.payload) != wire.encode_value([])
        assert result.traffic_bytes == want.traffic_bytes

    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    def test_groups_of_one_decode_one_partial_per_host(self, mechanism,
                                                       monkeypatch):
        with worker_cluster(MODE_PROCESS) as cluster:
            decoded = count_decodes(monkeypatch)
            result = cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 5}),
                                     mechanism=mechanism)
            assert not result.partial and result.payload
            assert len(decoded) == NUM_HOSTS

    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    def test_the_full_plan_is_priced_from_the_workers_reports(
            self, fanout_cluster, mechanism, monkeypatch):
        """Every plan host has a report - its worker's ``exec_s``, the
        plan's priced request and the response bytes serial sizes - and
        every plan node its ``merge_s``; the channel is charged serial's
        legs."""
        cluster = fanout_cluster
        query = Query(Q_FLOW_SIZE_DISTRIBUTION, {"binsize": 100})
        gathers = {}
        price = cluster_module.model_response_time

        def keep(plan, reports, merge_s, channel):
            gathers[cluster.mode] = (reports, merge_s)
            return price(plan, reports, merge_s, channel)

        monkeypatch.setattr(cluster_module, "model_response_time", keep)
        charged = {}
        for mode in (MODE_SERIAL, MODE_SOCKET):
            cluster.configure_executor(mode=mode)
            cluster.rpc.stats.reset()
            cluster.execute(query, mechanism=mechanism)
            charged[mode] = (cluster.rpc.stats.messages,
                             cluster.rpc.stats.bytes)
        assert charged[MODE_SERIAL] == charged[MODE_SOCKET]
        (serial, serial_merges), (socket_, socket_merges) = (
            gathers[MODE_SERIAL], gathers[MODE_SOCKET])
        assert list(socket_) == list(serial)
        assert list(socket_merges) == list(serial_merges)
        for host, report in socket_.items():
            twin = serial[host]
            assert report.ok and report.attempts == 1
            assert (report.request_bytes, report.response_bytes) == \
                (twin.request_bytes, twin.response_bytes)
            assert report.exec_s > 0
        interior = [host for host, seconds in serial_merges.items()
                    if seconds > 0]
        assert all(socket_merges[host] > 0 for host in interior)

    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    def test_a_terminal_float_key_sum_is_rejected_in_every_mode(
            self, mechanism, monkeypatch):
        """A plan summing ``stime`` by flow would add floats across hosts,
        which round differently when regrouped: serial and the workers
        both reject it, every host failed on the validator's
        ``bad-aggregate`` issue.  Ranked by a ``TopK`` (on a flow whose
        three records straddle the two shards) the sum is folded at the
        workers, one partial a fold unit, to serial's bytes."""
        def feed(cluster):
            populate(cluster)
            for host, stime in zip(cluster.hosts[2:5], (0.1, 0.2, 0.3)):
                cluster.agent(host).tib.add_record(PathFlowRecord(
                    SPREAD_FLOW, ("server-9", host), stime, 9.0, 10, 1))

        summed = Aggregate(func="sum", fields=("stime",), by=("flow",))
        rejected = Query(Q_PLAN, {"plan": Plan(ops=(summed,))})
        ranked = Query(Q_PLAN, {"plan": Plan(ops=(
            summed, TopK(k=40, order="asc")))})
        want = reference_payload(ranked, mechanism, feed)
        with QueryCluster(small_topology(NUM_HOSTS)) as serial, \
                worker_cluster(feed=feed) as workers:
            feed(serial)
            for cluster in (serial, workers):
                result = cluster.execute(rejected, mechanism=mechanism)
                assert result.payload == {}
                assert result.hosts_failed == cluster.hosts
                assert result.warnings and all(
                    f"[{PE_FUNC}@op0]" in warning.detail
                    for warning in result.warnings)
            decoded = count_decodes(monkeypatch)
            result = workers.execute(ranked, mechanism=mechanism)
            assert not result.partial
            assert wire.encode_value(result.payload) == want
            assert all((stime, flow_key(SPREAD_FLOW)) in result.payload
                       for stime in (0.1, 0.2, 0.3))
            assert len(decoded) < NUM_HOSTS

    def test_a_latched_ingest_error_fails_the_query_group(self):
        """A corrupt record batch latches an ingest error on one host: the
        next query's shard result is one error frame for its group (no
        host of it runs), the group's hosts fail, and the query after it
        answers serial's payload."""
        query = Query(Q_GET_FLOWS, {})
        want = reference_payload(query)
        with worker_cluster() as cluster:
            pool = cluster.agent_servers
            doomed = pool.group_hosts("group-1")
            victim = doomed[1]
            pool._post(victim, wire.encode_record_batch(
                sample_records(victim))[:-1])
            first = cluster.execute(query)
            assert first.partial and first.hosts_failed == list(doomed)
            assert [(warning.code, warning.host)
                    for warning in first.warnings] == \
                [(W_HOST_FAILED, "group-1")]
            assert f"{victim}: record batch failed" in \
                first.warnings[0].detail
            second = cluster.execute(query)
            assert not second.partial
            assert wire.encode_value(second.payload) == want
            assert pool.alive(victim) and pool.stats.decode_errors == 0

    @pytest.mark.parametrize("damage", sorted(QUERY_REPLY_DAMAGE))
    def test_a_reply_contradicting_its_query_condemns_the_group(
            self, damage, monkeypatch):
        with worker_cluster() as cluster:
            pool = cluster.agent_servers
            doomed = pool.group_hosts("group-1")
            rewrite_next_reply(monkeypatch, "group-1",
                               QUERY_REPLY_DAMAGE[damage])
            result = cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 5}))
            assert pool.stats.decode_errors == 1
            assert result.partial and result.hosts_failed == list(doomed)
            assert not pool.alive("group-1") and pool.alive("group-0")


#: Inner-reply damage: a corrupt magic, a wrong version, a corrupt magic
#: on an error frame (its type byte alone reads MSG_ERROR), and a clean
#: error reply.
REPLY_DAMAGE = {
    "magic": lambda frame: b"XX" + frame[2:],
    "version": lambda frame: frame[:2] + bytes([frame[2] ^ 0xFF])
    + frame[3:],
    "error-magic": lambda frame: b"XX" + wire.encode_error("injected")[2:],
    "error": lambda frame: wire.encode_error("injected"),
}


def rewrite_next_reply(monkeypatch, key, rewrite):
    """Replace the entries of the next reply envelope group ``key``'s
    reader thread decodes with ``rewrite(entries)``, as they arrive at the
    controller."""
    decode, armed = wire.decode_group_batch, [True]
    reader = f"pathdump-mux-{key}"

    def decode_group_batch(frame):
        cid, entries = decode(frame)
        if armed and entries and threading.current_thread().name == reader:
            armed.clear()
            entries = rewrite(entries)
        return cid, entries
    monkeypatch.setattr(wire, "decode_group_batch", decode_group_batch)


def damage_next_reply(monkeypatch, key, damage):
    """Replace the first inner frame of group ``key``'s next reply envelope
    with ``REPLY_DAMAGE[damage]`` of it."""
    def rewrite(entries):
        host, reply = entries[0]
        return [(host, REPLY_DAMAGE[damage](reply))] + entries[1:]
    rewrite_next_reply(monkeypatch, key, rewrite)


class TestInnerReplyChecks:
    """An error reply is told by its type byte alone, and every inner
    reply frame's header is still validated by the decoder that reads it:
    for a query and for a monitor tick alike."""

    @staticmethod
    def scatter(cluster, op):
        if op == "query":
            return cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 5}))
        return cluster.run_monitors(1.0)

    @pytest.mark.parametrize("damage", ["magic", "version", "error-magic"])
    @pytest.mark.parametrize("op", ["query", "tick"])
    def test_corrupt_header_condemns_the_group(self, op, damage,
                                               monkeypatch):
        with worker_cluster() as cluster:
            pool = cluster.agent_servers
            doomed = pool.group_hosts("group-1")
            damage_next_reply(monkeypatch, "group-1", damage)
            outcome = self.scatter(cluster, op)
            assert pool.stats.decode_errors == 1
            assert outcome.partial
            assert list(outcome.hosts_failed) == list(doomed)
            assert not pool.alive("group-1")
            assert pool.alive("group-0")

    @pytest.mark.parametrize("op", ["query", "tick"])
    def test_error_reply_raises_naming_the_host(self, op, monkeypatch):
        with GroupAgentPool(["a", "b"], group_count=1) as pool:
            damage_next_reply(monkeypatch, "group-0", "error")
            if op == "query":
                query = Query(Q_GET_FLOWS, {})
                units = [PlanNode(None, children=[PlanNode("a"),
                                                  PlanNode("b")])]
                entries = [(wire.EVERY_HOST, wire.encode_shard_query(
                    wire.encode_query_request(query, None),
                    wire.encode_fold_units(units)))]
                consume = functools.partial(pool.group_query, query=query,
                                            hosts=["a", "b"], units=1)
                named = "agent server group group-0: injected"
            else:
                entries = [(wire.EVERY_HOST, wire.encode_monitor_tick(1.0))]
                consume = pool.group_monitor_tick
                named = "agent server group group-0: injected"
            exchange = pool.send("group-0", entries)
            with pytest.raises(AgentServerError, match=named):
                consume(exchange)
            assert pool.stats.decode_errors == 0
            assert pool.ping("b") == 0  # an error reply is no desync

    def test_an_error_reply_counts_as_the_request_it_answers(self,
                                                            monkeypatch):
        """One error frame answering a one-host probe of a three-host
        group counts the one frame the probe sent, not the group's
        width."""
        with GroupAgentPool(["a", "b", "c"], group_count=1) as pool:
            pool.reset_stats()
            damage_next_reply(monkeypatch, "group-0", "error")
            with pytest.raises(AgentServerError, match="injected"):
                pool.query("a", Query(Q_GET_FLOWS, {}))
            assert pool.stats.frames_sent == pool.stats.frames_received == 1


#: Group-1's tick reply, rewritten to contradict the tick it answers: an
#: entry too many or too few, the wrong host echo, a truncated alarm
#: batch, an alarm for another group's host, the shard's alarms out of
#: shard order.
TICK_REPLY_DAMAGE = {
    "extra-entry": lambda entries: entries + entries,
    "no-entry": lambda entries: [],
    "wrong-echo": lambda entries: [("server-3", entries[0][1])],
    "truncated-batch": lambda entries: [(entries[0][0],
                                         entries[0][1][:-1])],
    "foreign-host": lambda entries: [(entries[0][0], wire.encode_alarm_batch(
        [dataclasses.replace(alarm, host="server-0")
         for alarm in wire.decode_alarm_batch(entries[0][1])]))],
    "out-of-order": lambda entries: [(entries[0][0], wire.encode_alarm_batch(
        wire.decode_alarm_batch(entries[0][1])[::-1]))],
}


class TestGroupAddressedEntries:
    """An entry addressed to every host of a worker (``wire.EVERY_HOST``):
    only a tick, a re-open or a shard query may be, its reply is checked
    like any other, and a tick answers an ingest failure latched anywhere
    in the shard."""

    def test_any_other_frame_type_is_answered_with_an_error_frame(self):
        from test_wire import _golden_frames, _msg_types
        addressable = (wire.MSG_MONITOR_TICK, wire.MSG_MONITOR_REOPEN,
                       wire.MSG_SHARD_QUERY)
        frames = [frame for frame, _decoder, _decoded
                  in _golden_frames().values()
                  if wire.frame_type(frame) not in addressable]
        assert len({wire.frame_type(frame) for frame in frames}) == \
            len(_msg_types()) - len(addressable)
        with GroupAgentPool(["a", "b"], group_count=1) as pool:
            pool.add_records("a", sample_records("a"))
            exchange = pool.send("group-0", [(wire.EVERY_HOST, frame)
                                             for frame in frames])
            replies, _reply_bytes, _sent = pool._receive(exchange)
            assert [host for host, _reply in replies] == \
                [wire.EVERY_HOST] * len(frames)
            for frame, (_host, reply) in zip(frames, replies):
                assert wire.decode_error(reply) == (
                    f"message type {wire.frame_type(frame)} cannot be "
                    f"addressed to every host")
            # None was served: no reset, no shutdown, no sleep.
            assert pool.ping("a") == 5 and pool.alive("a")
            assert pool.stats.decode_errors == 0

    @pytest.mark.parametrize("damage", sorted(TICK_REPLY_DAMAGE))
    def test_a_reply_contradicting_its_tick_condemns_the_group(
            self, damage, monkeypatch):
        with worker_cluster(feed=feed_workload) as cluster:
            pool = cluster.agent_servers
            doomed = pool.group_hosts("group-1")
            rewrite_next_reply(monkeypatch, "group-1",
                               TICK_REPLY_DAMAGE[damage])
            sweep = cluster.run_monitors(1.0)
            assert pool.stats.decode_errors == 1
            assert sweep.partial and list(sweep.hosts_failed) == list(doomed)
            assert {alarm.host for alarm in sweep} == \
                set(pool.group_hosts("group-0"))
            assert not pool.alive("group-1") and pool.alive("group-0")

    @pytest.mark.parametrize("group_count", [1, GROUPS])
    def test_a_latched_ingest_error_fails_the_group_and_loses_no_alarm(
            self, group_count, serial_alarm_streams):
        """One host's record batch is corrupt, so its ingest failure is
        latched: the next sweep's tick answers it for the whole group - no
        check runs, no flow latches - and the sweep after delivers every
        alarm of the group.  The two sweeps' stream is serial's."""
        want_sweep, _piggybacked = serial_alarm_streams
        with worker_cluster(group_count=group_count,
                            feed=feed_workload) as cluster:
            pool = cluster.agent_servers
            last = pool.group_keys()[-1]
            doomed = pool.group_hosts(last)
            victim = doomed[1]
            pool._post(victim, wire.encode_record_batch(
                sample_records(victim))[:-1])
            first = cluster.run_monitors(1.0)
            assert first.partial and list(first.hosts_failed) == list(doomed)
            assert [(warning.code, warning.host)
                    for warning in first.warnings] == \
                [(W_HOST_FAILED, last)]
            assert f"{victim}: record batch failed" in \
                first.warnings[0].detail
            assert {alarm.host for alarm in first} == \
                set(cluster.hosts) - set(doomed)
            second = cluster.run_monitors(1.0)
            assert not second.partial
            assert {alarm.host for alarm in second} == set(doomed)
            assert wire.encode_alarm_batch(list(first) + list(second)) == \
                want_sweep
            assert cluster.run_monitors(2.0) == []
            assert pool.alive(victim) and pool.stats.decode_errors == 0


class TestIngestMirror:
    def test_ingest_after_start_reaches_workers(self, fresh_cluster):
        host = fresh_cluster.hosts[0]
        agent = fresh_cluster.agent(host)
        before = fresh_cluster.agent_servers.ping(host)
        flow = FlowId("newcomer", host, 5555, 80, PROTO_TCP)
        agent.ingest_path_record(PathFlowRecord(
            flow, ("newcomer", "leaf-0", host), 100.0, 100.5, 4242, 3))
        assert fresh_cluster.agent_servers.ping(host) == before + 1
        result = fresh_cluster.execute(Query(Q_GET_FLOWS, {}), hosts=[host])
        assert any(flow_id == flow for flow_id, _ in result.payload)
        assert result.mode in (MODE_PROCESS, MODE_SOCKET)

    def test_mirror_detached_after_stop(self, fresh_cluster):
        host = fresh_cluster.hosts[0]
        fresh_cluster.stop_agent_servers()
        assert fresh_cluster.agent(host).record_sink is None
        assert fresh_cluster.agent_servers is None
        assert fresh_cluster.mode == MODE_SERIAL
        # Queries still work (local agents kept everything via dual-write).
        result = fresh_cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 5}))
        assert result.payload

    def test_ingest_survives_dead_worker(self, fresh_cluster):
        """A dead worker must not break the *local* ingest path: the
        simulator keeps running and the mirror detaches - on the ingest
        call when the connection is already known dead, else at the next
        flush point (queries report the dead host as partial, as
        elsewhere)."""
        host = fresh_cluster.hosts[0]
        agent = fresh_cluster.agent(host)
        kill_and_wait(fresh_cluster.agent_servers, host)
        before = agent.tib.record_count()
        record = late_record(host)
        for _ in range(3):  # queued, or refused at once: never raised
            agent.ingest_path_record(record)
        assert agent.tib.record_count() == before + 1
        result = fresh_cluster.execute(Query(Q_GET_FLOWS, {}))  # flushes
        assert result.partial and host in result.hosts_failed
        assert agent.record_sink is None  # mirror detached itself
        agent.ingest_path_record(record)  # and ingest goes on locally


def late_record(host, port=777, nbytes=10):
    return PathFlowRecord(FlowId("late", host, port, 80, PROTO_TCP),
                          ("late", "leaf-0", host), 50.0, 50.5, nbytes, 1)


class TestOutbox:
    """The deferred mirror: fire-and-forget frames wait in their
    connection's outbox, write-combined, and leave ahead of the next
    request - observably nothing but fewer envelopes."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_read_your_writes_without_a_barrier(self, shape,
                                                make_pathdump_deployment):
        """Every kind of ingest, interleaved across hosts with queries and
        ticks and never an explicit barrier: after every step payloads and
        the alarm stream are byte-identical to a serial twin fed the same
        ops.  (A flip to serial and back leaves a non-empty outbox on the
        live connections - pathbench's ``verify`` does that every run.)"""
        mode, group_count = shape
        _, _, serial_fabric, serial, _ = make_pathdump_deployment()
        _, _, worker_fabric, worker, _ = make_pathdump_deployment(
            group_count=group_count)
        queries = [(Query(Q_GET_FLOWS, {}), MECHANISM_DIRECT),
                   (Query(Q_TOP_K_FLOWS, {"k": 50}), MECHANISM_MULTILEVEL),
                   (Query(Q_POOR_TCP_FLOWS, {}), MECHANISM_DIRECT)]
        clock = [0.0]

        def check(step):
            for query, mechanism in queries:
                got = worker.execute(query, mechanism=mechanism)
                want = serial.execute(query, mechanism=mechanism)
                assert not got.partial and not got.warnings, step
                assert wire.encode_value(got.payload) == \
                    wire.encode_value(want.payload), (step, query.name)
            clock[0] += 1.0
            assert wire.encode_alarm_batch(
                list(worker.run_monitors(clock[0]))) == \
                wire.encode_alarm_batch(
                    list(serial.run_monitors(clock[0]))), step

        def both(op):
            op(serial, serial_fabric)
            op(worker, worker_fabric)

        try:
            worker.configure_executor(mode=mode)
            hosts = worker.hosts
            a, b, c, d = hosts[0], hosts[5], hosts[10], hosts[15]

            def records(cluster, fabric):
                for n, host in enumerate((a, b, a, c, a)):
                    record = late_record(host, port=700 + n)
                    cluster.agent(host).ingest_path_record(record)
                    record.bytes += 1_000_000  # the caller's to mutate
            both(records)
            check("records")

            def observations(cluster, fabric):
                for n, host in enumerate((a, d, a)):
                    cluster.agent(host).monitor.observe_flow(
                        FlowId(host, b, 41_000 + n, 80, PROTO_TCP),
                        retransmissions=6, consecutive=4, when=float(n))
            both(observations)
            check("observations")  # the tick raises their alarms

            def packets(cluster, fabric):
                for seq in range(3):  # the FIN evicts inline
                    fabric.inject(make_tcp_packet(a, d, seq=seq,
                                                  fin=seq == 2))
                for seq in range(2):  # these idle out at the flush
                    fabric.inject(make_tcp_packet(b, c, seq=seq))
                cluster.agent(c).flush()
            both(packets)
            check("packets")

            def mixed(cluster, fabric):
                # record / observation / record on one host: three kinds
                # in a row, nothing to combine, order kept
                agent = cluster.agent(a)
                agent.ingest_path_record(late_record(a, port=800))
                agent.monitor.observe_flow(
                    FlowId(a, c, 42_000, 80, PROTO_TCP),
                    retransmissions=9, consecutive=9, when=9.0)
                agent.ingest_path_record(late_record(a, port=800))
                cluster.reset_stats()  # re-opens alerting: seeds + flush
            both(mixed)
            check("mixed")

            worker.configure_executor(mode=MODE_SERIAL)
            both(records)  # mirrored while the workers idle
            worker.run_monitors(50.0), serial.run_monitors(50.0)
            worker.configure_executor(mode=mode)
            check("after the mode flips")
            for host in hosts:
                assert worker.agent_servers.ping(host) == \
                    serial.agent(host).tib.record_count()
            assert worker.agent_servers.stats.decode_errors == 0
        finally:
            serial.close()
            worker.close()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_burst_costs_one_flush_envelope(self, shape):
        """K ingests over the M hosts of one group, then one query on that
        group: two envelopes (flush + request), M + |targets| frames."""
        with worker_cluster(*shape) as cluster:
            pool = cluster.agent_servers
            members = list(pool.group_hosts("group-0"))
            pool.reset_stats()
            for round_ in range(3):
                for host in members:
                    cluster.agent(host).ingest_path_record(
                        late_record(host, port=900 + round_))
            assert pool.stats.envelopes_sent == 0  # all of it deferred
            result = cluster.execute(Query(Q_GET_FLOWS, {}), hosts=members)
            assert not result.partial
            assert pool.stats.envelopes_sent == 2
            assert pool.stats.frames_sent == 2 * len(members)
            assert sum(flow.src_ip == "late" for flow, _ in result.payload) \
                == 3 * len(members)
            # the flush is mirror traffic, not the query's
            assert result.traffic_bytes < \
                pool.stats.bytes_sent + pool.stats.bytes_received

    def test_the_byte_bound_flushes_without_a_request(self):
        with pool_of(["a", "b"]) as pool:
            records = sample_records("a", count=1)
            size = wire.record_wire_bytes(records[0])
            sent = 0
            while pool.stats.envelopes_sent == 0:
                pool.add_records("a", records)
                sent += 1
            assert (sent - 1) * size < OUTBOX_FLUSH_BYTES <= sent * size
            assert pool.stats.frames_sent == 1  # one combined batch
            assert OUTBOX_FLUSH_BYTES <= pool.stats.bytes_sent < \
                OUTBOX_FLUSH_BYTES + 256
            pool.add_records("a", records)  # starts the next outbox
            assert pool.stats.envelopes_sent == 1
            assert pool.ping("a") == 1  # all upserts of one flow key

    def test_a_paper_scale_seed_stays_in_small_envelopes(self):
        """1,024 hosts x 40 records (and one fat host) through one
        connection: every envelope stays within a few flush bounds,
        nowhere near ``MAX_FRAME_BYTES``."""
        sizes = []

        class Recorder(ChaosPolicy):
            def before_send(self, pool, host, frame, reseed=False):
                sizes.append(len(frame))
                return []

        hosts = [f"h-{n}" for n in range(1024)]
        with GroupAgentPool(hosts, group_count=1, chaos=Recorder()) as pool:
            for host in hosts[1:]:
                pool.seed_host(host, WorkerSeed(
                    retention=(30, None), records=sample_records(host, 40),
                    monitor=MonitorSnapshot(host, 1.0, 3, 0, ())))
            pool.seed_host(hosts[0], WorkerSeed(
                records=sample_records(hosts[0], 5_000)))
            states = pool.group_ping_state("group-0")
            assert states[hosts[0]][0] == 5_000
            assert all(states[host][0] == 40 for host in hosts[1:])
        assert len(sizes) > 20
        assert max(sizes) < 3 * OUTBOX_FLUSH_BYTES < wire.MAX_FRAME_BYTES

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ingest_thread_against_query_threads(self, shape):
        """One thread ingests while others query and tick: envelopes never
        interleave, and at quiescence the workers hold what the local TIBs
        hold."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        errors = []
        with worker_cluster(*shape) as cluster:
            pool = cluster.agent_servers
            stop = threading.Event()

            def ingest():
                for n in range(400):
                    host = cluster.hosts[n % NUM_HOSTS]
                    cluster.agent(host).ingest_path_record(
                        late_record(host, port=1_000 + n % 97, nbytes=n))
                stop.set()

            def ask():
                try:
                    while not stop.is_set():
                        result = cluster.execute(Query(Q_GET_FLOWS, {}))
                        assert not result.partial and not result.warnings
                        cluster.run_monitors(1.0)
                except Exception as error:  # surfaced below
                    errors.append(error)
                    stop.set()

            threads = [threading.Thread(target=ingest)] + \
                [threading.Thread(target=ask) for _ in range(3)]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            for host in cluster.hosts:
                assert pool.ping(host) == \
                    cluster.agent(host).tib.record_count()
            serial = wire.encode_value(
                cluster.execute(Query(Q_GET_FLOWS, {})).payload)
            cluster.configure_executor(mode=MODE_SERIAL)
            assert wire.encode_value(
                cluster.execute(Query(Q_GET_FLOWS, {})).payload) == serial
            assert pool.stats.decode_errors == 0

    @pytest.mark.parametrize("shape", FAILURE_SHAPES)
    def test_kill_with_a_full_outbox_unsupervised(self, shape):
        """Writes still in the outbox of a connection that dies are lost
        to that worker for good: each host that had any detaches once -
        on the ingest call if the death was already known, else at the
        failed flush - counted and warned; local ingest never raises."""
        with worker_cluster(*shape) as cluster:
            pool = cluster.agent_servers
            members = list(pool.group_hosts("group-0"))
            survivor = pool.group_hosts("group-1")[0]
            for host in members + [survivor]:
                cluster.agent(host).ingest_path_record(late_record(host))
            kill_and_wait(pool, "group-0")
            for host in members:  # dead or not yet known dead: no raise
                cluster.agent(host).ingest_path_record(
                    late_record(host, port=778))
            result = cluster.execute(Query(Q_GET_FLOWS, {}))
            assert sorted(result.hosts_failed) == sorted(members)
            detached = [w.host for w in result.warnings
                        if w.code == W_MIRROR_DETACHED]
            assert sorted(detached) == sorted(members)
            assert pool.stats.mirror_detaches == len(members)
            for host in members:
                agent = cluster.agent(host)
                assert agent.record_sink is None
                assert agent.monitor.observation_sink is None
                agent.ingest_path_record(late_record(host, port=779))
            assert cluster.agent(survivor).record_sink is not None
            assert pool.ping(survivor) == \
                cluster.agent(survivor).tib.record_count()
            again = cluster.execute(Query(Q_GET_FLOWS, {}))
            assert not [w for w in again.warnings
                        if w.code == W_MIRROR_DETACHED]
            assert pool.stats.mirror_detaches == len(members)

    @pytest.mark.parametrize("shape", FAILURE_SHAPES)
    def test_kill_with_a_full_outbox_supervised(self, shape):
        """Supervised, the dead connection's outbox is dropped, never
        re-sent: the restart re-seeds from the local TIBs, which already
        hold every buffered write - no loss, no double count."""
        with worker_cluster(*shape, supervisor=Supervisor(FAST)) as cluster:
            cluster.configure_executor(retries=1)
            pool = cluster.agent_servers
            members = list(pool.group_hosts("group-0"))
            for host in members:
                cluster.agent(host).ingest_path_record(late_record(host))
            kill_and_wait(pool, "group-0")
            for host in members:
                cluster.agent(host).ingest_path_record(late_record(host))
            result = cluster.execute(Query(Q_GET_FLOWS, {}))
            assert not result.partial
            assert pool.stats.restarts == 1
            assert pool.stats.mirror_detaches == 0
            for host in members:
                agent = cluster.agent(host)
                assert agent.record_sink is not None
                assert pool.ping(host) == agent.tib.record_count()
            cluster.configure_executor(mode=MODE_SERIAL)
            assert wire.encode_value(result.payload) == wire.encode_value(
                cluster.execute(Query(Q_GET_FLOWS, {})).payload)


class TestLocalFallback:
    def test_monitor_backed_query_runs_in_workers(self, fresh_cluster):
        """poor_tcp_flows is served host-side: a dead worker makes the
        query partial instead of silently falling back to the local
        agent."""
        result = fresh_cluster.execute(Query(Q_POOR_TCP_FLOWS, {}))
        assert not result.partial
        victim = fresh_cluster.hosts[0]
        kill_and_wait(fresh_cluster.agent_servers, victim)
        result = fresh_cluster.execute(Query(Q_POOR_TCP_FLOWS, {}))
        assert result.partial and victim in result.hosts_failed

    def test_alarm_raising_query_reaches_alarm_bus(self, fresh_cluster):
        # Path conformance raises PC_FAIL alarms via the worker's agent;
        # they ride the encoded reply frames and are dispatched into the
        # controller's alarm bus on receipt.
        query = Query(Q_PATH_CONFORMANCE, {"max_hops": 0})
        result = fresh_cluster.execute(query)
        assert not result.partial
        assert result.payload  # every flow violates max_hops=0
        assert fresh_cluster.alarm_bus.alarms
        # And they really did travel: every PC_FAIL alarm names a worker
        # host, and none were raised by the in-process agents.
        assert all(a.host in fresh_cluster.hosts
                   for a in fresh_cluster.alarm_bus.alarms)
        assert all(not agent.alarms_raised
                   for agent in fresh_cluster.agents.values())

    def test_custom_handler_with_unencodable_payload(self, fresh_cluster):
        """A payload outside the codec's value set could never cross a
        wire: sizing it raises WireError, which fails every host like any
        other handler error."""
        class Opaque:
            pass

        token = Opaque()
        for agent in fresh_cluster.agents.values():
            agent.engine.register("opaque", lambda a, p: ([token], 0, {}))
        fresh_cluster.engine.register(
            "opaque", lambda a, p: ([token], 0, {}))  # default concat merge
        result = fresh_cluster.execute(Query("opaque", {}))
        assert result.partial
        assert sorted(result.hosts_failed) == sorted(fresh_cluster.hosts)
        assert result.payload == []
        assert any("WireError" in warning.detail
                   for warning in result.warnings)

    def test_custom_handler_runs_locally(self, fresh_cluster):
        for agent in fresh_cluster.agents.values():
            agent.engine.register(
                "record_count",
                lambda agent, params: (agent.tib.record_count(), 0, {}))
        fresh_cluster.engine.register(
            "record_count", lambda agent, params: (0, 0, {}),
            merger=lambda query, payloads: sum(payloads))
        result = fresh_cluster.execute(Query("record_count", {}))
        assert result.payload == sum(
            a.tib.record_count() for a in fresh_cluster.agents.values())

    def test_custom_handler_runs_serially_on_the_calling_thread(
            self, fresh_cluster):
        """The local fallback runs on the serial executor: every handler
        runs on the calling thread, and the deadline is checked after a
        handler returns - a slow one is waited out, then failed as
        ``W_HOST_TIMEOUT``."""
        slow = fresh_cluster.hosts[0]
        threads = set()

        def handler(agent, params):
            threads.add(threading.get_ident())
            if agent.host == slow:
                time.sleep(0.3)
            return 1, 0, {}

        for agent in fresh_cluster.agents.values():
            agent.engine.register("one_each", handler)
        fresh_cluster.engine.register(
            "one_each", lambda agent, params: (0, 0, {}),
            merger=lambda query, payloads: sum(payloads))
        fresh_cluster.configure_executor(timeout_s=0.15)
        started = time.perf_counter()
        result = fresh_cluster.execute(Query("one_each", {}))
        assert time.perf_counter() - started >= 0.3
        assert threads == {threading.get_ident()}
        assert result.partial and result.hosts_failed == [slow]
        assert [w.code for w in result.warnings] == [W_HOST_TIMEOUT]
        assert result.payload == len(fresh_cluster.hosts) - 1


class TestWorkerFailures:
    def test_kill_mid_scatter_matches_dead_agent_path(
            self, fresh_cluster):
        """A worker killed while its query is in flight surfaces exactly
        like dead in-process agents: partial=True, its shard in
        hosts_failed, a W_HOST_FAILED warning naming the worker - and
        everyone else's results intact."""
        victim = fresh_cluster.hosts[2]
        pool = fresh_cluster.agent_servers
        key = group_key(pool, victim)
        shard = list(pool.group_hosts(key))
        # Stall the victim so its query is genuinely in flight when the
        # process dies (the connection read is interrupted by the kill).
        pool.stall(victim, 5.0)
        killer = threading.Timer(0.15, pool.kill, args=(victim,))
        killer.start()
        try:
            started = time.perf_counter()
            result = fresh_cluster.execute(Query(Q_TOP_K_FLOWS,
                                                 {"k": 1000}))
            elapsed = time.perf_counter() - started
        finally:
            killer.cancel()
        assert elapsed < 4.0  # the kill, not the stall, ended the wait
        assert result.partial
        assert result.hosts_failed == shard
        warning = next(w for w in result.warnings
                       if w.code == W_HOST_FAILED)
        assert warning.host == key
        assert "AgentServerError" in warning.detail
        # The survivors' flows are all present, the dead shard's missing.
        keys = {flow_key for _, flow_key in result.payload}
        assert keys and not any(f"|{host}:" in flow_key
                                for flow_key in keys for host in shard)
        assert len(result.payload) == 25 * (NUM_HOSTS - len(shard))

    def test_dead_worker_before_scatter(self, fresh_cluster):
        victim = fresh_cluster.hosts[1]
        kill_and_wait(fresh_cluster.agent_servers, victim)
        result = fresh_cluster.execute(Query(Q_GET_FLOWS, {}),
                                       mechanism=MECHANISM_MULTILEVEL)
        assert result.partial and victim in result.hosts_failed
        assert result.payload  # everyone else still answered

    def test_pool_query_raises_agent_server_error(self, fresh_cluster):
        victim = fresh_cluster.hosts[0]
        pool = fresh_cluster.agent_servers
        pool.kill(victim)
        with pytest.raises(AgentServerError):
            for _ in range(3):  # first send may still hit the OS buffer
                pool.query(victim, Query(Q_GET_FLOWS, {}))
                time.sleep(0.05)

    def test_worker_reports_unknown_query(self, fresh_cluster):
        pool = fresh_cluster.agent_servers
        with pytest.raises(AgentServerError, match="unknown query"):
            pool.query(fresh_cluster.hosts[0], Query("no_such_query", {}))

    def test_missing_agent_still_fails_host(self, fresh_cluster):
        gone = fresh_cluster.hosts[3]
        del fresh_cluster.agents[gone]
        result = fresh_cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 10}))
        assert result.partial and gone in result.hosts_failed


class TestFailureDomain:
    def test_dead_connection_fails_the_whole_shard(self):
        """A group worker killed mid-life: the next scatter reports every
        host of that shard failed - dead-agent semantics, at group
        granularity."""
        with worker_cluster() as cluster:
            pool = cluster.agent_servers
            victim_shard = set(pool.group_hosts("group-1"))
            kill_and_wait(pool, "group-1")
            result = cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 10}))
            assert result.partial
            assert set(result.hosts_failed) == victim_shard
            assert any(w.code == W_HOST_FAILED for w in result.warnings)
            for host in victim_shard:
                assert not pool.healthy(host)
            # unsupervised: stays dead
            again = cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 10}))
            assert set(again.hosts_failed) == victim_shard
            sweep = cluster.run_monitors(1.0)  # expands the group too
            assert sweep.partial and set(sweep.hosts_failed) == victim_shard

    def test_surviving_groups_answer_correctly(self):
        """The partial aggregate equals a serial run over the surviving
        hosts only."""
        with worker_cluster() as cluster:
            pool = cluster.agent_servers
            dead = set(pool.group_hosts("group-0"))
            kill_and_wait(pool, "group-0")
            result = cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 100}))
            survivors = [h for h in cluster.hosts if h not in dead]
            with worker_cluster(MODE_SERIAL) as serial:
                want = serial.execute(Query(Q_TOP_K_FLOWS, {"k": 100}),
                                      hosts=survivors)
            assert wire.encode_value(result.payload) == \
                wire.encode_value(want.payload)


#: Deep enough on 6 hosts for interior nodes: server-0 aggregates
#: server-2/3, server-1 aggregates server-4/5.
TREE_FANOUT = (2, 2)


class TestMultilevelFailureSemantics:
    """A multi-level query fetches per group and folds the tree at the
    controller, so a dead group fails like a direct scatter's leaf - once,
    under its group key - while the fold treats its members as failed
    hosts of the serial walk."""

    @pytest.mark.parametrize("during", [False, True],
                             ids=["killed-before", "killed-during"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_dead_group_is_one_failed_leaf_and_survivors_aggregate(
            self, shape, during):
        query = Query(Q_TOP_K_FLOWS, {"k": 1000})
        with worker_cluster(*shape) as cluster:
            pool = cluster.agent_servers
            key = pool.group_keys()[0]  # holds interior node server-0
            members = pool.group_hosts(key)
            if during:
                # In flight when the process dies: the stall keeps the
                # envelope unanswered until the kill ends the wait.
                pool.stall(members[0], 5.0)
                killer = threading.Timer(0.15, pool.kill, args=(key,))
                killer.start()
            else:
                kill_and_wait(pool, key)
            try:
                started = time.perf_counter()
                result = cluster.execute_multilevel(query,
                                                    fanout=TREE_FANOUT)
                elapsed = time.perf_counter() - started
            finally:
                if during:
                    killer.cancel()
            direct = cluster.execute_direct(query)
        assert elapsed < 4.0  # the kill, not the stall, ended the wait
        failed = [(w.host, w.attempts) for w in result.warnings
                  if w.code == W_HOST_FAILED]
        # One warning for the group - the same one direct gives - and
        # none per member from the fold.
        assert failed == [(key, 1)]
        assert failed == [(w.host, w.attempts) for w in direct.warnings
                          if w.code == W_HOST_FAILED]
        plan_order = AggregationTree(
            cluster.hosts, fanout=TREE_FANOUT).root.spec.hosts
        assert result.partial
        assert result.hosts_failed == [host for host in plan_order
                                       if host in members]
        # Survivors aggregate exactly as in a serial walk that lost the
        # same hosts: an interior node loses only its own partial.
        with worker_cluster(MODE_SERIAL) as serial:
            for host in members:
                del serial.agents[host]
            want = serial.execute_multilevel(query, fanout=TREE_FANOUT)
        assert result.hosts_failed == want.hosts_failed
        assert wire.encode_value(result.payload) == \
            wire.encode_value(want.payload)
        assert result.traffic_bytes == want.traffic_bytes
        assert len(result.payload) == 25 * (NUM_HOSTS - len(members))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_supervised_retry_hides_the_death(self, shape):
        """With a supervisor and one executor retry the fetch restarts the
        dead group behind the failing leaf: zero failed hosts, and the
        answer byte-identical to serial."""
        query = Query(Q_TOP_K_FLOWS, {"k": 1000})
        with worker_cluster(MODE_SERIAL) as serial:
            want = serial.execute_multilevel(query, fanout=TREE_FANOUT)
        with worker_cluster(*shape, supervisor=Supervisor(FAST),
                            retries=1) as cluster:
            pool = cluster.agent_servers
            key = pool.group_keys()[0]
            kill_and_wait(pool, key)
            result = cluster.execute_multilevel(query, fanout=TREE_FANOUT)
        assert not result.partial and result.hosts_failed == []
        assert wire.encode_value(result.payload) == \
            wire.encode_value(want.payload)
        assert result.traffic_bytes == want.traffic_bytes
        assert [w.host for w in result.warnings
                if w.code == W_WORKER_RESTARTED] == [key]


class TestSupervisedRecovery:
    def test_restart_over_reconnect_byte_identical(self):
        """Kill a group worker; the supervisor respawns it on a fresh
        connection, re-seeds it from the local mirrors, and the next query
        answers byte-identically."""
        query = Query(Q_TOP_K_FLOWS, {"k": 50})
        want = reference_payload(query)
        with worker_cluster(supervisor=Supervisor(FAST)) as cluster:
            pool = cluster.agent_servers
            kill_and_wait(pool, "group-1")
            first = cluster.execute(query)   # detects the death, restarts
            assert first.partial
            second = cluster.execute(query)  # fully recovered
            assert not second.partial
            assert wire.encode_value(second.payload) == want
            assert pool.stats.restarts == 1
            assert pool.stats.reconnects == 1
            restarted = [w for w in first.warnings + second.warnings
                         if w.code == W_WORKER_RESTARTED]
            assert restarted and restarted[0].host == "group-1"

    def test_reseed_counts_whole_shard(self):
        """The restart event's re-seed accounting covers every member
        host's records, not just one worker's."""
        records_per_host = 10
        supervisor = Supervisor(FAST)
        with worker_cluster(supervisor=supervisor,
                            records_per_host=records_per_host) as cluster:
            pool = cluster.agent_servers
            shard = pool.group_hosts("group-0")
            kill_and_wait(pool, "group-0")
            cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 5}))
            restarted = [e for e in supervisor.events
                         if e.kind == "restarted"]
            assert restarted
            assert restarted[-1].records == records_per_host * len(shard)

    def test_monitor_state_recovers_too(self):
        """At-most-once alerting survives a group restart: the re-seeded
        monitor carries the latches."""
        with worker_cluster(feed=feed_workload,
                            supervisor=Supervisor(FAST)) as cluster:
            pool = cluster.agent_servers
            assert cluster.run_monitors(1.0)   # alerts, latches both sides
            kill_and_wait(pool, "group-1")
            cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 1}))  # heal
            assert cluster.run_monitors(2.0) == []  # latches survived


class TestConnectionChaos:
    def test_torn_close_mid_frame(self):
        """A worker closing its connection mid-stream-frame (length prefix
        promising more bytes than arrive) surfaces as a decode error,
        kills the worker, and the supervisor recovers byte-identically."""
        query = Query(Q_TOP_K_FLOWS, {"k": 30})
        want = reference_payload(query)
        fault_at = STARTUP_FRAMES + 1
        chaos = ChaosPolicy(close_torn_at_frame={"group-1": fault_at})
        with worker_cluster(chaos=chaos,
                            supervisor=Supervisor(FAST)) as cluster:
            pool = cluster.agent_servers
            cluster.execute(query)   # fault fires on this scatter
            second = cluster.execute(query)
            assert chaos.injected
            assert pool.stats.decode_errors >= 1
            assert pool.stats.restarts >= 1
            assert not second.partial
            assert wire.encode_value(second.payload) == want

    @pytest.mark.parametrize("torn", [True, False])
    def test_close_with_unread_inbound_bytes(self, torn):
        """A unix-socket peer that closes while holding unread inbound
        bytes delivers its last bytes and then ECONNRESET, not EOF: a
        stream torn mid-frame must still be a decode error then, and one
        reset on a frame boundary a plain close."""
        controller, worker = socket.socketpair()
        endpoint = FramedSocket(controller)
        try:
            endpoint.send(wire.encode_ping())  # the worker never reads it
            last = wire.stream_frame(wire.encode_ping())
            worker.sendall(last[:wire.STREAM_PREFIX_BYTES + 2] if torn
                           else last)
            worker.close()
            if not torn:
                assert endpoint.recv() == wire.encode_ping()
            with pytest.raises(wire.WireDecodeError if torn
                               else EndpointClosed):
                endpoint.recv()
        finally:
            endpoint.close()

    def test_stalled_socket(self):
        """The gray failure: the connection is open but nothing moves.
        Only the reply deadline detects it; the worker is replaced."""
        query = Query(Q_TOP_K_FLOWS, {"k": 30})
        want = reference_payload(query)
        fault_at = STARTUP_FRAMES + 1
        chaos = ChaosPolicy(hang_at_frame={"group-0": fault_at},
                            hang_s=30.0)
        with worker_cluster(chaos=chaos, supervisor=Supervisor(FAST),
                            reply_timeout_s=0.3) as cluster:
            pool = cluster.agent_servers
            start = time.perf_counter()
            first = cluster.execute(query)
            assert first.partial          # the stalled group timed out
            assert time.perf_counter() - start < 10.0  # deadline, not hang
            second = cluster.execute(query)
            assert chaos.injected
            assert pool.stats.restarts >= 1
            assert not second.partial
            assert wire.encode_value(second.payload) == want


#: Records each host ingests in :func:`run_kill_schedule`'s burst: enough
#: that group-1's share overflows the outbox flush bound mid-burst.
BURST_RECORDS = 160

#: Group-1's envelopes in :func:`run_kill_schedule` after the startup sync
#: (pinned by ``test_schedule_frame_count``, so the sweep below covers
#: every one of them).
SCHEDULE_FRAMES = 9

#: The schedule's queries, each run direct and then multi-level.
SCHEDULE_QUERIES = [Query(Q_TOP_K_FLOWS, {"k": 12}), Query(Q_GET_FLOWS, {})]


def run_kill_schedule(cluster):
    """The fixed schedule: an ingest burst through the agent APIs (so the
    mirrors carry it), direct and multi-level queries, a monitor sweep,
    ``reset_stats`` and a second sweep.  Returns what it observed:
    ``(wire bytes, hosts failed)`` per step, then the bus's alarm
    stream."""
    for index, host in enumerate(cluster.hosts):
        agent = cluster.agent(host)
        dst = cluster.hosts[(index + 1) % len(cluster.hosts)]
        for n in range(BURST_RECORDS):
            agent.ingest_path_record(PathFlowRecord(
                FlowId(host, dst, 41_000 + n, 80, PROTO_TCP),
                (host, f"leaf-{index // 2}", dst), float(n), n + 0.5,
                700 * (n + 1), n + 1))
        for n in range(2):
            agent.monitor.observe_flow(
                FlowId(host, dst, 42_000 + n, 80, PROTO_TCP),
                retransmissions=6, consecutive=4, when=float(n))
    seen = []
    for mechanism in (MECHANISM_DIRECT, MECHANISM_MULTILEVEL):
        for query in SCHEDULE_QUERIES:
            result = cluster.execute(query, mechanism=mechanism)
            seen.append((wire.encode_value(result.payload),
                         result.hosts_failed))

    def sweep(now):
        alarms = cluster.run_monitors(now)
        seen.append((wire.encode_alarm_batch(list(alarms)),
                     alarms.hosts_failed))

    sweep(30.0)
    cluster.reset_stats()
    sweep(31.0)
    seen.append(wire.encode_alarm_batch(list(cluster.alarm_bus.alarms)))
    return seen


@pytest.fixture(scope="module")
def serial_schedule():
    with QueryCluster(small_topology(NUM_HOSTS)) as serial:
        populate(serial)
        return run_kill_schedule(serial)


def kill_schedule_cluster(chaos):
    return worker_cluster(MODE_SOCKET, GROUPS, supervisor=Supervisor(FAST),
                          chaos=chaos, retries=1)


class TestKillAtEveryFrame:
    """A group worker killed right before *any* envelope of a fixed
    schedule - an ingest flush, a request, the flush ahead of one, a
    sweep's tick, the reset's re-open flush - is restarted once, and
    every answer, sweep and the alarm stream still match a serial run
    byte for byte, with nothing reported failed."""

    def test_schedule_frame_count(self, serial_schedule):
        chaos = ChaosPolicy()
        with kill_schedule_cluster(chaos) as cluster:
            assert run_kill_schedule(cluster) == serial_schedule
            assert chaos.frames_sent["group-1"] == \
                STARTUP_FRAMES + SCHEDULE_FRAMES
            assert cluster.agent_servers.supervisor.events == []

    @pytest.mark.parametrize(
        "frame", range(STARTUP_FRAMES + 1,
                       STARTUP_FRAMES + SCHEDULE_FRAMES + 1))
    def test_kill_at_frame(self, frame, serial_schedule):
        chaos = ChaosPolicy(kill_at_frame={"group-1": frame})
        with kill_schedule_cluster(chaos) as cluster:
            seen = run_kill_schedule(cluster)
            pool = cluster.agent_servers
            assert chaos.injected == [("group-1", f"killed at frame {frame}")]
            assert seen == serial_schedule
            # One restart, and no failed attempt.  (Read off the
            # supervisor: the schedule's reset_stats zeroes the pool's
            # ``stats.restarts``, and a kill at the reset's own flush
            # restarts the worker inside that call.)
            assert [(event.host, event.kind)
                    for event in pool.supervisor.events] == [
                ("group-1", EVENT_RESTARTED)]
            for key in pool.group_keys():
                assert pool._slots[key].conn.proc.is_alive()
                assert pool._slots[key].conn.dead is None


class TestSpawnIsolation:
    def test_concurrent_respawns_keep_each_worker_end_private(
            self, monkeypatch):
        """A forked worker inherits every descriptor open in the parent.
        Two groups respawned at once from two threads - each under its own
        group lock - must not let the second fork inherit the first
        group's child end, or that end outlives the first worker and its
        death never reaches the reader as EOF.  The start step sleeps
        after forking, so the second spawn lands while the parent's copy
        of the first child end is still open unless spawns serialise."""
        forked = []
        start = multiprocessing.process.BaseProcess.start

        def slow_start(process):
            start(process)
            forked.append(process)
            time.sleep(0.5)

        with worker_cluster(MODE_PROCESS) as cluster:
            pool = cluster.agent_servers
            first, second = pool.group_keys()[:2]

            def respawn(key):
                with pool._slots[key].lock:
                    pool._respawn(key)

            monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                                slow_start)
            threads = [threading.Thread(target=respawn, args=(key,))
                       for key in (first, second)]
            threads[0].start()
            deadline = time.monotonic() + 10.0
            while not forked and time.monotonic() < deadline:
                time.sleep(0.005)
            threads[1].start()
            for thread in threads:
                thread.join(10.0)
                assert not thread.is_alive()
            monkeypatch.undo()
            assert pool._slots[first].conn.proc is forked[0]
            pool.kill(first)
            assert pool._slots[first].conn._ended.wait(2.0), \
                "a killed worker's death did not reach its reader as EOF"
            # The other fresh worker serves (empty: nothing re-seeded it).
            assert pool.ping(pool.group_hosts(second)[0]) == 0

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
    def test_workers_exit_when_the_controller_dies(self, tmp_path):
        """A forked worker closes the parent ends it inherited, so when the
        controller is killed outright every worker reads EOF and exits
        (one that kept another group's parent end would wait forever)."""
        pids = tmp_path / "pids"
        script = tmp_path / "controller.py"
        script.write_text(
            "import os, signal, sys\n"
            "from repro.core import GroupAgentPool\n"
            "pool = GroupAgentPool(['a', 'b', 'c'], group_count=3)\n"
            "with open(sys.argv[1], 'w') as out:\n"
            "    out.write(' '.join(str(slot.conn.proc.pid)\n"
            "                       for slot in pool._slots.values()))\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        src = str(pathlib.Path(repro.__file__).parents[1])
        subprocess.run([sys.executable, str(script), str(pids)],
                       env=dict(os.environ, PYTHONPATH=src),
                       stdout=subprocess.DEVNULL, timeout=60)
        workers = [int(pid) for pid in pids.read_text().split()]
        assert len(workers) == 3

        def running(pid):
            try:
                status = pathlib.Path(f"/proc/{pid}/status").read_text()
            except OSError:
                return False
            return "\nState:\tZ" not in status

        deadline = time.monotonic() + 5.0
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.02)
        alive = [pid for pid in workers if running(pid)]
        for pid in alive:
            os.kill(pid, 9)
        assert not alive, "workers outlived their controller"


class TestPoolLifecycle:
    def test_lifecycle(self):
        hosts = [f"h-{i}" for i in range(5)]
        before = set(threading.enumerate())
        with GroupAgentPool(hosts, group_count=2) as pool:
            assert pool.group_keys() == ["group-0", "group-1"]
            # One reader thread per group and nothing else: no accept loop.
            started = set(threading.enumerate()) - before
            assert sorted(thread.name for thread in started
                          if thread.name.startswith("pathdump-")) == [
                "pathdump-mux-group-0", "pathdump-mux-group-1"]
            # Each connection is an unnamed stream pair: no filesystem
            # entry, no port, nothing a stranger could connect to.
            for key in pool.group_keys():
                sock = pool._slots[key].conn.endpoint._sock
                assert sock.family == socket.AF_UNIX
                assert sock.type == socket.SOCK_STREAM
                assert sock.getsockname() == "" and sock.getpeername() == ""
            assert pool.hosts == hosts
            assert pool.ping("h-0") == 0
            for host in hosts:
                assert pool.alive(host) and pool.healthy(host)
            states = pool.group_ping_state("group-0")
            assert set(states) == set(pool.group_hosts("group-0"))
        pool.shutdown()  # idempotent

    def test_standalone_pool_roundtrip(self):
        with pool_of(["a", "b"]) as pool:
            record = PathFlowRecord(FlowId("x", "a", 1, 2, PROTO_TCP),
                                    ("x", "sw", "a"), 0.0, 1.0, 10, 1)
            pool.add_records("a", [record])
            assert pool.ping("a") == 1
            assert pool.ping("b") == 0
            pool.reset("a")
            assert pool.ping("a") == 0
            assert pool.stats.frames_sent >= 4
            with pytest.raises(AgentServerError, match="no agent server"):
                pool.query("nope", Query(Q_GET_FLOWS, {}))

    def test_reset_clears_latched_ingest_error(self):
        """A reset wipes a latched ingest error: the first query after a
        reset must answer from the clean TIB, not replay the old error."""
        with pool_of(["a"]) as pool:
            pool._post("a", b"garbage-frame")  # latches
            pool.reset("a")
            result = pool.query("a", Query(Q_GET_FLOWS, {}))
            assert result.payload == []

    @pytest.mark.parametrize("mode", [MODE_PROCESS, MODE_SOCKET])
    def test_constructor_mode_wires_executor_transport(self, mode):
        cluster = QueryCluster(small_topology(), mode=mode)
        pool = cluster.agent_servers
        assert pool is not None
        # No transport is called: a leaf's work is the real exchange.
        assert cluster.transport is None
        assert cluster.executor.transport is None
        sent = pool.stats.envelopes_sent
        cluster.execute(Query(Q_GET_FLOWS, {}))
        assert pool.stats.envelopes_sent >= sent + len(pool.group_keys())
        cluster.close()
        cluster.close()  # idempotent
        assert cluster.agent_servers is None

    def test_transport_resets_pool_stats(self, fresh_cluster):
        pool = fresh_cluster.agent_servers
        fresh_cluster.execute(Query(Q_GET_FLOWS, {}))
        assert pool.stats.frames_sent > 0
        assert fresh_cluster.rpc.stats.messages > 0
        fresh_cluster.reset_stats()
        assert pool.stats.frames_sent == 0
        assert fresh_cluster.rpc.stats.messages == 0

    def test_failed_startup_sync_does_not_leak_workers(self, monkeypatch):
        cluster = QueryCluster(small_topology())
        populate(cluster, records_per_host=3)
        monkeypatch.setattr(
            GroupAgentPool, "group_ping_state",
            lambda self, key: (_ for _ in ()).throw(
                AgentServerError("sync probe failed")))
        with pytest.raises(AgentServerError):
            cluster.start_agent_servers()
        assert cluster.agent_servers is None
        assert all(a.record_sink is None for a in cluster.agents.values())
        assert all(a.monitor.observation_sink is None
                   for a in cluster.agents.values())
        cluster.close()  # no-op; nothing left behind
