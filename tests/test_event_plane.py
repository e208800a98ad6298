"""Tests for the host-side event plane: monitors and alarms over the wire.

Covers: alarm-bus semantics (dispatch order, per-reason subscription and
the incrementally maintained per-reason index), at-most-once alerting,
monitor reset/reset_stats accounting, the observation mirror keeping the
worker monitors identical to the local ones, identical alarm streams and
byte-identical monitor-backed query payloads across serial, process and
socket mode, measured alarm wire-byte accounting, a worker killed mid-tick
surfacing like a dead agent, and the event-driven debug apps running
unchanged on top of the bus in every mode.
"""

import random
import threading
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import (AlarmBus, MECHANISM_DIRECT, MECHANISM_MULTILEVEL,
                        MODE_PROCESS, MODE_SERIAL, MODE_SOCKET,
                        Q_PATH_CONFORMANCE, Q_POOR_TCP_FLOWS, Query,
                        QueryCluster, QueryResult, wire)
from repro.core.alarms import Alarm, PC_FAIL, POOR_PERF
from repro.core.cluster import MonitorSweep
from repro.core.executor import W_HOST_FAILED, W_HOST_TIMEOUT
from repro.core.monitor import ActiveMonitor
from repro.core.rpc import RpcChannel
from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import PathFlowRecord
from test_supervisor import kill_and_wait, small_topology

NUM_HOSTS = 4
ALL_MODES = (MODE_SERIAL, MODE_PROCESS, MODE_SOCKET)
#: The hosts in an order that interleaves the two socket shards
#: (server-0/1, server-2/3): a tree walk over it is not group-contiguous.
WALK_ACROSS_SHARDS = ["server-0", "server-2", "server-3", "server-1"]


def _flow(src, dst, port):
    return FlowId(src, dst, port, 80, PROTO_TCP)


def feed_workload(cluster, poor_per_host=3, healthy_per_host=2):
    """Records into the TIBs and TCP observations into the monitors.

    Every ingest goes through the agent APIs, so in process mode both
    mirrors (record sink, observation sink) carry it to the workers.
    """
    hosts = cluster.hosts
    for index, host in enumerate(hosts):
        agent = cluster.agent(host)
        dst = hosts[(index + 1) % len(hosts)]
        for n in range(poor_per_host):
            flow = _flow(host, dst, 40_000 + n)
            agent.ingest_path_record(PathFlowRecord(
                flow, (host, f"leaf-{index // 2}", dst), float(n), n + 0.5,
                5000 * (n + 1), n + 1))
            agent.monitor.observe_flow(flow, retransmissions=6,
                                       consecutive=4, when=float(n))
        for n in range(healthy_per_host):
            flow = _flow(host, dst, 50_000 + n)
            agent.monitor.observe_flow(flow, retransmissions=1,
                                       consecutive=1, when=float(n))


def make_cluster(mode, **kwargs):
    cluster = QueryCluster(small_topology(), mode=mode, **kwargs)
    feed_workload(cluster)
    return cluster


def alarm_stream_bytes(alarms):
    return wire.encode_alarm_batch(list(alarms))


class TestAlarmBusSemantics:
    def test_dispatch_order(self):
        """Any-reason subscribers fire before reason-specific ones, each
        group in subscription order."""
        bus = AlarmBus()
        calls = []
        bus.subscribe(lambda a: calls.append("any-1"))
        bus.subscribe(lambda a: calls.append("poor-1"), reason=POOR_PERF)
        bus.subscribe(lambda a: calls.append("any-2"))
        bus.subscribe(lambda a: calls.append("poor-2"), reason=POOR_PERF)
        bus.raise_alarm(Alarm(flow_id=_flow("a", "b", 1), reason=POOR_PERF))
        assert calls == ["any-1", "any-2", "poor-1", "poor-2"]

    def test_per_reason_subscription(self):
        bus = AlarmBus()
        seen = []
        bus.subscribe(seen.append, reason=PC_FAIL)
        bus.raise_alarm(Alarm(flow_id=_flow("a", "b", 1), reason=POOR_PERF))
        pc = Alarm(flow_id=_flow("a", "b", 2), reason=PC_FAIL)
        bus.raise_alarm(pc)
        assert seen == [pc]

    def test_by_reason_index_matches_recompute(self):
        """The incrementally maintained per-reason index always equals a
        from-scratch recomputation (the Collection.estimated_bytes pattern)."""
        bus = AlarmBus()
        reasons = [POOR_PERF, PC_FAIL, POOR_PERF, "custom", PC_FAIL]
        for port, reason in enumerate(reasons):
            bus.raise_alarm(Alarm(flow_id=_flow("a", "b", port),
                                  reason=reason))
        rebuilt = bus.recompute_by_reason()
        for reason in set(reasons):
            assert bus.by_reason(reason) == rebuilt[reason]
            assert bus.count(reason) == len(rebuilt[reason])
        assert bus.count("never-raised") == 0
        assert bus.by_reason("never-raised") == []
        assert bus.count() == len(reasons)
        bus.clear()
        assert bus.count(POOR_PERF) == 0
        assert bus.recompute_by_reason() == {}

    def test_by_reason_returns_a_copy(self):
        bus = AlarmBus()
        bus.raise_alarm(Alarm(flow_id=_flow("a", "b", 1), reason=POOR_PERF))
        bus.by_reason(POOR_PERF).clear()
        assert bus.count(POOR_PERF) == 1


class TestAtMostOnceAlerting:
    def test_repeated_run_check_alerts_once(self):
        monitor = ActiveMonitor("h0")
        flow = _flow("h0", "h1", 1)
        monitor.observe_flow(flow, retransmissions=9, consecutive=5)
        first = monitor.run_check(now=1.0)
        assert [a.flow_id for a in first] == [flow]
        assert monitor.run_check(now=2.0) == []
        assert monitor.run_check(now=3.0) == []
        assert monitor.stats.alerts_raised == 1

    def test_reset_stats_reopens_alerting(self):
        monitor = ActiveMonitor("h0")
        flow = _flow("h0", "h1", 1)
        monitor.observe_flow(flow, retransmissions=9, consecutive=5)
        monitor.run_check(now=1.0)
        monitor.reset_stats()
        assert monitor.stats.alerts_raised == 0
        again = monitor.run_check(now=2.0)  # new measurement interval
        assert [a.flow_id for a in again] == [flow]

    def test_reset_no_longer_leaks_alert_counter(self):
        monitor = ActiveMonitor("h0")
        monitor.observe_flow(_flow("h0", "h1", 1), retransmissions=9,
                             consecutive=5)
        monitor.run_check(now=1.0)
        monitor.reset()
        assert monitor.flows == {}
        assert monitor.stats.alerts_raised == 0  # used to survive the reset

    def test_cluster_reset_stats_resets_monitors(self):
        cluster = make_cluster(MODE_SERIAL)
        cluster.run_monitors(1.0)
        raised = cluster.alarm_bus.count(POOR_PERF)
        assert raised > 0
        assert cluster.run_monitors(2.0) == []  # all latched
        cluster.reset_stats()
        assert all(a.monitor.stats.alerts_raised == 0
                   for a in cluster.agents.values())
        assert len(cluster.run_monitors(3.0)) == raised  # re-alerts


@pytest.fixture()
def process_cluster():
    cluster = make_cluster(MODE_PROCESS)
    yield cluster
    cluster.close()


class TestObservationMirror:
    def test_worker_monitor_state_equals_local(self, process_cluster):
        pool = process_cluster.agent_servers
        for host in process_cluster.hosts:
            local = process_cluster.agent(host).monitor.snapshot()
            assert pool.monitor_state(host) == local

    def test_observation_after_start_reaches_worker(self, process_cluster):
        host = process_cluster.hosts[0]
        agent = process_cluster.agent(host)
        flow = _flow(host, "elsewhere", 60_000)
        agent.monitor.observe_flow(flow, retransmissions=7, consecutive=5,
                                   when=9.0)
        state = process_cluster.agent_servers.monitor_state(host)
        assert state == agent.monitor.snapshot()
        assert any(stats.flow_id == flow for stats in state.flows)

    def test_monitor_seeded_from_pre_start_state(self):
        """State accumulated before process mode starts (including alerted
        latches) is carried over by the snapshot seed."""
        cluster = QueryCluster(small_topology())
        feed_workload(cluster)
        pre = cluster.run_monitors(0.5)
        assert pre and not pre.partial
        cluster.configure_executor(mode=MODE_PROCESS)
        try:
            # The workers inherited the latches: nothing re-alerts.
            assert cluster.run_monitors(1.0) == []
        finally:
            cluster.close()

    def test_dead_worker_detaches_observation_mirror(self, process_cluster):
        """A post fails only once the connection's reader has seen the
        stream end; until then it queues on the outbox like any other.
        So wait for that verdict, then one observation detaches."""
        host = process_cluster.hosts[0]
        agent = process_cluster.agent(host)
        pool = process_cluster.agent_servers
        kill_and_wait(pool, host)
        assert pool._conn_for(host)._ended.wait(5.0)
        agent.monitor.observe_flow(_flow(host, "x", 1),
                                   retransmissions=9, consecutive=9)
        assert agent.monitor.observation_sink is None
        assert agent.monitor.stats_for(_flow(host, "x", 1)) is not None


class TestAlarmStreamIdentity:
    def test_monitor_sweep_identical_across_modes(self):
        """One monitor sweep over the same workload produces byte-identical
        alarm streams (order included) in serial, process and socket
        mode."""
        streams = {}
        buses = {}
        for mode in ALL_MODES:
            with make_cluster(mode) as cluster:
                sweep = cluster.run_monitors(7.5)
                assert not sweep.partial
                streams[mode] = alarm_stream_bytes(sweep)
                buses[mode] = alarm_stream_bytes(cluster.alarm_bus.alarms)
        assert streams[MODE_SERIAL] == streams[MODE_PROCESS]
        assert streams[MODE_SERIAL] == streams[MODE_SOCKET]
        assert buses[MODE_SERIAL] == buses[MODE_PROCESS]
        assert buses[MODE_SERIAL] == buses[MODE_SOCKET]
        assert streams[MODE_SERIAL] != wire.encode_alarm_batch([])

    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    def test_poor_tcp_flows_payload_identical_across_modes(self, mechanism):
        """The monitor-backed built-in executes host-side in the worker
        modes and still returns byte-identical payloads."""
        payloads = {}
        for mode in ALL_MODES:
            with make_cluster(mode) as cluster:
                result = cluster.execute(Query(Q_POOR_TCP_FLOWS, {}),
                                         mechanism=mechanism)
                assert not result.partial
                payloads[mode] = wire.encode_value(result.payload)
        assert payloads[MODE_SERIAL] == payloads[MODE_PROCESS]
        assert payloads[MODE_SERIAL] == payloads[MODE_SOCKET]
        assert payloads[MODE_SERIAL] != wire.encode_value([])

    def test_query_raised_alarms_identical_serial_vs_workers(self):
        """path_conformance's PC_FAIL alarms ride the reply frames in the
        worker modes - the coalesced group envelopes of a multi-level
        fetch included - and land on the bus in the same canonical
        (tree-walk) order the serial in-process run produces."""
        streams = {}
        for mode in (MODE_SERIAL, MODE_PROCESS, MODE_SOCKET):
            with make_cluster(mode, group_count=2) as cluster:
                # The tree names its hosts in pre-order, so over the
                # cluster's (shard) order the walk would be that order.
                # Named out of it, (2, 2) has server-0 aggregate
                # server-2/3, which lie in the other socket shard.
                result = cluster.execute_multilevel(
                    Query(Q_PATH_CONFORMANCE, {"max_hops": 0}),
                    hosts=WALK_ACROSS_SHARDS, fanout=(2, 2))
                assert result.payload and not result.partial
                alarms = cluster.alarm_bus.by_reason(PC_FAIL)
                streams[mode] = alarm_stream_bytes(alarms)
        assert list(dict.fromkeys(alarm.host for alarm in alarms)) == \
            WALK_ACROSS_SHARDS
        assert streams[MODE_SERIAL] == streams[MODE_PROCESS]
        assert streams[MODE_SERIAL] == streams[MODE_SOCKET]

    def test_at_most_once_across_wire_ticks(self, process_cluster):
        first = process_cluster.run_monitors(1.0)
        assert first
        assert process_cluster.run_monitors(2.0) == []
        # The local mirror latched too: flipping back to serial mode does
        # not replay the alarms the controller already received.
        process_cluster.configure_executor(mode=MODE_SERIAL)
        assert process_cluster.run_monitors(3.0) == []

    def test_at_most_once_across_mode_flips(self, process_cluster):
        """A local sweep while the workers are alive pushes its latches to
        them, so flipping back to process mode cannot double-alert."""
        process_cluster.configure_executor(mode=MODE_SERIAL)
        first = process_cluster.run_monitors(1.0)
        assert first and first.mode == MODE_SERIAL
        process_cluster.configure_executor(mode=MODE_PROCESS)
        again = process_cluster.run_monitors(2.0)
        assert again == [] and again.mode == MODE_PROCESS


class TestMeasuredAlarmTraffic:
    def test_sweep_traffic_is_sum_of_encoded_envelopes(self,
                                                       process_cluster):
        """A monitor sweep's traffic is exactly: one tick envelope per
        worker out, plus each worker's measured alarm-batch reply envelope
        (process mode: one envelope per host each way, each holding one
        entry addressed to every host of the worker - here, one)."""
        sweep = process_cluster.run_monitors(4.0)
        assert not sweep.partial
        tick = wire.encode_monitor_tick(4.0, None)
        expected = 0
        for host in process_cluster.hosts:
            host_alarms = [a for a in sweep if a.host == host]
            reply = wire.encode_alarm_batch(host_alarms)
            expected += len(wire.encode_group_batch(
                1, [(wire.EVERY_HOST, tick)]))
            expected += len(wire.encode_group_batch(
                1, [(wire.EVERY_HOST, reply)]))
        assert sweep.traffic_bytes == expected
        assert sweep.mode == MODE_PROCESS

    def test_sweep_traffic_lands_in_rpc_counters(self, process_cluster):
        process_cluster.reset_stats()
        before = process_cluster.rpc.stats.messages
        sweep = process_cluster.run_monitors(5.0)
        # One request and one response leg per host went through the
        # priced channel model.
        assert process_cluster.rpc.stats.messages == \
            before + 2 * len(process_cluster.hosts)
        assert sweep.wall_clock_s > 0.0

    def test_serial_sweep_moves_no_wire_bytes(self):
        cluster = make_cluster(MODE_SERIAL)
        sweep = cluster.run_monitors(4.0)
        assert sweep.traffic_bytes == 0 and sweep.mode == MODE_SERIAL

    def test_piggybacked_alarms_are_in_measured_result_frame(
            self, process_cluster):
        """A worker reply carrying alarms reports the *measured* frame
        length - alarm bytes included - as the result's wire_bytes."""
        pool = process_cluster.agent_servers
        host = process_cluster.hosts[0]
        result = pool.query(host, Query(Q_PATH_CONFORMANCE, {"max_hops": 0}))
        assert result.alarms
        clone = Query(Q_PATH_CONFORMANCE, {"max_hops": 0})
        local = process_cluster.agent(host).execute_query(clone)
        # The local result's alarm list is empty: its count byte only.
        assert result.wire_bytes == local.wire_bytes - 1 + \
            wire.alarms_wire_bytes(result.alarms)


class TestWorkerFailureMidTick:
    def test_kill_mid_tick_matches_dead_agent_surface(self, process_cluster):
        victim = process_cluster.hosts[2]
        pool = process_cluster.agent_servers
        pool.stall(victim, 5.0)
        killer = threading.Timer(0.15, pool.kill, args=(victim,))
        killer.start()
        try:
            started = time.perf_counter()
            sweep = process_cluster.run_monitors(1.0)
            elapsed = time.perf_counter() - started
        finally:
            killer.cancel()
        assert elapsed < 4.0  # the kill, not the stall, ended the wait
        assert sweep.partial
        assert sweep.hosts_failed == [victim]
        warning = next(w for w in sweep.warnings if w.code == W_HOST_FAILED)
        assert warning.host == "group-2"  # the victim's worker
        assert "AgentServerError" in warning.detail
        # Survivors' alarms all arrived; the victim contributed none.
        hosts_alerting = {a.host for a in sweep}
        assert hosts_alerting == set(process_cluster.hosts) - {victim}

    @pytest.mark.parametrize("mode", [MODE_PROCESS, MODE_SOCKET])
    def test_timed_out_tick_alarms_still_reach_the_bus(self, mode):
        """A tick reply the scatter gives up on (per-host timeout) must not
        lose its alarms: the worker already latched the flows, so the late
        reply's alarms are delivered to the bus out of band."""
        cluster = make_cluster(mode, group_count=2)
        try:
            cluster.configure_executor(timeout_s=0.15)
            victim = cluster.hosts[1]
            cluster.agent_servers.stall(victim, 0.5)
            sweep = cluster.run_monitors(1.0)
            assert sweep.partial and victim in sweep.hosts_failed
            assert not any(a.host == victim for a in sweep)
            assert [w.code for w in sweep.warnings] == [W_HOST_TIMEOUT]
            # 3 poor flows per host (feed_workload): the victim's 3 arrive
            # late but are never lost.
            total = 3 * len(cluster.hosts)
            deadline = time.monotonic() + 3.0
            while cluster.alarm_bus.count(POOR_PERF) < total and \
                    time.monotonic() < deadline:
                time.sleep(0.02)
            assert cluster.alarm_bus.count(POOR_PERF) == total
            assert any(a.host == victim
                       for a in cluster.alarm_bus.by_reason(POOR_PERF))
            # The late delivery latched the local mirror too: nothing
            # re-alerts on the next sweep.
            assert cluster.run_monitors(2.0) == []
        finally:
            cluster.close()

    @pytest.mark.parametrize("ending", ["answer", "kill"])
    def test_late_reply_threads_are_bounded(self, ending):
        """With the pool's default ``reply_timeout_s=None``, N back-to-back
        sweeps past one stalled but alive group start at most N late-reply
        threads, and every one exits once the group answers - or once its
        worker is killed (the dead connection wakes every pending
        waiter)."""
        def late_threads():
            return {thread for thread in threading.enumerate()
                    if thread.name == "pathdump-late-reply"}

        sweeps, earlier = 3, late_threads()
        cluster = make_cluster(MODE_SOCKET, group_count=2)
        try:
            pool = cluster.agent_servers
            assert pool.reply_timeout_s is None
            cluster.configure_executor(timeout_s=0.05)
            pool.stall(pool.group_hosts("group-1")[0],
                       2.0 if ending == "answer" else 60.0)
            for index in range(sweeps):
                sweep = cluster.run_monitors(1.0 + index)
                assert [w.code for w in sweep.warnings] == [W_HOST_TIMEOUT]
                assert len(late_threads() - earlier) <= index + 1
            assert len(late_threads() - earlier) == sweeps  # all waiting
            if ending == "kill":
                pool.kill("group-1")
            deadline = time.monotonic() + 10.0
            while late_threads() - earlier and time.monotonic() < deadline:
                time.sleep(0.02)
            assert late_threads() - earlier == set()
        finally:
            cluster.close()

    @pytest.mark.parametrize("mode", [MODE_PROCESS, MODE_SOCKET])
    def test_modelled_latency_never_times_out_a_reply_in_time(self, mode):
        """The worker modes' deadline is the real clock only: a reply that
        landed well inside ``timeout_s`` is not failed afterwards because
        the channel model prices its request leg above the deadline."""
        rpc = RpcChannel(message_latency_s=0.5)
        with make_cluster(mode, group_count=2, rpc=rpc) as cluster:
            cluster.configure_executor(timeout_s=0.3)
            sweep = cluster.run_monitors(1.0)
            assert not sweep.partial and sweep.hosts_failed == []
            assert sweep.warnings == ()
            assert len(sweep) == 3 * len(cluster.hosts)
            assert cluster.alarm_bus.count(POOR_PERF) == len(sweep)
            result = cluster.execute(
                Query(Q_PATH_CONFORMANCE, {"max_hops": 0}))
            assert not result.partial and result.warnings == ()
            assert cluster.alarm_bus.count(PC_FAIL) > 0

    def test_dead_worker_tick_then_recovery_not_required(self,
                                                         process_cluster):
        victim = process_cluster.hosts[0]
        kill_and_wait(process_cluster.agent_servers, victim)
        sweep = process_cluster.run_monitors(1.0)
        assert sweep.partial and victim in sweep.hosts_failed
        assert sweep  # everyone else still alerted


class TestStreamedDelivery:
    """A worker-mode sweep hands each host's alarms to the bus as soon as
    every earlier host's have gone, not after the slowest group."""

    def test_early_groups_do_not_wait_for_a_stalled_one(self):
        stall_s = 0.3
        with make_cluster(MODE_SERIAL) as serial:
            want = alarm_stream_bytes(serial.run_monitors(1.0))
        with make_cluster(MODE_SOCKET, group_count=2) as cluster:
            pool = cluster.agent_servers
            first, second = (pool.group_hosts(key)
                             for key in pool.group_keys())
            stamps = []
            cluster.alarm_bus.subscribe(
                lambda alarm: stamps.append((time.perf_counter(), alarm)))
            pool.stall(second[0], stall_s)
            sweep = cluster.run_monitors(1.0)
            assert not sweep.partial
            assert alarm_stream_bytes(sweep) == want
            assert alarm_stream_bytes(a for _, a in stamps) == want
            early = [at for at, alarm in stamps if alarm.host in first]
            late = [at for at, alarm in stamps if alarm.host in second]
            assert early and late
            assert min(late) - max(early) >= stall_s - 0.1

    @pytest.mark.parametrize("mode", [MODE_PROCESS, MODE_SOCKET])
    def test_a_failing_subscriber_fails_the_sweep_not_a_worker(self, mode):
        """A subscriber's exception propagates out of ``run_monitors`` as
        it does in-process; it is never reported as a failed group."""
        with make_cluster(mode, group_count=2) as cluster:
            def broken(alarm):
                raise RuntimeError("subscriber bug")

            cluster.alarm_bus.subscribe(broken)
            with pytest.raises(RuntimeError, match="subscriber bug"):
                cluster.run_monitors(1.0)
            assert cluster.agent_servers.stats.restarts == 0
            assert all(cluster.agent_servers.healthy(host)
                       for host in cluster.hosts)

    def test_a_subscriber_interrupt_is_not_held_behind_later_groups(self):
        """Only ``Exception`` waits for the final dispatch; an interrupt
        (any ``BaseException``) leaves the sweep at once instead of after
        every stalled group has been consumed."""
        class Interrupt(BaseException):
            pass

        def interrupt(alarm):
            raise Interrupt()

        with make_cluster(MODE_SOCKET, group_count=2) as cluster:
            pool = cluster.agent_servers
            cluster.alarm_bus.subscribe(interrupt)
            pool.stall(pool.group_hosts(pool.group_keys()[1])[0], 1.0)
            started = time.perf_counter()
            with pytest.raises(Interrupt):
                cluster.run_monitors(1.0)
            assert time.perf_counter() - started < 0.7


def random_alarm(rng):
    """Alarms off the monitor's beaten path: strings over 127 bytes,
    non-ASCII text, negative ports, multi-hop paths."""
    def text():
        return "".join(rng.choice("ab-é中 ") for _ in range(
            rng.choice((0, 1, 9, 127, 128, 200))))

    flow = FlowId(text(), text(), rng.randrange(-70_000, 70_000),
                  rng.randrange(-(1 << 40), 1 << 40), rng.choice((6, 17)))
    paths = [tuple(text() for _ in range(rng.randrange(5)))
             for _ in range(rng.choice((0, 0, 1, 3)))]
    return Alarm(flow_id=flow, reason=rng.choice((POOR_PERF, PC_FAIL,
                                                  text())),
                 paths=paths, host=text(), time=rng.uniform(-1e3, 1e9),
                 detail=text())


def reference_alarm_list(reader, refs=None):
    """The alarm list at ``reader``, read field by field with the codec's
    primitives (the layout in ``repro.core.wire``'s "Alarm lists");
    ``refs``, when given, gets ``(start, end, strings defined before)``
    per string ref."""
    strings = []

    def ref():
        start = reader.pos
        number = reader.uvarint()
        if refs is not None:
            refs.append((start, reader.pos, len(strings)))
        if number == 0:
            strings.append(reader.str_())
            return strings[-1]
        if number > len(strings):
            raise wire.WireError(f"undefined string ref {number}")
        return strings[number - 1]

    alarms = []
    for _ in range(reader.uvarint()):
        src, dst, reason, host, detail = ref(), ref(), ref(), ref(), ref()
        flow = FlowId(src, dst, reader.varint(), reader.varint(),
                      reader.varint())
        when = reader.double()
        paths = []
        for _path in range(reader.uvarint()):
            paths.append(tuple(ref() for _node in range(reader.uvarint())))
        alarms.append(Alarm(flow, reason, paths, host, when, detail))
    return alarms


#: Strings the generated alarms draw from, so a list repeats strings far
#: apart as well as next to each other: 150 distinct names (a list that
#: uses them pushes its table past 127 strings - two-byte refs), strings
#: of 128 bytes and more, non-ASCII and empty ones.
WIDE = [f"server-{i}" for i in range(150)]
TEXT = st.one_of(st.sampled_from(WIDE + ["", "é", "中心-9", "x" * 128,
                                         "ab-é中 " * 40]),
                 st.text(max_size=140))
INTS = st.integers(min_value=-(1 << 70), max_value=1 << 70)
ALARMS = st.builds(
    lambda src, dst, ports, reason, paths, host, when, detail: Alarm(
        FlowId(src, dst, *ports), reason, paths, host, when, detail),
    TEXT, TEXT, st.tuples(INTS, INTS, INTS), TEXT,
    st.lists(st.lists(TEXT, max_size=4).map(tuple), max_size=3), TEXT,
    st.floats(allow_nan=False), TEXT)


@st.composite
def alarm_lists(draw):
    alarms = draw(st.lists(ALARMS, max_size=24))
    if draw(st.booleans()):
        # Every WIDE name defined up front, so later refs to them (and to
        # whatever the drawn alarms add) are two bytes long.
        alarms = [Alarm(FlowId(WIDE[i], WIDE[i + 1], i, -i, 6), POOR_PERF,
                        [], WIDE[i + 2]) for i in range(0, 147, 3)] + alarms
    return alarms


PROPERTIES = settings(derandomize=True, max_examples=80, deadline=None)


class TestAlarmBatchDecode:
    @staticmethod
    def _reference(frame):
        _kind, reader = wire.open_frame(frame)
        alarms = reference_alarm_list(reader)
        assert reader.uvarint() == 0 and reader.pos == len(frame)
        return alarms

    def test_one_pass_decode_matches_the_reference_reader(self):
        """``decode_alarm_batch`` reads what the field-by-field reference
        reads, type for type; every cut of the frame is a truncation."""
        rng = random.Random(20261016)
        for _ in range(150):
            alarms = [random_alarm(rng) for _ in range(rng.randrange(8))]
            frame = wire.encode_alarm_batch(alarms)
            decoded = wire.decode_alarm_batch(frame)
            assert decoded == self._reference(frame) == alarms
            for alarm in decoded:
                assert type(alarm.flow_id) is FlowId
                assert type(alarm.paths) is list
            cuts = range(wire.HEADER_BYTES, len(frame))
            for cut in rng.sample(cuts, min(len(cuts), 24)):
                with pytest.raises(wire.WireError, match="truncated"):
                    wire.decode_alarm_batch(frame[:cut])

    @PROPERTIES
    @given(alarm_lists())
    def test_round_trip_and_size(self, alarms):
        frame = wire.encode_alarm_batch(alarms)
        body = frame[wire.HEADER_BYTES:-1]  # less the empty span tail
        assert wire.alarms_wire_bytes(alarms) == len(body)
        decoded = wire.decode_alarm_batch(frame)
        assert decoded == self._reference(frame) == alarms
        assert all(type(path) is tuple for alarm in decoded
                   for path in alarm.paths)
        result = QueryResult(query=Query(Q_PATH_CONFORMANCE), payload=[],
                             wire_bytes=0, host="h", alarms=tuple(alarms))
        assert wire.decode_result(wire.encode_result(result)).alarms == \
            tuple(alarms)
        step = max(1, len(frame) // 64)
        for cut in [*range(wire.HEADER_BYTES, len(frame), step),
                    len(frame) - 1]:
            with pytest.raises(wire.WireError, match="truncated"):
                wire.decode_alarm_batch(frame[:cut])

    @PROPERTIES
    @given(alarm_lists(), st.data())
    def test_a_ref_to_an_undefined_string_is_corruption(self, alarms, data):
        """Rewrite one ref to name a string the list has not defined yet:
        the decode raises, it never returns an alarm."""
        frame = wire.encode_alarm_batch(alarms)
        refs = []
        reference_alarm_list(wire.open_frame(frame)[1], refs)
        assume(refs)
        start, end, defined = data.draw(st.sampled_from(refs))
        number = defined + 1 + data.draw(st.integers(0, 300))
        ref = bytearray()
        while number > 0x7F:
            ref.append((number & 0x7F) | 0x80)
            number >>= 7
        ref.append(number)
        with pytest.raises(wire.WireError, match="string ref"):
            wire.decode_alarm_batch(frame[:start] + bytes(ref) + frame[end:])


class TestDebugAppsAcrossModes:
    """The paper's event-driven apps run unchanged on top of the bus."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_blackhole_app(self, mode):
        from repro.debug.blackhole import run_blackhole_experiment
        result = run_blackhole_experiment(mode=mode, background_flows=20)
        assert result.alarm_raised
        assert result.culprit_covered
        assert result.diagnosis.impacted_subflows >= 1

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_tcp_anomaly_app(self, mode):
        from repro.debug.tcp_anomaly import run_outcast_experiment
        result = run_outcast_experiment(mode=mode)
        assert result.detection_correct

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_path_conformance_app(self, mode):
        from repro.debug.path_conformance import (
            run_path_conformance_experiment)
        result = run_path_conformance_experiment(mode=mode)
        assert result.violation_detected
        assert result.detour_hops >= 2

    @pytest.mark.parametrize("experiment", [
        "run_blackhole_experiment", "run_path_conformance_experiment",
        "run_outcast_experiment", "run_incast_experiment"])
    def test_verdicts_identical_across_modes(self, experiment):
        """Every experiment that takes a ``mode`` reaches the serial
        verdict, evidence included, in both worker modes."""
        import repro.debug
        run = getattr(repro.debug, experiment)
        kwargs = ({"background_flows": 20}
                  if experiment == "run_blackhole_experiment" else {})
        serial = run(mode=MODE_SERIAL, **kwargs)
        for mode in (MODE_PROCESS, MODE_SOCKET):
            assert run(mode=mode, **kwargs) == serial

    @staticmethod
    def _measured(mode):
        """The measurement apps' fixture data (``test_debug_apps.py``),
        ingested through the cluster so the worker mirrors carry it."""
        from repro.topology import FatTreeTopology
        from repro.transport import FlowLevelSimulator
        from repro.workloads import FlowGenerator
        topo = FatTreeTopology(4)
        cluster = QueryCluster(topo, mode=mode, group_count=2)
        flows = FlowGenerator(topo.hosts, seed=9).poisson_per_host(
            duration=0.3)
        cluster.ingest_flow_outcomes(
            FlowLevelSimulator(topo, seed=8).simulate(flows))
        return cluster

    @staticmethod
    def _reads(cluster, receiver, flows):
        """Every non-live debug-app read, as the apps answer it."""
        from repro.debug import (TcpAnomalyDiagnoser, congested_link_flows,
                                 ddos_fan_in, heavy_hitters)
        from repro.debug.load_imbalance import per_path_bytes
        from repro.debug.path_conformance import longest_path
        return {
            "heavy_hitters": heavy_hitters(cluster, 1_000_000),
            "congested": congested_link_flows(
                cluster, ("agg-0-0", "core-0-0"), top=5),
            "ddos": ddos_fan_in(cluster, source_threshold=12),
            "tcp": TcpAnomalyDiagnoser(cluster).diagnose(receiver),
            "spraying": [per_path_bytes(cluster, dst, flow)
                         for dst, flow in flows],
            "conformance": [longest_path(cluster, dst, flow)
                            for dst, flow in flows],
        }

    def test_reads_are_served_by_the_workers(self):
        """With the controller-side replica emptied (not mirrored), every
        non-live read still answers exactly what serial answers with its
        replica intact: the answers come from the workers."""
        serial = self._measured(MODE_SERIAL)
        receiver = serial.hosts[5]
        flows = [(host, record.flow_id) for host in serial.hosts[:4]
                 for record in serial.agent(host).tib.records()[:2]]
        expected = self._reads(serial, receiver, flows)
        assert expected["heavy_hitters"] and expected["congested"]
        assert expected["tcp"].per_sender_throughput_bps
        assert all(expected["spraying"]) and all(expected["conformance"])
        with self._measured(MODE_SOCKET) as cluster:
            for agent in cluster.agents.values():
                agent.tib.clear()
            assert self._reads(cluster, receiver, flows) == expected

    def test_partial_read_is_no_verdict(self):
        """A dead worker group makes a read raise, naming its hosts,
        instead of answering from the rest."""
        from repro.debug import TcpAnomalyDiagnoser, heavy_hitters
        from repro.debug.served import PartialReadError
        with self._measured(MODE_SOCKET) as cluster:
            pool = cluster.agent_servers
            dead = pool.group_hosts("group-1")
            pool.kill("group-1")
            with pytest.raises(PartialReadError, match=dead[0]):
                heavy_hitters(cluster, 1_000_000)
            with pytest.raises(PartialReadError, match=dead[-1]):
                TcpAnomalyDiagnoser(cluster).diagnose(dead[-1])


class TestMonitorSweepType:
    def test_sweep_is_a_list_of_alarms(self):
        sweep = MonitorSweep([Alarm(flow_id=_flow("a", "b", 1),
                                    reason=POOR_PERF)])
        assert isinstance(sweep, list) and len(sweep) == 1
        assert sweep.partial is False and sweep.hosts_failed == []

    def test_controller_tick_returns_sweep(self):
        from repro.core import PathDumpController
        cluster = make_cluster(MODE_SERIAL)
        controller = PathDumpController(cluster)
        alarms = controller.tick(1.0)
        assert isinstance(alarms, MonitorSweep)
        assert controller.stats.alarms_received == len(alarms) > 0
