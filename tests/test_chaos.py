"""End-to-end chaos tests: gray failures against the self-healing pool.

A :class:`ChaosPolicy` injects deterministic faults - crash at the Nth
frame (including mid-re-seed), hang without EOF, slow-but-alive replies,
corrupted reply frames - and these tests assert the supervised cluster
recovers to *byte-identical* answers: queries, monitor sweeps and
retention config all survive a worker dying mid-scatter, across serial
and process mode.  Chaos schedules are keyed by group key; under
``mode="process"`` (one host per group) ``server-N`` is ``group-N``.
"""

import time

import pytest

from repro.core import (AgentServerError, MECHANISM_DIRECT,
                        MECHANISM_MULTILEVEL, MODE_PROCESS, MODE_SERIAL,
                        Q_GET_FLOWS, Q_POOR_TCP_FLOWS, Q_TOP_K_FLOWS, Query,
                        QueryCluster, wire)
from repro.core.supervisor import (CORRUPT_BITFLIP, CORRUPT_GARBAGE,
                                   CORRUPT_TRUNCATE, ChaosPolicy,
                                   Supervisor, corrupt_frame)
from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import PathFlowRecord
from test_supervisor import (FAST, STARTUP_FRAMES, kill_and_wait, pool_of,
                             populate, sample_records, seed_of,
                             small_topology)


def supervised_cluster(chaos=None, policy=FAST, records_per_host=25,
                       **kwargs):
    cluster = QueryCluster(small_topology(), supervisor=Supervisor(policy),
                           chaos=chaos, **kwargs)
    populate(cluster, records_per_host=records_per_host)
    return cluster


class TestKillMidScatter:
    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    def test_retry_makes_the_failing_scatter_succeed(self, mechanism):
        """With one executor retry, even the scatter whose worker dies
        mid-flight returns a full, byte-identical payload - direct, or
        multi-level (where the retry re-runs the group fetch)."""
        chaos = ChaosPolicy(kill_at_frame={"group-1": STARTUP_FRAMES + 1})
        query = Query(Q_TOP_K_FLOWS, {"k": 1000})
        with supervised_cluster(chaos=chaos) as cluster:
            reference = wire.encode_value(
                cluster.execute(query, mechanism=mechanism).payload)
            cluster.configure_executor(mode=MODE_PROCESS, retries=1)
            result = cluster.execute(query, mechanism=mechanism)
            assert chaos.injected  # the kill really fired
            assert not result.partial and result.hosts_failed == []
            assert wire.encode_value(result.payload) == reference
            assert cluster.agent_servers.stats.restarts == 1

    def test_repeat_query_byte_identical_across_modes(self):
        """The acceptance property: after a mid-scatter kill and recovery,
        a repeat of the same query matches a never-killed run in every
        execution mode."""
        chaos = ChaosPolicy(kill_at_frame={"group-2": STARTUP_FRAMES + 1})
        query = Query(Q_GET_FLOWS, {})
        with QueryCluster(small_topology()) as pristine:
            populate(pristine)
            never_killed = wire.encode_value(pristine.execute(query).payload)
        with supervised_cluster(chaos=chaos) as cluster:
            cluster.configure_executor(mode=MODE_PROCESS)
            first = cluster.execute(query)  # the kill fires in here
            assert first.partial and "server-2" in first.hosts_failed
            for mode in (MODE_PROCESS, MODE_SERIAL):
                cluster.configure_executor(mode=mode)
                repeat = cluster.execute(query)
                assert not repeat.partial
                assert wire.encode_value(repeat.payload) == never_killed

    def test_monitor_sweep_survives_worker_death(self):
        """A worker that dies before delivering its alarm is restarted
        un-latched: the next sweep re-raises the alarm, and the bus sees
        it exactly once."""
        with supervised_cluster() as cluster:
            cluster.configure_executor(mode=MODE_PROCESS)
            victim = cluster.hosts[0]
            flow = FlowId(victim, "dst", 1, 2, PROTO_TCP)
            cluster.agent(victim).monitor.observe_flow(
                flow, retransmissions=9, consecutive=9, when=1.0)
            kill_and_wait(cluster.agent_servers, victim)
            first = cluster.run_monitors(now=2.0)
            assert first.partial and victim in first.hosts_failed
            assert not [a for a in first if a.flow_id == flow]
            second = cluster.run_monitors(now=2.2)
            assert not second.partial
            raised = [a for a in second if a.flow_id == flow]
            assert len(raised) == 1 and raised[0].host == victim
            # At most once: a third sweep stays silent for this flow.
            third = cluster.run_monitors(now=2.4)
            assert not [a for a in third if a.flow_id == flow]
            assert len([a for a in cluster.alarm_bus.alarms
                        if a.flow_id == flow]) == 1

    def test_kill_during_mirror_ingest_keeps_both_sides_identical(self):
        """A worker killed at the flush that carries a mirrored ingest
        batch: the local write already happened and the ingest call had
        long returned; the dead connection's outbox is dropped, the
        restart re-seeds the batch from the local TIB, and the mirror
        stays attached without double-counting."""
        chaos = ChaosPolicy(kill_at_frame={"group-0": STARTUP_FRAMES + 1})
        with supervised_cluster(chaos=chaos, records_per_host=5) as cluster:
            cluster.configure_executor(mode=MODE_PROCESS)
            victim = "server-0"
            agent = cluster.agent(victim)
            flow = FlowId("late", victim, 777, 80, PROTO_TCP)
            agent.ingest_path_record(PathFlowRecord(
                flow, ("late", "leaf-0", victim), 50.0, 50.5, 10, 1))
            pool = cluster.agent_servers
            assert not chaos.injected  # buffered: nothing was sent yet
            with pytest.raises(AgentServerError):
                pool.ping(victim)  # the flush ahead of it is the killed frame
            assert chaos.injected and pool.stats.restarts == 1
            assert pool.stats.mirror_detaches == 0
            assert agent.record_sink is not None
            # The buffered batch is in the worker exactly once.
            assert pool.ping(victim) == agent.tib.record_count() == 6


class TestRetentionSurvival:
    def test_kill_during_retention_config(self):
        """A worker killed while the retention cap is being shipped (at
        the flush that carries it): the restart replays the (already
        locally applied) cap, so worker and local tiers stay identical."""
        chaos = ChaosPolicy(kill_at_frame={"group-3": STARTUP_FRAMES + 1})
        with supervised_cluster(chaos=chaos) as cluster:
            cluster.configure_executor(mode=MODE_PROCESS)
            cluster.configure_retention(max_records=10)
            pool = cluster.agent_servers
            with pytest.raises(AgentServerError):
                pool.ping("server-3")  # flushes the cap: the killed frame
            assert chaos.injected and pool.stats.restarts == 1
            for host in cluster.hosts:
                local = cluster.agent(host).tib.tier_stats()
                remote = pool.tier_stats(host)
                assert remote["hot_records"] == local["hot_records"] == 10
                assert remote["cold_records"] == local["cold_records"]
                assert remote["total_records"] == \
                    cluster.agent(host).tib.total_record_count()
            # And queries over the re-seeded two-tier TIB still match.
            reference = None
            for mode in (MODE_SERIAL, MODE_PROCESS):
                cluster.configure_executor(mode=mode)
                payload = wire.encode_value(
                    cluster.execute(Query(Q_GET_FLOWS, {})).payload)
                reference = reference or payload
                assert payload == reference

    def test_kill_during_reseed_consumes_an_attempt(self):
        """A fresh worker killed *mid-re-seed* (here: at the retention
        frame of the replay) fails that attempt; the next attempt
        completes and the worker still honors the cap."""
        chaos = ChaosPolicy(kill_at_reseed_frame={"group-1": 1})
        with supervised_cluster(chaos=chaos) as cluster:
            cluster.configure_retention(max_records=10)  # before start
            cluster.configure_executor(mode=MODE_PROCESS)
            victim = "server-1"
            pool = cluster.agent_servers
            kill_and_wait(pool, victim)
            with pytest.raises(AgentServerError):
                pool.ping(victim)
            supervisor = cluster.supervisor
            kinds = [e.kind for e in supervisor.events
                     if e.host == "group-1"]
            assert kinds == ["restart_failed", "restarted"]
            assert supervisor.restart_count("group-1") == 2
            stats = pool.tier_stats(victim)
            assert stats["hot_records"] == 10
            assert stats["total_records"] == \
                cluster.agent(victim).tib.total_record_count()


class TestGrayWorkerFaults:
    def test_hang_without_eof_recovers_via_reply_timeout(self):
        """The canonical gray failure: the worker is alive but wedged.  No
        EOF ever comes - only the reply timeout detects it, and the
        supervisor replaces the worker."""
        chaos = ChaosPolicy(hang_at_frame={"group-0": 2}, hang_s=30.0)
        supervisor = Supervisor(
            policy=FAST, seed_source=seed_of({"a": sample_records("a")}))
        with pool_of(["a"], reply_timeout_s=0.2, supervisor=supervisor,
                     chaos=chaos) as pool:
            assert pool.ping("a") == 0  # frame 1
            started = time.monotonic()
            with pytest.raises(AgentServerError, match="did not reply"):
                pool.query("a", Query(Q_GET_FLOWS, {}))  # frame 2: hangs
            assert time.monotonic() - started < 5.0  # timeout, not hang_s
            result = pool.query("a", Query(Q_GET_FLOWS, {}))
            assert len(result.payload) == 5  # re-seeded
            assert pool.stats.restarts == 1

    def test_slow_but_alive_does_not_trigger_supervision(self):
        """Slow replies below the timeout are degraded service, not
        failure: nothing restarts, payloads are full."""
        chaos = ChaosPolicy(slow_reply_s=0.02)
        with supervised_cluster(chaos=chaos, records_per_host=5,
                                reply_timeout_s=5.0) as cluster:
            cluster.configure_executor(mode=MODE_PROCESS)
            result = cluster.execute(Query(Q_GET_FLOWS, {}))
            assert not result.partial
            assert cluster.agent_servers.stats.restarts == 0
            assert cluster.recovery_report()["restarts"] == 0

    @pytest.mark.parametrize("mode", [CORRUPT_TRUNCATE, CORRUPT_GARBAGE])
    def test_corrupt_reply_is_worker_failure(self, mode):
        """A corrupt reply frame means protocol desync: the worker is
        killed like a timed-out one, counted, and (supervised) replaced."""
        records = sample_records("a")
        chaos = ChaosPolicy(corrupt_reply_at={"group-0": 2},
                            corrupt_mode=mode)
        supervisor = Supervisor(policy=FAST,
                                seed_source=seed_of({"a": records}))
        with pool_of(["a"], supervisor=supervisor, chaos=chaos) as pool:
            pool.add_records("a", records)
            assert pool.ping("a") == 5  # reply 1
            with pytest.raises(AgentServerError, match="undecodable reply"):
                pool.query("a", Query(Q_GET_FLOWS, {}))  # reply 2: corrupt
            assert pool.stats.decode_errors == 1
            assert pool.stats.restarts == 1
            result = pool.query("a", Query(Q_GET_FLOWS, {}))
            assert len(result.payload) == 5

    def test_bitflip_reply_decodes_or_raises_agent_error(self):
        """A single flipped bit may or may not break the decode; the
        contract is it surfaces as a result or AgentServerError - never a
        raw struct/index error, and never a hang: a flip in the envelope's
        correlation id leaves a reply nobody waits for, which is a desync
        like any other (no reply deadline is set here)."""
        for seed in range(8):
            chaos = ChaosPolicy(corrupt_reply_at={"group-0": 1},
                                corrupt_mode=CORRUPT_BITFLIP, seed=seed)
            with pool_of(["a"], chaos=chaos) as pool:
                try:
                    pool.query("a", Query(Q_GET_FLOWS, {}))
                except AgentServerError:
                    assert pool.stats.decode_errors <= 1


class TestUnsupervisedDegradation:
    def test_mirror_detach_is_counted_and_warned(self):
        """Without a supervisor a dead worker's mirror detaches once - on
        the ingest call if the death was already known, else when the
        next query's flush fails; the detach is counted and a
        W_MIRROR_DETACHED warning rides that result, so callers can tell
        degraded from healthy."""
        from repro.core.executor import W_MIRROR_DETACHED
        with QueryCluster(small_topology()) as cluster:
            populate(cluster, records_per_host=3)
            cluster.configure_executor(mode=MODE_PROCESS)
            victim = cluster.hosts[0]
            pool = cluster.agent_servers
            kill_and_wait(pool, victim)
            agent = cluster.agent(victim)
            record = PathFlowRecord(
                FlowId("late", victim, 777, 80, PROTO_TCP),
                ("late", "leaf-0", victim), 50.0, 50.5, 10, 1)
            for _ in range(3):  # queued, or refused at once: never raised
                agent.ingest_path_record(record)
            result = cluster.execute(Query(Q_GET_FLOWS, {}))
            assert agent.record_sink is None
            assert pool.stats.mirror_detaches == 1
            detached = [w for w in result.warnings
                        if w.code == W_MIRROR_DETACHED]
            assert [w.host for w in detached] == [victim]
            assert "stale" in detached[0].detail
            # The warning is drained exactly once.
            again = cluster.execute(Query(Q_GET_FLOWS, {}))
            assert not [w for w in again.warnings
                        if w.code == W_MIRROR_DETACHED]

    def test_poor_tcp_flows_recovers_with_supervision(self):
        """The monitor-backed query that is permanently partial on an
        unsupervised pool (see test_worker_plane) heals here."""
        with supervised_cluster() as cluster:
            cluster.configure_executor(mode=MODE_PROCESS)
            victim = cluster.hosts[0]
            kill_and_wait(cluster.agent_servers, victim)
            first = cluster.execute(Query(Q_POOR_TCP_FLOWS, {}))
            assert first.partial and victim in first.hosts_failed
            second = cluster.execute(Query(Q_POOR_TCP_FLOWS, {}))
            assert not second.partial


class TestCorruptFrame:
    def test_truncate_halves_the_frame(self):
        import random
        frame = wire.encode_ping()
        out = corrupt_frame(frame, CORRUPT_TRUNCATE, random.Random(0))
        assert out == frame[:len(frame) // 2]

    def test_garbage_keeps_length(self):
        import random
        frame = wire.encode_ping()
        out = corrupt_frame(frame, CORRUPT_GARBAGE, random.Random(0))
        assert len(out) == len(frame) and out != frame

    def test_bitflip_changes_exactly_one_bit(self):
        import random
        frame = wire.encode_sleep(1.0)
        out = corrupt_frame(frame, CORRUPT_BITFLIP, random.Random(3))
        assert len(out) == len(frame)
        diff = [bin(a ^ b).count("1") for a, b in zip(frame, out)]
        assert sum(diff) == 1

    def test_unknown_mode_rejected(self):
        import random
        with pytest.raises(ValueError):
            corrupt_frame(b"x", "squash", random.Random(0))
