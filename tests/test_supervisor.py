"""Tests for the agent-plane supervisor: restart-with-recovery semantics.

Covers: the backoff schedule, a standalone pool restarting (and re-seeding)
a killed worker, restart budgets and the circuit breaker, the budget-0
regression lock (a supervised pool with no budget behaves byte-for-byte
like an unsupervised one), reply-timeout-triggered recovery, idempotent
pool teardown, and the cluster-level recovery surface (warnings, counters,
``recovery_report``).  Supervision is keyed by the pool's group key; the
pools here are one worker per host (the ``mode="process"`` shape), so
``server-N``/the N-th host is ``group-N``.
"""

import time

import pytest

from repro.core import (AgentServerError, GroupAgentPool, MECHANISM_DIRECT,
                        MECHANISM_MULTILEVEL, MODE_PROCESS, Q_GET_FLOWS,
                        Query, QueryCluster, wire)
from repro.core.executor import W_WORKER_RESTARTED, W_CIRCUIT_OPEN
from repro.core.supervisor import (EVENT_CIRCUIT_OPEN, EVENT_RESTARTED,
                                   GroupSeed, RestartPolicy, Supervisor,
                                   WorkerSeed)
from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import PathFlowRecord
from repro.topology.graph import ROLE_AGGREGATE, ROLE_EDGE, Topology

NUM_HOSTS = 4


def small_topology(num_hosts=NUM_HOSTS):
    topo = Topology(name=f"mini-{num_hosts}")
    topo.add_switch("spine-0", ROLE_AGGREGATE, index=0)
    tors = (num_hosts + 1) // 2
    for t in range(tors):
        topo.add_switch(f"leaf-{t}", ROLE_EDGE, pod=t, index=t)
        topo.add_link(f"leaf-{t}", "spine-0")
    for h in range(num_hosts):
        host = f"server-{h}"
        topo.add_host(host, pod=h // 2, index=h)
        topo.add_link(host, f"leaf-{h // 2}")
    return topo


def populate(cluster, records_per_host=25):
    hosts = cluster.hosts
    for index, host in enumerate(hosts):
        agent = cluster.agent(host)
        src = hosts[(index + 1) % len(hosts)]
        for flow in range(records_per_host):
            flow_id = FlowId(src, host, 30_000 + flow, 80, PROTO_TCP)
            record = PathFlowRecord(
                flow_id, (src, f"leaf-{index // 2}", host), float(flow),
                flow + 0.5, 1000 * (flow + 1), flow + 1)
            agent.tib.add_record(record)


def sample_records(host, count=5):
    return [PathFlowRecord(FlowId("src", host, 40_000 + i, 80, PROTO_TCP),
                           ("src", "sw", host), float(i), i + 0.5,
                           100 * (i + 1), i + 1)
            for i in range(count)]


def pool_of(hosts, **kwargs):
    """A standalone pool of one worker per host."""
    return GroupAgentPool(hosts, group_count=len(hosts), **kwargs)


def group_key(pool, host):
    """The supervision/chaos key of the worker serving ``host``."""
    return next(key for key in pool.group_keys()
                if host in pool.group_hosts(key))


def seed_of(records_by_host):
    """A ``seed_source`` replaying ``{host: records}`` into any group."""
    return lambda key: GroupSeed(seeds={
        host: WorkerSeed(records=records)
        for host, records in records_by_host.items()})


def kill_and_wait(pool, host, timeout=2.0):
    pool.kill(host)
    deadline = time.monotonic() + timeout
    while pool.alive(host) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not pool.alive(host)


FAST = RestartPolicy(max_restarts=3, backoff_base_s=0.01, backoff_max_s=0.05)

#: Envelopes the startup sync writes to one group, whatever its size: the
#: outbox flush carrying every member's retention cap, snapshot and monitor
#: seed (the test fixtures stay far below the flush bound), then the
#: coalesced barrier ping.  The first post-startup envelope - an outbox
#: flush if anything was mirrored since, else the request itself - lands
#: at this + 1.
STARTUP_FRAMES = 2


class TestRestartPolicy:
    def test_first_attempt_is_free(self):
        assert RestartPolicy().backoff_s(1) == 0.0

    def test_exponential_growth_and_cap(self):
        policy = RestartPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                               backoff_max_s=0.5)
        assert policy.backoff_s(2) == pytest.approx(0.1)
        assert policy.backoff_s(3) == pytest.approx(0.2)
        assert policy.backoff_s(4) == pytest.approx(0.4)
        assert policy.backoff_s(5) == pytest.approx(0.5)  # capped
        assert policy.backoff_s(50) == pytest.approx(0.5)

    def test_budget_zero_means_no_recovery(self):
        supervisor = Supervisor(policy=RestartPolicy(max_restarts=0))
        with pool_of(["a"], supervisor=supervisor) as pool:
            kill_and_wait(pool, "a")
            with pytest.raises(AgentServerError):
                for _ in range(3):  # first send may hit the OS buffer
                    pool.ping("a")
                    time.sleep(0.05)
            assert supervisor.circuit_open("group-0")
            assert supervisor.restart_count("group-0") == 0
            assert pool.stats.restarts == 0
            assert pool.stats.circuit_open == 1


class TestStandaloneRecovery:
    def test_killed_worker_is_restarted_and_reseeded(self):
        records = sample_records("a")
        supervisor = Supervisor(policy=FAST,
                                seed_source=seed_of({"a": records}))
        with pool_of(["a"], supervisor=supervisor) as pool:
            pool.add_records("a", records)
            assert pool.ping("a") == len(records)
            kill_and_wait(pool, "a")
            # The in-flight exchange still fails (its request died with the
            # worker), but the restart completes before the error surfaces.
            with pytest.raises(AgentServerError):
                pool.ping("a")
            # The *next* exchange lands on the re-seeded worker.
            assert pool.ping("a") == len(records)
            assert pool.healthy("a")
            assert pool.stats.restarts == 1
            assert pool.stats.reseed_ms > 0.0
            assert supervisor.restart_count("group-0") == 1
            event = supervisor.events[-1]
            assert event.kind == EVENT_RESTARTED
            assert event.host == "group-0"
            assert event.records == len(records)

    def test_restart_without_seed_source_starts_empty(self):
        supervisor = Supervisor(policy=FAST)
        with pool_of(["a"], supervisor=supervisor) as pool:
            pool.add_records("a", sample_records("a"))
            assert pool.ping("a") == 5
            kill_and_wait(pool, "a")
            with pytest.raises(AgentServerError):
                pool.ping("a")
            assert pool.ping("a") == 0  # fresh worker, no mirror to replay

    def test_reply_timeout_triggers_recovery(self):
        supervisor = Supervisor(policy=FAST)
        with pool_of(["a"], reply_timeout_s=0.1,
                             supervisor=supervisor) as pool:
            pool.stall("a", 5.0)
            with pytest.raises(AgentServerError, match="did not reply"):
                pool.query("a", Query(Q_GET_FLOWS, {}))
            # Unlike the unsupervised pool (where the host is dead forever),
            # the next exchange works: the wedged worker was replaced.
            result = pool.query("a", Query(Q_GET_FLOWS, {}))
            assert result.payload == []
            assert pool.stats.restarts == 1

    def test_budget_exhaustion_opens_the_circuit(self):
        """A seed source that always fails burns the whole budget; the
        circuit opens and later failures stop consuming attempts."""
        def bad_seed(host):
            raise RuntimeError("seed source is broken")

        supervisor = Supervisor(policy=RestartPolicy(
            max_restarts=2, backoff_base_s=0.01, backoff_max_s=0.02),
            seed_source=bad_seed)
        with pool_of(["a"], supervisor=supervisor) as pool:
            kill_and_wait(pool, "a")
            with pytest.raises(AgentServerError):
                pool.ping("a")
            assert supervisor.circuit_open("group-0")
            assert supervisor.open_circuits() == ["group-0"]
            assert supervisor.restart_count("group-0") == 2
            assert not pool.healthy("a")
            assert pool.stats.circuit_open == 1
            kinds = [e.kind for e in supervisor.events]
            assert kinds.count("restart_failed") == 2
            assert kinds[-1] == EVENT_CIRCUIT_OPEN
            # Further failures degrade immediately, without new attempts.
            with pytest.raises(AgentServerError):
                pool.ping("a")
            assert supervisor.restart_count("group-0") == 2

    def test_budget_zero_error_text_matches_unsupervised(self):
        """Regression lock: with the budget at 0, the supervised pool's
        failure is *textually identical* to the unsupervised one."""
        def failure_text(pool):
            kill_and_wait(pool, "a")
            time.sleep(0.05)  # let the connection's reader see the EOF
            last = None
            for _ in range(5):  # the first sends may hit the OS buffer
                try:
                    pool.query("a", Query(Q_GET_FLOWS, {}))
                    time.sleep(0.05)
                except AgentServerError as error:
                    last = str(error)
                    break
            assert last is not None
            return last

        with pool_of(["a"]) as plain:
            baseline = failure_text(plain)
        supervisor = Supervisor(policy=RestartPolicy(max_restarts=0))
        with pool_of(["a"], supervisor=supervisor) as locked:
            degraded = failure_text(locked)
        assert degraded == baseline

    def test_supervisor_reset_closes_circuits(self):
        supervisor = Supervisor(policy=RestartPolicy(max_restarts=0))
        with pool_of(["a"], supervisor=supervisor) as pool:
            kill_and_wait(pool, "a")
            with pytest.raises(AgentServerError):
                pool.ping("a")
            assert supervisor.circuit_open("group-0")
            supervisor.reset()
            assert not supervisor.circuit_open("group-0")
            assert supervisor.events == []
            assert supervisor.restart_count("group-0") == 0

    def test_observers_see_every_event(self):
        seen = []
        supervisor = Supervisor(policy=FAST)
        supervisor.subscribe(lambda pool, host, event: seen.append(event))
        supervisor.subscribe(lambda pool, host, event: None)
        with pool_of(["a"], supervisor=supervisor) as pool:
            kill_and_wait(pool, "a")
            with pytest.raises(AgentServerError):
                pool.ping("a")
        assert [e.kind for e in seen] == [EVENT_RESTARTED]

    def test_shutdown_is_idempotent_and_stops_supervision(self):
        supervisor = Supervisor(policy=FAST)
        pool = pool_of(["a", "b"], supervisor=supervisor)
        pool.shutdown()
        pool.shutdown()  # double shutdown: no-op
        pool.kill("a")   # kill after shutdown: no-op (already dead)
        assert not pool.alive("a")
        # A failure after shutdown must not respawn workers.
        with pytest.raises(AgentServerError):
            pool.ping("a")
        assert pool.stats.restarts == 0
        assert supervisor.restart_count("group-0") == 0

    def test_double_kill_is_idempotent(self):
        with pool_of(["a"]) as pool:
            kill_and_wait(pool, "a")
            pool.kill("a")  # second kill of a dead worker: no-op
            assert not pool.alive("a")


class TestCondemnTheFailedConnection:
    def test_a_stale_connection_is_condemned_without_its_successor(self):
        """Two exchanges fail on one connection, and the first one's
        restart swaps the slot before the second gives its connection up.
        The second kills only the worker its connection was spawned with:
        the fresh worker stays up, its connection open, and no second
        restart is paid."""
        supervisor = Supervisor(policy=FAST)
        with pool_of(["a"], supervisor=supervisor) as pool:
            stale = pool._slots["group-0"].conn
            kill_and_wait(pool, "a")
            with pytest.raises(AgentServerError):
                pool.ping("a")  # fails over to a restarted worker
            fresh = pool._slots["group-0"].conn
            assert fresh is not stale and pool.stats.restarts == 1
            pool.add_records("a", sample_records("a"))
            error = pool._condemn(stale, "a late failure on the old stream")
            assert isinstance(error, AgentServerError)
            assert pool.alive("a") and fresh.dead is None
            with pytest.raises(AgentServerError, match="undecodable"):
                pool._checked_decode(stale, b"\x00", wire.decode_pong)
            assert pool.alive("a") and fresh.dead is None
            assert pool.ping("a") == 5
            assert pool.stats.restarts == 1
            assert supervisor.restart_count("group-0") == 1


class TestClusterRecovery:
    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    def test_restart_surfaces_warning_and_identical_payloads(self,
                                                             mechanism):
        supervisor = Supervisor(policy=FAST)
        with QueryCluster(small_topology(), supervisor=supervisor) as cluster:
            populate(cluster)
            cluster.configure_executor(mode=MODE_PROCESS)
            reference = wire.encode_value(cluster.execute(
                Query(Q_GET_FLOWS, {}), mechanism=mechanism).payload)
            victim = cluster.hosts[0]
            pool = cluster.agent_servers
            kill_and_wait(pool, victim)
            first = cluster.execute(Query(Q_GET_FLOWS, {}),
                                    mechanism=mechanism)
            # No retries configured: the failing scatter is partial, but
            # the restart already happened behind it.
            assert first.partial and victim in first.hosts_failed
            repeat = cluster.execute(Query(Q_GET_FLOWS, {}),
                                     mechanism=mechanism)
            assert not repeat.partial
            assert wire.encode_value(repeat.payload) == reference
            warnings = first.warnings + repeat.warnings
            restarted = [w for w in warnings
                         if w.code == W_WORKER_RESTARTED]
            assert restarted and \
                restarted[0].host == group_key(pool, victim)
            assert "re-seeded" in restarted[0].detail

    def test_recovery_report_counts(self):
        supervisor = Supervisor(policy=FAST)
        with QueryCluster(small_topology(), supervisor=supervisor) as cluster:
            populate(cluster, records_per_host=5)
            cluster.configure_executor(mode=MODE_PROCESS)
            report = cluster.recovery_report()
            assert report["supervised"] and report["restarts"] == 0
            victim = cluster.hosts[1]
            kill_and_wait(cluster.agent_servers, victim)
            cluster.execute(Query(Q_GET_FLOWS, {}))  # triggers the restart
            report = cluster.recovery_report()
            assert report["restarts"] == 1
            assert report["reseed_ms"] > 0.0
            assert report["circuit_open"] == 0
            assert report["open_circuits"] == []
            assert report["restart_events"] == 1
            # The controller exposes the same surface.
            from repro.core import PathDumpController
            controller = PathDumpController(cluster)
            assert controller.recovery_report()["restarts"] == 1

    def test_circuit_open_degrades_to_dead_agent_semantics(self):
        supervisor = Supervisor(policy=RestartPolicy(max_restarts=0))
        with QueryCluster(small_topology(), supervisor=supervisor) as cluster:
            populate(cluster)
            cluster.configure_executor(mode=MODE_PROCESS)
            victim = cluster.hosts[2]
            kill_and_wait(cluster.agent_servers, victim)
            result = cluster.execute(Query(Q_GET_FLOWS, {}))
            assert result.partial and victim in result.hosts_failed
            opened = [w for w in result.warnings if w.code == W_CIRCUIT_OPEN]
            key = group_key(cluster.agent_servers, victim)
            assert opened and opened[0].host == key
            assert "budget" in opened[0].detail
            # Degraded exactly like before supervision existed: every later
            # query keeps reporting the host failed, and no worker returns.
            again = cluster.execute(Query(Q_GET_FLOWS, {}))
            assert again.partial and victim in again.hosts_failed
            report = cluster.recovery_report()
            assert report["circuit_open"] == 1
            assert report["open_circuits"] == [key]

    def test_restarted_worker_keeps_mirror_attached(self):
        """Ingest around a supervised restart reaches the fresh worker:
        a write buffered for the dead one is covered by the re-seed, the
        mirrors are re-attached by the cluster's supervisor callback, and
        later writes flow again."""
        supervisor = Supervisor(policy=FAST)
        with QueryCluster(small_topology(), supervisor=supervisor) as cluster:
            populate(cluster, records_per_host=3)
            cluster.configure_executor(mode=MODE_PROCESS, retries=1)
            victim = cluster.hosts[0]
            pool = cluster.agent_servers
            kill_and_wait(pool, victim)
            agent = cluster.agent(victim)
            for port in (777, 778):
                flow = FlowId("late", victim, port, 80, PROTO_TCP)
                agent.ingest_path_record(PathFlowRecord(
                    flow, ("late", "leaf-0", victim), 50.0, 50.5, 10, 1))
                # the first query is the flush point that meets the death
                assert not cluster.execute(Query(Q_GET_FLOWS, {})).partial
                assert agent.record_sink is not None  # still mirrored
                assert pool.ping(victim) == agent.tib.record_count()
            assert pool.stats.restarts == 1
            assert pool.stats.mirror_detaches == 0
