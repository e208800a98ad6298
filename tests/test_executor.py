"""Tests for the scatter-gather executor, a depth-first fold.

Covers the failure-injecting transport, the ordered merge, and every
partial-failure path: dead agents, per-host timeouts, bounded retries,
lost responses - checked against a brute-force model of the fault
semantics on random plans.
"""

import random
import time

import pytest

from repro.core import (AggregationTree, LoopbackTransport,
                        MECHANISM_DIRECT, MECHANISM_MULTILEVEL, MODE_SERIAL,
                        PlanNode, Q_FLOW_SIZE_DISTRIBUTION, Q_GET_FLOWS,
                        Q_TOP_K_FLOWS, Query, QueryCluster, RpcChannel,
                        ScatterGatherExecutor, TransportError, wire)
from repro.core.agent import PathDumpAgent
from repro.core.executor import (DeadlineExceeded, HostReport, W_HOST_FAILED,
                                 W_HOST_TIMEOUT, W_RESPONSE_LOST, W_RETRIED)
from repro.core.query import QueryEngine
from repro.core.rpc import (MESSAGE_OVERHEAD_BYTES, charge_legs,
                            model_response_time)
from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import PathFlowRecord


# --------------------------------------------------------------------------
# Plain-executor helpers (no cluster): work = look up a value, merge = sum.
# ``run`` merges once per node, over every arrival: ``merge(values)``.
# --------------------------------------------------------------------------
HOSTS = ["h0", "h1", "h2", "h3", "h4", "h5"]
VALUES = {host: index + 1 for index, host in enumerate(HOSTS)}


def flat_plan(hosts=HOSTS):
    return PlanNode(host=None, children=[
        PlanNode(host=host, request_parts=(64,)) for host in hosts])


def tree_plan(hosts=HOSTS):
    """Two-level plan: h0 and h1 are interior, the rest are leaves."""
    return PlanNode(host=None, children=[
        PlanNode(host="h0", request_parts=(64, 16), children=[
            PlanNode(host="h2", request_parts=(64, 8)),
            PlanNode(host="h3", request_parts=(64, 8))]),
        PlanNode(host="h1", request_parts=(64, 16), children=[
            PlanNode(host="h4", request_parts=(64, 8)),
            PlanNode(host="h5", request_parts=(64, 8))])])


def run(executor, plan=None):
    return executor.run(plan or flat_plan(), work=VALUES.__getitem__,
                        merge=sum,
                        response_bytes=lambda value: 8)


class TestTransports:
    def test_channel_batches_request_parts(self):
        rpc = RpcChannel()
        plan = PlanNode(host=None, children=[
            PlanNode(host="h0", request_parts=(128, 32))])
        reports = {"h0": HostReport("h0", attempts=1, request_bytes=160)}
        charge_legs(plan, reports, rpc)
        assert rpc.stats.messages == 1  # one message for both parts
        assert rpc.stats.bytes == 160 + MESSAGE_OVERHEAD_BYTES
        # counted, then priced: one leg of both parts
        assert model_response_time(plan, reports, {}, rpc) == rpc.leg_s(160)
        rpc.send(500)
        assert rpc.stats.messages == 2

    @pytest.mark.parametrize("parts, response", [((10, -1), None),
                                                 ((10,), -1)],
                             ids=["request-part", "response"])
    def test_charge_legs_rejects_negative_sizes(self, parts, response):
        rpc = RpcChannel()
        plan = PlanNode(host=None, children=[
            PlanNode(host="h0", request_parts=parts)])
        reports = {"h0": HostReport("h0", attempts=1,
                                    response_bytes=response)}
        with pytest.raises(ValueError, match="cannot be negative"):
            charge_legs(plan, reports, rpc)
        assert rpc.stats.messages == rpc.stats.bytes == 0

    def test_loopback_drops_first_attempts(self):
        transport = LoopbackTransport(drop_requests={"h0": 2})
        with pytest.raises(TransportError):
            transport.request("h0", (1,))
        with pytest.raises(TransportError):
            transport.request("h0", (1,))
        transport.request("h0", (1,))  # the third attempt is delivered
        assert transport.stats.dropped == 2

    def test_loopback_dead_host_never_delivers(self):
        transport = LoopbackTransport(dead_hosts=["h0"])
        for _ in range(3):
            with pytest.raises(TransportError):
                transport.request("h0", (1,))
        with pytest.raises(TransportError):
            transport.respond("h0", 1)

    def test_loopback_attempt_aware_delay(self):
        seen = []
        transport = LoopbackTransport(
            delay=lambda host, attempt: seen.append((host, attempt)) or 0.0)
        transport.request("h0", (5, 6))
        transport.request("h0", (5, 6))
        assert seen == [("h0", 1), ("h0", 2)]


class TestScatterGather:
    def test_flat_plan_aggregates_all_hosts(self):
        result = run(ScatterGatherExecutor(LoopbackTransport()))
        assert result.value == sum(VALUES.values())
        assert not result.partial

    def test_tree_plan_aggregates_all_hosts(self):
        result = run(ScatterGatherExecutor(LoopbackTransport()), tree_plan())
        assert result.value == sum(VALUES.values())
        assert result.hosts_failed == []

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_model_chains_request_legs_through_tree_levels(self, depth):
        """A leaf cannot start before its parent received the query, and
        sibling legs overlap: a plan ``depth`` hosts deep (three roots,
        fan-out two) costs a request and a response leg per level on its
        deepest path, however many hosts it holds - although the fold sent
        every leg one after another (executions/merges add ~microseconds)."""
        leg = 0.05
        names = iter(range(100))

        def node(level):
            fanout = 2 if level < depth else 0
            return PlanNode(host=f"h{next(names)}", request_parts=(8,),
                            children=[node(level + 1)
                                      for _ in range(fanout)])

        plan = PlanNode(host=None, children=[node(1) for _ in range(3)])
        result = ScatterGatherExecutor(LoopbackTransport()).run(
            plan, work=lambda host: [host],
            merge=lambda values: sum(values, []),
            response_bytes=lambda value: 8)
        assert not result.partial
        assert len(result.value) == len(result.reports) == 3 * (2**depth - 1)
        model = model_response_time(
            plan, result.reports, result.merge_s,
            RpcChannel(message_latency_s=leg, bandwidth_bps=1e12))
        assert 2 * depth * leg < model < (2 * depth + 1) * leg

    def test_model_overlaps_executions_the_fold_ran_in_series(self):
        """Six hosts each execute for ``delay``: the fold's wall clock
        pays all six, the modelled response time about one (the bound,
        half the serial sum, leaves room for a busy box's late wake-ups)."""
        delay = 0.05

        def work(host):
            time.sleep(delay)
            return VALUES[host]

        plan = flat_plan()
        result = ScatterGatherExecutor(LoopbackTransport()).run(
            plan, work, sum)
        assert result.value == sum(VALUES.values())
        assert result.wall_s > delay * len(HOSTS) * 0.9
        model = model_response_time(plan, result.reports, result.merge_s,
                                     RpcChannel(message_latency_s=0.0))
        assert delay <= model < delay * len(HOSTS) / 2

    def test_serial_timeout_contributes_measured_wait(self):
        """A deadline is the real clock: every host's 0.2 s request leg
        blows the 0.1 s deadline, and the wait it measured is what its
        slot contributes to the model."""
        executor = ScatterGatherExecutor(LoopbackTransport(delay=0.2),
                                         timeout_s=0.1)
        plan = flat_plan()
        result = run(executor, plan)
        assert set(result.hosts_failed) == set(HOSTS)  # all exceed 0.1s
        assert {w.code for w in result.warnings} == {W_HOST_TIMEOUT}
        waits = [result.reports[host].exec_s for host in HOSTS]
        assert min(waits) >= 0.2
        model = model_response_time(plan, result.reports, result.merge_s,
                                    RpcChannel())
        assert model >= max(waits)

    def test_traffic_accounts_requests_and_responses(self):
        result = run(ScatterGatherExecutor(LoopbackTransport()))
        # 6 requests of 64 payload bytes + 6 responses of 8 bytes.
        assert result.traffic_bytes == 6 * 64 + 6 * 8

    def test_empty_plan_yields_empty_gather(self):
        executor = ScatterGatherExecutor(LoopbackTransport())
        result = executor.run(PlanNode(host=None), work=lambda host: 1,
                              merge=sum)
        assert result.value is None
        assert not result.partial and result.hosts_failed == []
        assert result.traffic_bytes == 0

    @pytest.mark.parametrize("make_plan", [flat_plan, tree_plan],
                             ids=["flat", "tree"])
    def test_broken_merge_raises_instead_of_hanging(self, make_plan):
        """At the root of a flat plan or at an interior host of a tree,
        a merge that raises ends the run with its error."""
        def merge(values):
            raise TypeError("cannot merge partials")

        executor = ScatterGatherExecutor(LoopbackTransport())
        with pytest.raises(TypeError, match="cannot merge partials"):
            executor.run(make_plan(), VALUES.__getitem__, merge)

    def test_broken_response_bytes_raises_instead_of_hanging(self):
        executor = ScatterGatherExecutor(LoopbackTransport())

        def response_bytes(value):
            raise RuntimeError("unsizeable payload")

        with pytest.raises(RuntimeError, match="unsizeable payload"):
            executor.run(tree_plan(), VALUES.__getitem__,
                         sum, response_bytes=response_bytes)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ScatterGatherExecutor(retries=-1)

    def test_dead_host_yields_partial_result(self):
        executor = ScatterGatherExecutor(
            LoopbackTransport(dead_hosts=["h2"]), retries=1)
        result = run(executor)
        assert result.partial
        assert result.hosts_failed == ["h2"]
        assert result.value == sum(VALUES.values()) - VALUES["h2"]
        warning = next(w for w in result.warnings if w.code == W_HOST_FAILED)
        assert warning.host == "h2" and warning.attempts == 2

    def test_dead_interior_host_loses_its_subtree(self):
        """A dead interior host still forwards nothing up: its children
        answered it, but the subtree's result dies with it, and the other
        subtree survives."""
        executor = ScatterGatherExecutor(
            LoopbackTransport(dead_hosts=["h0"]), retries=1)
        result = run(executor, tree_plan())
        assert result.partial
        assert sorted(result.hosts_failed) == ["h0", "h2", "h3"]
        assert result.value == VALUES["h1"] + VALUES["h4"] + VALUES["h5"]
        assert [w.host for w in result.warnings
                if w.code == W_HOST_FAILED] == ["h0"]

    def test_broken_work_yields_partial_result(self):
        def work(host):
            if host == "h1":
                raise RuntimeError("agent crashed")
            return VALUES[host]

        executor = ScatterGatherExecutor(LoopbackTransport())
        result = executor.run(flat_plan(), work, sum)
        assert result.partial and result.hosts_failed == ["h1"]
        assert "agent crashed" in result.warnings[0].detail

    def test_bounded_retries_recover_dropped_requests(self):
        executor = ScatterGatherExecutor(
            LoopbackTransport(drop_requests={"h3": 1}), retries=1)
        result = run(executor)
        assert not result.partial
        assert result.value == sum(VALUES.values())
        retried = [w for w in result.warnings if w.code == W_RETRIED]
        assert len(retried) == 1 and retried[0].host == "h3"
        assert result.reports["h3"].attempts == 2

    def test_retry_budget_exhaustion_fails_host(self):
        executor = ScatterGatherExecutor(
            LoopbackTransport(drop_requests={"h3": 5}), retries=1)
        result = run(executor)
        assert result.partial and result.hosts_failed == ["h3"]

    def test_serial_timeout_applies_after_the_fact(self):
        slow = LoopbackTransport(
            delay=lambda host, attempt: 0.1 if host == "h4" else 0.0)
        executor = ScatterGatherExecutor(slow, timeout_s=0.05)
        result = run(executor)
        assert result.hosts_failed == ["h4"]
        assert any(w.code == W_HOST_TIMEOUT for w in result.warnings)

    def test_retried_work_failure_counts_first_leg_as_duplicate(self):
        """A request that delivered but whose work failed is overhead once
        the retry succeeds."""
        calls = {}

        def work(host):
            calls[host] = calls.get(host, 0) + 1
            if host == "h2" and calls[host] == 1:
                raise RuntimeError("transient agent failure")
            return VALUES[host]

        executor = ScatterGatherExecutor(LoopbackTransport(), retries=1)
        result = executor.run(flat_plan(), work, sum,
                              response_bytes=lambda value: 8)
        assert not result.partial
        assert result.value == sum(VALUES.values())
        assert result.traffic_bytes == 6 * 64 + 6 * 8
        assert result.duplicate_traffic_bytes == 64

    def test_no_duplicates_without_hedges_or_retries(self):
        result = run(ScatterGatherExecutor(LoopbackTransport()))
        assert result.duplicate_traffic_bytes == 0

    def test_non_transport_error_in_respond_raises(self):
        class BuggyTransport(LoopbackTransport):
            def respond(self, host, payload_bytes):
                raise OSError("socket exploded")

        executor = ScatterGatherExecutor(BuggyTransport())
        with pytest.raises(OSError, match="socket exploded"):
            run(executor)

    def test_lost_response_drops_subtree(self):
        executor = ScatterGatherExecutor(
            LoopbackTransport(drop_responses={"h0": 5}))
        result = run(executor, tree_plan())
        assert result.partial
        # h0's subtree (h0, h2, h3) is lost; h1's subtree survives.
        assert set(result.hosts_failed) == {"h0", "h2", "h3"}
        assert result.value == sum(VALUES[h] for h in ("h1", "h4", "h5"))
        assert any(w.code == W_RESPONSE_LOST for w in result.warnings)

    def test_all_hosts_failed_returns_none(self):
        executor = ScatterGatherExecutor(
            LoopbackTransport(dead_hosts=HOSTS))
        result = run(executor)
        assert result.value is None
        assert result.partial and set(result.hosts_failed) == set(HOSTS)

    @pytest.mark.parametrize("make_plan", [flat_plan, tree_plan],
                             ids=["flat", "tree"])
    def test_deadline_counts_from_first_attempt(self, make_plan):
        """A host's deadline runs from its first attempt: two 0.2 s
        attempts (the first raises) blow a 0.3 s deadline that either
        would meet alone, and the timeout names both attempts - whether
        the host answers the root or a parent host."""
        calls = []

        def work(host):
            if host == "h3":
                calls.append(host)
                time.sleep(0.2)
                if len(calls) == 1:
                    raise RuntimeError("transient agent failure")
            return VALUES[host]

        executor = ScatterGatherExecutor(timeout_s=0.3, retries=1)
        result = executor.run(make_plan(), work, sum)
        assert result.hosts_failed == ["h3"]
        assert result.value == sum(VALUES.values()) - VALUES["h3"]
        assert [(w.code, w.host, w.attempts) for w in result.warnings] == \
            [(W_HOST_TIMEOUT, "h3", 2)]
        assert result.reports["h3"].attempts == 2
        assert result.reports["h3"].exec_s >= 0.3


def plan_hosts(plan):
    """The plan's hosts in pre-order."""
    hosts = [] if plan.host is None else [plan.host]
    for child in plan.children:
        hosts += plan_hosts(child)
    return hosts


def random_fault_plan(rng):
    """A plan 1-4 host levels deep with uneven fan-outs, unique hosts."""
    names = iter(range(1 << 20))
    depth = rng.randint(1, 4)

    def node(level):
        fanout = rng.choice((0, 1, 2, 3, 5)) if level < depth else 0
        return PlanNode(host=f"h{next(names)}",
                        request_parts=(rng.randrange(1, 200),
                                       rng.randrange(50)),
                        children=[node(level + 1) for _ in range(fanout)])

    return PlanNode(host=None, children=[node(1) for _ in
                                         range(rng.randint(1, 5))])


def run_with_faults(plan, faults, retries):
    """Run ``plan`` under ``faults`` - fresh transport and work state, so
    every run sees the same attempt numbering - with an order-recording
    merge (list concatenation).  An optional fifth fault, ``{host: n}``,
    has attempt ``n`` raise :class:`DeadlineExceeded`."""
    drop_requests, drop_responses, dead, failing, *rest = faults
    expiring = rest[0] if rest else {}
    calls = {}

    def work(host):
        calls[host] = attempt = calls.get(host, 0) + 1
        if attempt == expiring.get(host):
            raise DeadlineExceeded(f"{host} attempt {attempt} expired")
        if attempt <= failing.get(host, 0):
            raise RuntimeError(f"{host} attempt {attempt} crashed")
        return [host]

    transport = LoopbackTransport(drop_requests=drop_requests,
                                  drop_responses=drop_responses,
                                  dead_hosts=dead)
    executor = ScatterGatherExecutor(transport, retries=retries)
    return executor.run(plan, work, lambda values: sum(values, []),
                        response_bytes=lambda value: 3 * len(value) + 1)


def gather_facts(result):
    """Everything but timings."""
    return (result.value, result.hosts_failed,
            [(w.code, w.host, w.attempts, w.detail) for w in result.warnings],
            result.partial, result.traffic_bytes,
            result.duplicate_traffic_bytes, result.root_merges,
            list(result.merge_s),
            {host: (r.ok, r.attempts, r.request_bytes,
                    r.response_bytes, r.error)
             for host, r in result.reports.items()})


def model_facts(plan, faults, retries):
    """What :func:`run_with_faults` must gather, in :func:`gather_facts`
    form, worked out from the plan and the faults alone.

    The fault semantics, per host: attempt ``a`` of ``retries + 1`` loses
    its request while the host is dead or ``a`` is within its
    ``drop_requests``.  A delivered request is the host's ``w``-th work
    call, which raises :class:`DeadlineExceeded` when ``w`` is its
    expiring number (the host times out, no retry) and crashes while ``w``
    is within its failing count.  A delivered request whose work raised
    is duplicate traffic; the winning one is traffic.  Then every node
    sends its subtree's result up with ``retries + 1`` tries, the first
    ``drop_responses`` of them lost (all of them for a dead host); a
    delivered response is traffic, a lost non-empty one fails every host
    below that still stood.  A node's result is its children's arrivals
    in tree order, then its own.
    """
    drop_requests, drop_responses, dead, failing, *rest = faults
    expiring = rest[0] if rest else {}
    tries = retries + 1
    #: host -> [ok, attempts, request_bytes, response_bytes, error]
    reports = {}
    warnings, merge_keys = [], []
    traffic = duplicate = 0

    def fail(host, code, attempts, detail):
        warnings.append((code, host, attempts, detail))
        reports[host] = [False, attempts, None, None, detail]

    def host_value(host, size):
        nonlocal traffic, duplicate
        calls = 0
        for attempt in range(1, tries + 1):
            if host in dead or attempt <= drop_requests.get(host, 0):
                error = (f"TransportError: request to {host} lost "
                         f"(attempt {attempt})")
                continue
            calls += 1
            if calls == expiring.get(host):
                duplicate += size
                fail(host, W_HOST_TIMEOUT, attempt,
                     f"{host} attempt {calls} expired")
                return None
            if calls <= failing.get(host, 0):
                duplicate += size
                error = f"RuntimeError: {host} attempt {calls} crashed"
                continue
            traffic += size
            reports[host] = [True, attempt, size, None, ""]
            if attempt > 1:
                warnings.append((W_RETRIED, host, attempt,
                                 "delivered after retry"))
            return [host]
        fail(host, W_HOST_FAILED, tries, error)
        return None

    def subtree(node):
        """``(the subtree's hosts, its result or None, its arrivals)``."""
        nonlocal traffic
        merge_keys.append(node.host)
        hosts, arrivals = [], []
        if node.host is not None:
            hosts.append(node.host)
            local = host_value(node.host, sum(node.request_parts))
        else:
            local = None
        for child in node.children:
            below, value, _ = subtree(child)
            hosts += below
            if child.host not in dead and \
                    drop_responses.get(child.host, 0) < tries:
                payload = 0 if value is None else 3 * len(value) + 1
                traffic += payload
                reports[child.host][3] = payload
                if value is not None:
                    arrivals.append(value)
            elif value is not None:
                warnings.append((W_RESPONSE_LOST, child.host, 1,
                                 f"response from {child.host} lost "
                                 f"(attempt {tries})"))
                for host in below:
                    if reports[host][0]:
                        reports[host][0] = False
                        reports[host][4] = "subtree response lost"
        if local is not None:
            arrivals.append(local)
        return hosts, (sum(arrivals, []) if arrivals else None), arrivals

    hosts, value, arrivals = subtree(plan)
    hosts_failed = [host for host in hosts if not reports[host][0]]
    return (value, hosts_failed,
            sorted(warnings, key=lambda w: (w[1], w[0])),
            bool(hosts_failed), traffic, duplicate,
            max(len(arrivals) - 1, 0), merge_keys,
            {host: tuple(report) for host, report in reports.items()})


class TestSerialFold:
    """The executor is a depth-first fold on the calling thread; it must
    gather exactly what the fault semantics predict."""

    @pytest.mark.parametrize("retries", [0, 1, 2])
    def test_fold_matches_brute_force_model_on_random_faulty_plans(
            self, retries):
        rng = random.Random(20261016)
        for _ in range(40):
            plan = random_fault_plan(rng)
            hosts = plan_hosts(plan)

            def pick(share):
                return [host for host in hosts if rng.random() < share]

            faults = ({host: rng.randint(1, 3) for host in pick(0.15)},
                      {host: rng.randint(1, 3) for host in pick(0.15)},
                      pick(0.05),
                      {host: rng.randint(1, 3) for host in pick(0.15)},
                      {host: rng.randint(1, 3) for host in pick(0.1)})
            assert gather_facts(run_with_faults(plan, faults, retries)) \
                == model_facts(plan, faults, retries)

    def test_serial_call_order_is_pinned(self):
        """Pre-order work; each child's subtree folded and sent up in
        turn; then one merge over the children's arrivals and the local
        result last; then sized and sent up."""
        plan = PlanNode(host=None, children=[
            PlanNode(host="A", request_parts=(8,), children=[
                PlanNode(host="B", request_parts=(8,), children=[
                    PlanNode(host="D", request_parts=(8,)),
                    PlanNode(host="E", request_parts=(8,))]),
                PlanNode(host="C", request_parts=(8,))]),
            PlanNode(host="F", request_parts=(8,))])
        events = []

        def work(host):
            events.append(("work", host))
            return host

        def merge(values):
            events.append(("merge", *values))
            return "".join(values)

        def size(value):
            events.append(("size", value))
            return len(value)

        result = ScatterGatherExecutor().run(
            plan, work, merge, response_bytes=size)
        assert result.value == "DEBCAF" and result.root_merges == 1
        assert events == [
            ("work", "A"), ("work", "B"), ("work", "D"), ("size", "D"),
            ("work", "E"), ("size", "E"), ("merge", "D", "E", "B"),
            ("size", "DEB"), ("work", "C"), ("size", "C"),
            ("merge", "DEB", "C", "A"), ("size", "DEBCA"), ("work", "F"),
            ("size", "F"), ("merge", "DEBCA", "F")]
        assert list(result.merge_s) == [None, "A", "B", "D", "E", "C", "F"]


# --------------------------------------------------------------------------
# Cluster-level integration: real agents, real queries.
# --------------------------------------------------------------------------
@pytest.fixture()
def populated_cluster(fattree4, fattree4_assignment):
    cluster = QueryCluster(fattree4, fattree4_assignment)
    for index, host in enumerate(cluster.hosts):
        agent = cluster.agent(host)
        other = cluster.hosts[(index + 1) % len(cluster.hosts)]
        for flow in range(20):
            flow_id = FlowId(other, host, 30_000 + flow, 80, PROTO_TCP)
            record = PathFlowRecord(
                flow_id, (other, "tor", host), float(flow),
                float(flow) + 0.5, 1000 * (flow + 1), flow + 1)
            agent.tib.add_record(record)
    return cluster


def fold_order(cluster, mechanism):
    """The hosts in the order a gather's arrivals concatenate: host order
    for a direct scatter; on the aggregation tree, each node's children
    (in tree order) before the node itself."""
    if mechanism == MECHANISM_DIRECT:
        return list(cluster.hosts)

    def post_order(node):
        hosts = [host for child in node.children
                 for host in post_order(child)]
        return hosts + ([node.host] if node.host is not None else [])

    return post_order(AggregationTree(cluster.hosts).root)


class TestClusterExecutorIntegration:
    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    @pytest.mark.parametrize("name,params", [
        (Q_TOP_K_FLOWS, {"k": 25}),
        (Q_FLOW_SIZE_DISTRIBUTION, {"links": [None], "binsize": 2000}),
        (Q_GET_FLOWS, {}),
    ])
    def test_gather_matches_one_agent_holding_every_record(
            self, populated_cluster, fattree4, fattree4_assignment,
            mechanism, name, params):
        """Same query, same data: the distributed gather returns, byte for
        byte, what one agent answers alone over every host's records,
        loaded in the order the gather concatenates them."""
        whole = PathDumpAgent("everything", fattree4, fattree4_assignment)
        for host in fold_order(populated_cluster, mechanism):
            for record in populated_cluster.agent(host).tib.records():
                whole.tib.add_record(record)
        query = Query(name, dict(params))
        reference = QueryEngine().execute(whole, query).payload
        result = populated_cluster.execute(query, mechanism=mechanism)
        assert wire.encode_value(result.payload) == \
            wire.encode_value(reference)
        assert result.host_count == len(populated_cluster.hosts)
        assert not result.partial and reference

    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    def test_slow_agent_times_out_of_the_gather(self, populated_cluster,
                                                mechanism):
        """A host whose request leg outlasts the deadline is declared
        failed with a timeout; every other host's flows still arrive."""
        slow = populated_cluster.hosts[-1]  # a leaf of the default tree
        populated_cluster.configure_executor(
            timeout_s=0.1, transport=LoopbackTransport(
                delay=lambda host, attempt: 0.2 if host == slow else 0.0))
        result = populated_cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 1000}),
                                           mechanism=mechanism)
        assert result.partial and result.hosts_failed == [slow]
        assert [w.code for w in result.warnings if w.host == slow] == \
            [W_HOST_TIMEOUT]
        assert len(result.payload) == 20 * (len(populated_cluster.hosts) - 1)
        assert not any(f"|{slow}:" in key for _, key in result.payload)

    @pytest.mark.parametrize("mode", ["concurrent", "bogus"])
    def test_unknown_mode_rejected(self, fattree4, fattree4_assignment,
                                   mode):
        with pytest.raises(ValueError, match="unknown cluster mode"):
            QueryCluster(fattree4, fattree4_assignment, mode=mode)
        cluster = QueryCluster(fattree4, fattree4_assignment)
        with pytest.raises(ValueError, match="unknown cluster mode"):
            cluster.configure_executor(mode=mode)
        assert cluster.mode == MODE_SERIAL

    def test_dead_agent_direct_query_partial(self, populated_cluster):
        dead = populated_cluster.hosts[2]
        populated_cluster.configure_executor(
            transport=LoopbackTransport(dead_hosts=[dead]))
        query = Query(Q_TOP_K_FLOWS, {"k": 1000})
        result = populated_cluster.execute(query,
                                           mechanism=MECHANISM_DIRECT)
        assert result.partial and result.hosts_failed == [dead]
        # The dead host's flows are missing, everyone else's are present.
        keys = {key for _, key in result.payload}
        assert keys  # sanity: the query did return flows
        assert not any(f"|{dead}:" in key for key in keys)
        survivors = set(populated_cluster.hosts) - {dead}
        assert len(result.payload) == 20 * len(survivors)

    def test_missing_agent_is_a_dead_agent(self, populated_cluster):
        gone = populated_cluster.hosts[5]
        del populated_cluster.agents[gone]
        query = Query(Q_TOP_K_FLOWS, {"k": 10})
        result = populated_cluster.execute(query,
                                           mechanism=MECHANISM_MULTILEVEL)
        assert result.partial and gone in result.hosts_failed
        assert result.payload  # everyone else still answered

    def test_warnings_surface_on_query_result(self, populated_cluster):
        dead = populated_cluster.hosts[0]
        populated_cluster.configure_executor(
            transport=LoopbackTransport(dead_hosts=[dead]), retries=2)
        result = populated_cluster.execute(Query(Q_GET_FLOWS, {}),
                                           mechanism=MECHANISM_DIRECT)
        codes = {w.code for w in result.warnings}
        assert W_HOST_FAILED in codes
        failed = next(w for w in result.warnings
                      if w.code == W_HOST_FAILED)
        assert failed.attempts == 3  # initial + 2 retries

    def test_empty_host_list_returns_empty_aggregate(self,
                                                     populated_cluster):
        result = populated_cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 5}),
                                           hosts=[])
        assert result.payload == [] and result.host_count == 0
        assert not result.partial and result.hosts_failed == []
        histogram = populated_cluster.execute(
            Query(Q_FLOW_SIZE_DISTRIBUTION, {"links": [None]}), hosts=[])
        assert histogram.payload == {}

    def test_rpc_channel_prices_and_counts_every_gather(
            self, fattree4, fattree4_assignment):
        """The ``rpc=`` channel given at construction prices every gather
        the cluster runs and counts each leg once: one request and one
        response per host, whichever the mechanism, with or without a
        failure-injecting transport installed."""
        rpc = RpcChannel(message_latency_s=0.5)
        cluster = QueryCluster(fattree4, fattree4_assignment, rpc=rpc)
        hosts = len(cluster.hosts)
        direct = cluster.execute(Query(Q_GET_FLOWS, {}))
        assert rpc.stats.messages == 2 * hosts
        assert 1.0 < direct.response_time_s < 1.5  # request + response
        assert direct.breakdown["network"] == pytest.approx(1.0, rel=0.01)
        cluster.reset_stats()
        assert rpc.stats.messages == 0
        multi = cluster.execute(Query(Q_GET_FLOWS, {}),
                                mechanism=MECHANISM_MULTILEVEL)
        assert rpc.stats.messages == 2 * hosts  # every tree edge, both ways
        # Two 0.5 s legs a level on the deepest path.
        assert multi.response_time_s > multi.breakdown["tree_depth"]
        cluster.configure_executor(transport=LoopbackTransport())
        cluster.execute(Query(Q_GET_FLOWS, {}))
        assert cluster.rpc is rpc and rpc.stats.messages == 4 * hosts

    def test_reset_stats_resets_loopback_transport(self, populated_cluster):
        transport = LoopbackTransport()
        populated_cluster.configure_executor(transport=transport)
        populated_cluster.execute(Query(Q_GET_FLOWS, {}))
        assert transport.stats.messages > 0
        populated_cluster.reset_stats()
        assert transport.stats.messages == 0

    def test_reset_stats_clears_rpc_and_storage_counters(self,
                                                         populated_cluster):
        populated_cluster.execute(Query(Q_GET_FLOWS, {}))
        assert populated_cluster.rpc.stats.messages > 0
        agent = populated_cluster.agent(populated_cluster.hosts[0])
        assert agent.tib.stats.hot_full_scans > 0
        agent.tib.stats.evictions += 3
        populated_cluster.reset_stats()
        assert populated_cluster.rpc.stats.messages == 0
        assert populated_cluster.rpc.total_traffic_bytes == 0
        assert agent.tib.stats.hot_full_scans == 0
        assert agent.tib.stats.evictions == 0
