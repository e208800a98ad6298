"""Plan queries across every execution mode and both mechanisms.

Covers: plan-compiled ``get_count`` / ``get_duration`` / ``top_k_flows``
returning payloads
byte-identical to a per-host brute-force reference (merged by the plan's
own operator) across serial / process / socket modes (direct and
multilevel scatter), raw
``Q_PLAN`` queries travelling every transport unchanged, per-plan scan
statistics surfacing on the distributed result, and a worker killed with a
plan in flight failing exactly like a dead agent (partial result,
``W_HOST_FAILED`` warning, survivors intact).
"""

import threading
import time

import pytest

from repro.core import (MECHANISM_DIRECT, MECHANISM_MULTILEVEL,
                        MODE_PROCESS, MODE_SERIAL, MODE_SOCKET, Q_GET_COUNT,
                        Q_GET_DURATION, Q_PLAN, Q_TOP_K_FLOWS, Query, wire)
from repro.core import plan as planlib
from repro.core.executor import W_HOST_FAILED
from repro.core.plan import Aggregate, Filter, Plan, TopK
from repro.network.packet import FlowId, PROTO_TCP
from test_worker_plane import NUM_HOSTS, worker_cluster

#: A flow ``populate`` actually installs (src is the next host around the
#: ring, sport counts up from 30_000; seen from 5.0 to 5.5), its path, and
#: a link on it.
SAMPLE_FLOW = FlowId("server-1", "server-0", 30_005, 80, PROTO_TCP)
SAMPLE_PATH = ("server-1", "leaf-0", "server-0")
SAMPLE_LINK = ("leaf-0", "server-0")

#: (built-in, params) - each must match the merged per-host reference
#: byte for byte in every mode.
BUILTIN_CASES = [
    (Q_GET_COUNT, {"flow": SAMPLE_FLOW}),
    (Q_GET_COUNT, {"flow": SAMPLE_FLOW, "time_range": (2.0, 20.0)}),
    (Q_TOP_K_FLOWS, {"k": 30}),
    (Q_TOP_K_FLOWS, {"k": 10, "link": SAMPLE_LINK}),
    (Q_TOP_K_FLOWS, {"k": 15, "time_range": (3.0, 18.0)}),
    (Q_GET_DURATION, {"flow": SAMPLE_FLOW}),
    (Q_GET_DURATION, {"flow": (SAMPLE_FLOW, SAMPLE_PATH)}),
    (Q_GET_DURATION, {"flow": SAMPLE_FLOW, "time_range": (5.2, 20.0)}),
]

#: The plan each built-in compiles its params to.
COMPILERS = {
    Q_GET_COUNT: lambda params: planlib.compile_get_count(
        params["flow"], params.get("time_range")),
    Q_GET_DURATION: lambda params: planlib.compile_get_duration(
        params["flow"], params.get("time_range")),
    Q_TOP_K_FLOWS: lambda params: planlib.compile_top_k_flows(
        params.get("k", 1000), params.get("link"), params.get("time_range")),
}

#: Raw plans exercising every op kind over the wire.
RAW_PLANS = [
    Plan(ops=(Filter(start=2.0, end=20.0),
              Aggregate(func="count"))),
    Plan(ops=(Filter(links=(SAMPLE_LINK,)),
              Aggregate(func="histogram", fields=("bytes",),
                        binsize=4000))),
    Plan(ops=(Filter(),
              Aggregate(func="sum", fields=("bytes",), by=("flow",)),
              TopK(k=12))),
]


def run_all_modes(query, mechanism):
    """Execute ``query`` in all three modes; return {mode: result}."""
    results = {}
    for mode in (MODE_SERIAL, MODE_PROCESS, MODE_SOCKET):
        with worker_cluster(mode) as cluster:
            result = cluster.execute(query, mechanism=mechanism)
            assert not result.partial
            results[mode] = result
    return results


def reference_builtin(name, params):
    """A record loop kept in the test: the brute-force evaluator over each
    host's full record set, the partials merged by the plan's own
    operator (top-k: ``merge_ranked``; a span: min/max; another scalar:
    concatenation)."""
    plan = COMPILERS[name](params)
    with worker_cluster(MODE_SERIAL) as cluster:
        partials = [planlib.reference_evaluate(
            cluster.agent(host).tib.records(), plan)
            for host in cluster.hosts]
    return planlib.merge_payloads(plan, partials)


class TestBuiltinIdentityAcrossModes:
    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    @pytest.mark.parametrize("name,params", BUILTIN_CASES)
    def test_plan_builtin_matches_reference_in_every_mode(self, mechanism,
                                                          name, params):
        """The plan-compiled built-in answers what the brute-force
        reference computes, byte for byte, in every mode."""
        results = run_all_modes(Query(name, dict(params)), mechanism)
        reference = wire.encode_value(reference_builtin(name, params))
        for mode, result in results.items():
            assert wire.encode_value(result.payload) == reference, mode


class TestRawPlansAcrossModes:
    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    @pytest.mark.parametrize("index", range(len(RAW_PLANS)))
    def test_plan_frames_ride_every_transport(self, mechanism, index):
        """A raw Q_PLAN query returns the same bytes whether the plan
        frame crossed a function call or a worker's socket."""
        query = Query(Q_PLAN, {"plan": RAW_PLANS[index]})
        results = run_all_modes(query, mechanism)
        reference = wire.encode_value(results[MODE_SERIAL].payload)
        assert reference != wire.encode_value(None)
        for mode, result in results.items():
            assert wire.encode_value(result.payload) == reference, mode

    def test_distributed_payload_matches_merged_reference(self):
        """The distributed merge of a keyed plan equals merging each
        host's local execution with the plan's own merge operator."""
        plan = RAW_PLANS[2]
        with worker_cluster(MODE_SERIAL) as cluster:
            outcome = cluster.execute(Query(Q_PLAN, {"plan": plan}))
            payloads = [planlib.execute_plan(cluster.agent(host).tib,
                                             plan).payload
                        for host in cluster.hosts]
            assert wire.encode_value(outcome.payload) == \
                wire.encode_value(planlib.merge_payloads(plan, payloads))


class TestScanStatsSurface:
    def test_process_mode_result_carries_summed_scan_stats(self):
        """Per-host pushdown counters cross the worker pipe in the
        result frame's scan-stat tail and sum on the distributed result."""
        with worker_cluster(MODE_PROCESS) as cluster:
            plan = Plan(ops=(Filter(start=2.0, end=20.0),
                             Aggregate(func="count")))
            outcome = cluster.execute(Query(Q_PLAN, {"plan": plan}))
            assert outcome.scan_stats["hot_time_routed"] == NUM_HOSTS
            assert outcome.scan_stats["hot_full_scans"] == 0

    def test_legacy_builtins_carry_no_scan_stats(self):
        """The rebased built-ins keep their ancestors' result shape -
        scan statistics are a Q_PLAN-only surface."""
        with worker_cluster(MODE_SERIAL) as cluster:
            outcome = cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 5}))
            assert outcome.scan_stats == {}


class TestWorkerFailureMidPlan:
    def test_kill_mid_plan_surfaces_like_dead_agent(self):
        """A worker killed with a plan in flight surfaces exactly like a
        dead in-process agent: partial=True, the host in hosts_failed, a
        W_HOST_FAILED warning - and the survivors' groups intact."""
        with worker_cluster(MODE_PROCESS) as cluster:
            victim = cluster.hosts[2]
            pool = cluster.agent_servers
            pool.stall(victim, 5.0)
            killer = threading.Timer(0.15, pool.kill, args=(victim,))
            killer.start()
            try:
                started = time.perf_counter()
                result = cluster.execute(
                    Query(Q_PLAN, {"plan": RAW_PLANS[2]}))
                elapsed = time.perf_counter() - started
            finally:
                killer.cancel()
            assert elapsed < 4.0  # the kill, not the stall, ended the wait
            assert result.partial
            assert result.hosts_failed == [victim]
            warning = next(w for w in result.warnings
                           if w.code == W_HOST_FAILED)
            assert warning.host == "group-2"  # the victim's worker
            # Survivors' flows all present, the victim's missing.
            keys = {key for _, key in result.payload}
            assert keys and not any(f"|{victim}:" in key for key in keys)
