"""The Fig. 11/12 response-time model as a pure pass after the run.

:func:`repro.core.rpc.model_response_time` reads what a finished scatter
measured - the plan, per-host reports, per-node merge times - and prices
it on the management-channel model.  Two independent checks:

* ``data/response_model_runs.json`` holds 50 seeded serial runs recorded
  when the executor still computed the model *inside* the run (over a
  latency-model transport, with failing hosts and lost responses): the
  pure function must reproduce every recorded model to 1e-12 relative,
  and :func:`~repro.core.rpc.charge_legs` every recorded message count.
* a brute-force reference over random plan trees: the model is the
  maximum, over every root-to-slot path, of the path's request and
  response legs plus every ancestor's merge time plus the slot's
  ``exec_s``.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core import LoopbackTransport, PlanNode, RpcChannel
from repro.core.executor import HostReport, ScatterGatherExecutor
from repro.core.rpc import charge_legs, model_response_time

RECORDED = Path(__file__).parent / "data" / "response_model_runs.json"


def decode_plan(doc):
    return PlanNode(host=doc["host"], request_parts=tuple(doc["parts"]),
                    children=[decode_plan(child) for child in doc["children"]])


def tree_depth(plan):
    """Levels below ``plan``."""
    return max((1 + tree_depth(child) for child in plan.children), default=0)


def recorded_runs():
    runs = []
    for doc in json.loads(RECORDED.read_text()):
        reports = {host: HostReport(
            host=host, ok=fact["ok"], attempts=fact["attempts"],
            exec_s=fact["exec_s"], request_bytes=fact["request_bytes"],
            response_bytes=fact["response_bytes"])
            for host, fact in doc["reports"].items()}
        merge_s = {host or None: seconds
                   for host, seconds in doc["merge_s"].items()}
        runs.append((doc, decode_plan(doc["plan"]), reports, merge_s))
    return runs


def channel_of(doc):
    return RpcChannel(message_latency_s=doc["message_latency_s"],
                      bandwidth_bps=doc["bandwidth_bps"])


class TestRecordedRuns:
    def test_reproduces_every_in_run_model(self):
        runs = recorded_runs()
        assert len(runs) == 50
        for doc, plan, reports, merge_s in runs:
            channel = channel_of(doc)
            model = model_response_time(plan, reports, merge_s, channel)
            assert model == pytest.approx(doc["model_time_s"], rel=1e-12,
                                          abs=0), doc["seed"]
            assert channel.stats.messages == 0  # pure: nothing counted

    def test_charges_every_recorded_message(self):
        for doc, plan, reports, _merge_s in recorded_runs():
            channel = channel_of(doc)
            charge_legs(plan, reports, channel)
            assert (channel.stats.messages, channel.stats.bytes) == \
                (doc["rpc_messages"], doc["rpc_bytes"]), doc["seed"]

    def test_recorded_runs_cover_every_case(self):
        """Not vacuous: the recordings hold failed hosts (no request leg,
        elapsed time in place of execution), lost responses, hosts lost
        with a subtree, and trees one to four levels deep."""
        runs = recorded_runs()
        facts = [fact for doc, *_ in runs for fact in doc["reports"].values()]
        assert sum(fact["request_bytes"] is None for fact in facts) >= 20
        assert sum(fact["response_bytes"] is None for fact in facts) >= 20
        assert any(not fact["ok"] and fact["request_bytes"] is not None
                   for fact in facts)
        assert {tree_depth(plan) for _doc, plan, *_ in runs} == {1, 2, 3, 4}


# --------------------------------------------------------------------------
# Brute force over random trees
# --------------------------------------------------------------------------
def random_case(rng):
    depth = rng.randint(1, 4)
    counter = iter(range(10_000))

    def node(level):
        host = f"h{next(counter)}"
        parts = tuple(rng.randrange(0, 3000)
                      for _ in range(rng.choice((0, 1, 1, 2))))
        children = ([node(level + 1) for _ in range(rng.randint(0, 3))]
                    if level < depth else [])
        return PlanNode(host=host, request_parts=parts, children=children)

    plan = PlanNode(host=None,
                    children=[node(1) for _ in range(rng.randint(0, 4))])
    reports, merge_s = {}, {None: rng.random() * 1e-3}
    stack = list(plan.children)
    while stack:
        child = stack.pop()
        stack.extend(child.children)
        failed = rng.random() < 0.2
        reports[child.host] = HostReport(
            host=child.host, ok=not failed, attempts=rng.randint(1, 3),
            exec_s=rng.random() * (0.5 if failed else 0.01),
            request_bytes=(None if failed or not child.request_parts
                           else sum(child.request_parts)),
            response_bytes=(None if rng.random() < 0.15
                            else rng.randrange(0, 100_000)))
        merge_s[child.host] = rng.random() * 1e-3
    channel = RpcChannel(message_latency_s=rng.choice((0.0, 0.005, 0.02)),
                         bandwidth_bps=rng.choice((1e7, 1e9)))
    return plan, reports, merge_s, channel


def brute_force(plan, reports, merge_s, channel):
    """Maximum over every root-to-slot path of its legs, the merge times
    of the nodes it passes and the end slot's ``exec_s`` (the root's merge
    time alone when the plan has no slot)."""
    def leg(payload):
        return 0.0 if payload is None else channel.leg_s(payload)

    best = merge_s[None]
    paths = [(child, [child]) for child in plan.children]
    while paths:
        node, path = paths.pop()
        paths.extend((child, path + [child]) for child in node.children)
        total = merge_s[None] + reports[node.host].exec_s + sum(
            leg(reports[hop.host].request_bytes)
            + leg(reports[hop.host].response_bytes) + merge_s[hop.host]
            for hop in path)
        best = max(best, total)
    return best


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(250))
    def test_model_is_the_slowest_path(self, seed):
        plan, reports, merge_s, channel = random_case(random.Random(seed))
        model = model_response_time(plan, reports, merge_s, channel)
        assert model == pytest.approx(
            brute_force(plan, reports, merge_s, channel), rel=1e-12, abs=0)
        assert channel.stats.messages == 0

    def test_leg_is_pure_and_send_counts_then_prices(self):
        channel = RpcChannel(message_latency_s=0.01, bandwidth_bps=1e6)
        assert channel.leg_s(1000) == channel.leg_s(1000)
        assert channel.stats.messages == 0
        assert channel.send(1000) == channel.leg_s(1000)
        assert channel.stats.messages == 1


class TestPricedRuns:
    """A run's facts are enough to price it."""

    def test_lost_subtree_keeps_its_legs_in_the_model(self):
        plan = PlanNode(host=None, children=[
            PlanNode(host="a", request_parts=(10,), children=[
                PlanNode(host="b", request_parts=(10,))]),
            PlanNode(host="c", request_parts=(10,))])
        executor = ScatterGatherExecutor(
            LoopbackTransport(drop_responses={"a": 1}))
        result = executor.run(plan, work=lambda host: 1,
                              merge=sum,
                              response_bytes=lambda value: 8)
        assert set(result.hosts_failed) == {"a", "b"}
        reports = result.reports
        assert reports["a"].response_bytes is None
        assert reports["a"].request_bytes == 10  # its work did answer
        assert reports["b"].response_bytes == 8
        channel = RpcChannel(message_latency_s=1.0, bandwidth_bps=1e12)
        model = model_response_time(plan, reports, result.merge_s, channel)
        # a's request, then b's request and response: three legs deep.
        assert 3.0 < model < 3.1
