"""Tests for the declarative plan IR: validator, reference evaluator and
pushdown execution.

Covers: structured validation issues and per-plan warnings, the reference
brute-force evaluator's semantics (the span aggregate's window clamp
included), the compiled built-ins (``get_count``, ``get_duration``,
``top_k_flows``) being payload-byte-identical to the brute-force
reference over the TIB's records, measured (not estimated) request/result byte
accounting for locally executed plans, and provable filter pushdown (hot
index routing + cold pruning counters).  Random plans against the
reference are the state machine's, in ``test_tib_machine.py``.
"""

import random
from collections import Counter

import pytest

from repro.core import plan as planlib
from repro.core import wire
from repro.core.plan import (Aggregate, Filter, Plan, PlanError, Project,
                             TopK)
from repro.core.query import (Q_FLOW_SIZE_DISTRIBUTION, Q_GET_COUNT,
                              Q_GET_DURATION, Q_PLAN, Q_TOP_K_FLOWS, Query,
                              QueryEngine)
from repro.core.tib import Tib
from repro.network.packet import FlowId
from repro.storage import ColdArchive, RetentionPolicy
from repro.storage.records import RECORD_FIELDS, flow_key
from test_two_tier_tib import make_record


class _LocalAgent:
    """Minimal agent: the plan handlers only need ``host`` and ``tib``."""

    def __init__(self, tib):
        self.host = tib.host
        self.tib = tib


def hot_tib(count=80, host="h0", rng=None):
    tib = Tib(host)
    for i in range(count):
        tib.add_record(make_record(i, rng=rng))
    return tib


def spanning_tib(count=80, host="h0", cap=12, segment_records=16, rng=None):
    """A capped TIB whose reads must span both tiers."""
    tib = Tib(host, retention=RetentionPolicy(max_records=cap),
              archive=ColdArchive(segment_records=segment_records))
    for i in range(count):
        tib.add_record(make_record(i, rng=rng))
    assert tib.record_count() <= cap
    assert tib.total_record_count() > cap
    return tib


# --------------------------------------------------------------------------
# Validator
# --------------------------------------------------------------------------
class TestValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(PlanError) as info:
            planlib.validate(Plan(ops=()))
        assert info.value.issues[0].code == planlib.PE_EMPTY

    def test_op_order_enforced(self):
        bad = Plan(ops=(Aggregate(func="count"), Filter()))
        with pytest.raises(PlanError) as info:
            planlib.validate(bad)
        assert any(issue.code == planlib.PE_ORDER
                   for issue in info.value.issues)

    def test_duplicate_op_rejected(self):
        with pytest.raises(PlanError) as info:
            planlib.validate(Plan(ops=(Filter(), Filter())))
        assert any(issue.code == planlib.PE_DUPLICATE
                   for issue in info.value.issues)

    def test_inverted_window_rejected(self):
        with pytest.raises(PlanError) as info:
            planlib.validate(Plan(ops=(Filter(start=9.0, end=1.0),)))
        assert any(issue.code == planlib.PE_WINDOW
                   for issue in info.value.issues)

    def test_unknown_fields_rejected(self):
        for bad in (
            Plan(ops=(Project(fields=("nope",)),)),
            Plan(ops=(Aggregate(func="sum", fields=("nope",)),)),
            Plan(ops=(Aggregate(func="sum", fields=("bytes",),
                                by=("nope",)),)),
        ):
            with pytest.raises(PlanError) as info:
                planlib.validate(bad)
            assert any(issue.code == planlib.PE_FIELD
                       for issue in info.value.issues), bad

    def test_aggregate_shape_rules(self):
        for bad in (
            Aggregate(func="frobnicate"),
            Aggregate(func="sum"),                      # sum needs fields
            Aggregate(func="sum", fields=("path",)),    # non-numeric
            Aggregate(func="sum", fields=("bytes", "pkts"), by=("flow",)),
            Aggregate(func="count", fields=("bytes",)),
            Aggregate(func="histogram", fields=()),
            Aggregate(func="histogram", fields=("bytes",), binsize=0),
            Aggregate(func="span", fields=("stime",)),
            Aggregate(func="span", by=("flow",)),
        ):
            with pytest.raises(PlanError) as info:
                planlib.validate(Plan(ops=(bad,)))
            assert any(issue.code == planlib.PE_FUNC
                       for issue in info.value.issues), bad

    def test_projection_gates_aggregate_fields(self):
        for bad in (
            Plan(ops=(Project(fields=("flow",)),
                      Aggregate(func="sum", fields=("bytes",),
                                by=("flow",)))),
            Plan(ops=(Project(fields=("flow", "stime")),
                      Aggregate(func="span"))),  # a span reads etime too
        ):
            with pytest.raises(PlanError) as info:
                planlib.validate(bad)
            assert any(issue.code == planlib.PE_PROJECTION
                       for issue in info.value.issues), bad

    def test_topk_requires_keyed_aggregate(self):
        for bad in (
            Plan(ops=(Filter(), TopK(k=5))),
            Plan(ops=(Aggregate(func="sum", fields=("bytes",)), TopK(k=5))),
        ):
            with pytest.raises(PlanError) as info:
                planlib.validate(bad)
            assert any(issue.code == planlib.PE_TOPK
                       for issue in info.value.issues), bad

    def test_bad_topk_parameters(self):
        base = (Aggregate(func="sum", fields=("bytes",), by=("flow",)),)
        for bad_top in (TopK(k=0), TopK(k=3, key="sideways"),
                        TopK(k=3, order="shuffled")):
            with pytest.raises(PlanError):
                planlib.validate(Plan(ops=base + (bad_top,)))

    def test_error_message_carries_structured_issues(self):
        with pytest.raises(PlanError) as info:
            planlib.validate(Plan(ops=(Filter(start=5.0, end=1.0),
                                       Aggregate(func="bogus"))))
        issues = info.value.issues
        assert len(issues) == 2
        assert {issue.code for issue in issues} == \
            {planlib.PE_WINDOW, planlib.PE_FUNC}
        assert all(issue.code in str(info.value) for issue in issues)


class TestWarnings:
    def test_full_scan_warning(self):
        warnings = planlib.validate(Plan(ops=(Filter(),)))
        assert [w.code for w in warnings] == [planlib.PW_FULL_SCAN]
        # Plan.warnings() is the public spelling of the same analysis.
        assert Plan(ops=(Filter(),)).warnings() == warnings

    def test_residual_path_warning(self):
        warnings = planlib.validate(
            Plan(ops=(Filter(path=("a", "s", "b")),)))
        assert [w.code for w in warnings] == [planlib.PW_RESIDUAL_PATH]

    def test_wildcard_link_warning(self):
        warnings = planlib.validate(
            Plan(ops=(Filter(links=(("tor-a", None),)),)))
        assert [w.code for w in warnings] == [planlib.PW_WILDCARD_LINK]

    def test_pushed_down_plan_is_warning_free(self):
        plan = planlib.compile_get_count(
            make_record(3).flow_id, (1.0, 9.0))
        assert planlib.validate(plan) == ()


# --------------------------------------------------------------------------
# Filter normalisation and pushdown compilation
# --------------------------------------------------------------------------
class TestFilterNormalisation:
    def test_wildcards_normalise_like_scanspec(self):
        op = Filter(start="*", end="?", links=(("*", "s1"), ("?", "*")))
        assert op.start is None and op.end is None
        assert op.links == ((None, "s1"),)

    def test_flow_keys_sorted_and_deduped(self):
        op = Filter(flow_keys=("b:1|c:2|6", "a:1|c:2|6", "b:1|c:2|6"))
        assert op.flow_keys == ("a:1|c:2|6", "b:1|c:2|6")

    def test_scan_spec_compilation(self):
        op = Filter(start=1.0, end=9.0, links=(("s1", "s2"),),
                    flow_keys=("a:1|c:2|6",), path=("a", "s1", "c"))
        spec = planlib.scan_spec(op)
        assert spec.start == 1.0 and spec.end == 9.0
        assert spec.links == (("s1", "s2"),)
        assert spec.flow_keys == frozenset(("a:1|c:2|6",))
        # The exact-path predicate is residual - never part of the spec.
        assert planlib.scan_spec(Filter()).unconstrained


# --------------------------------------------------------------------------
# Reference evaluator semantics
# --------------------------------------------------------------------------
class TestReferenceEvaluator:
    def test_listing_without_project_emits_all_fields_sorted(self):
        records = [make_record(i) for i in range(6)]
        rows = planlib.reference_evaluate(records, Plan(ops=(Filter(),)))
        assert rows == sorted(
            (flow_key(r.flow_id), r.path, r.stime, r.etime, r.bytes, r.pkts)
            for r in records)

    def test_projection_narrows_rows(self):
        records = [make_record(i) for i in range(6)]
        plan = Plan(ops=(Filter(), Project(fields=("flow", "bytes"))))
        rows = planlib.reference_evaluate(records, plan)
        assert rows == sorted((flow_key(r.flow_id), r.bytes)
                              for r in records)

    def test_scalar_sum_and_count(self):
        records = [make_record(i) for i in range(6)]
        total = planlib.reference_evaluate(
            records, Plan(ops=(Aggregate(func="sum",
                                         fields=("bytes", "pkts")),)))
        assert total == (sum(r.bytes for r in records),
                         sum(r.pkts for r in records))
        count = planlib.reference_evaluate(
            records, Plan(ops=(Aggregate(func="count"),)))
        assert count == (len(records),)

    def test_histogram_bins(self):
        records = [make_record(i) for i in range(10)]
        plan = Plan(ops=(Aggregate(func="histogram", fields=("bytes",),
                                   binsize=300),))
        histogram = planlib.reference_evaluate(records, plan)
        expected = {}
        for r in records:
            expected[r.bytes // 300] = expected.get(r.bytes // 300, 0) + 1
        assert histogram == expected

    def test_topk_rank_dimensions(self):
        records = [make_record(i) for i in range(12)]
        by_flow = {}
        for r in records:
            key = flow_key(r.flow_id)
            by_flow[key] = by_flow.get(key, 0) + r.bytes
        base = (Filter(), Aggregate(func="sum", fields=("bytes",),
                                    by=("flow",)))
        desc = planlib.reference_evaluate(
            records, Plan(ops=base + (TopK(k=3),)))
        assert desc == sorted(((v, k) for k, v in by_flow.items()),
                              reverse=True)[:3]
        asc = planlib.reference_evaluate(
            records,
            Plan(ops=base + (TopK(k=3, order=planlib.ORDER_ASC),)))
        assert asc == sorted((v, k) for k, v in by_flow.items())[:3]
        by_group = planlib.reference_evaluate(
            records,
            Plan(ops=base + (TopK(k=3, key=planlib.RANK_GROUP),)))
        assert by_group == sorted(((k, v) for k, v in by_flow.items()),
                                  reverse=True)[:3]

    def test_span_clamps_each_extent_into_the_window(self):
        records = [make_record(i) for i in range(12)]
        assert planlib.reference_evaluate(
            records, Plan(ops=(Aggregate(func="span"),))) == \
            (min(r.stime for r in records), max(r.etime for r in records))
        window = Filter(start=10.0, end=30.0)
        inside = [r for r in records if r.etime >= 10.0 and r.stime <= 30.0]
        assert inside and len(inside) < len(records)
        assert planlib.reference_evaluate(
            records, Plan(ops=(window, Aggregate(func="span")))) == \
            (min(max(r.stime, 10.0) for r in inside),
             min(max(r.etime for r in inside), 30.0))
        assert planlib.reference_evaluate(
            records, Plan(ops=(Filter(start=1e6), Aggregate(func="span")))) \
            == ()
        assert planlib.span_length(()) == 0.0
        assert planlib.span_length((2.5, 4.0)) == 1.5

    def test_invalid_plan_rejected(self):
        with pytest.raises(PlanError):
            planlib.reference_evaluate([], Plan(ops=()))


# --------------------------------------------------------------------------
# Compiled built-ins: identity with the brute-force reference (serial)
# --------------------------------------------------------------------------
class TestCompiledBuiltins:
    """Each built-in's payload equals ``reference_evaluate`` of its
    compiled plan over the TIB's whole record set (a record loop with no
    index, pruning or maintained aggregate), and its accounting is the
    handler's documented one."""

    @pytest.mark.parametrize("tib_factory", [hot_tib, spanning_tib])
    def test_get_count_identity(self, tib_factory):
        tib = tib_factory()
        agent = _LocalAgent(tib)
        engine = QueryEngine()
        sample = make_record(7)
        cases = [
            {"flow": sample.flow_id},
            {"flow": sample.flow_id, "time_range": (5.0, 30.0)},
            {"flow": (sample.flow_id, sample.path)},
            {"flow": (sample.flow_id, sample.path),
             "time_range": (0.0, 50.0)},
            {"flow": make_record(999).flow_id},  # absent flow
        ]
        for params in cases:
            result = engine.execute(agent, Query(Q_GET_COUNT, dict(params)))
            plan = planlib.compile_get_count(params["flow"],
                                             params.get("time_range"))
            reference = planlib.reference_evaluate(tib.records(), plan)
            assert wire.encode_value(result.payload) == \
                wire.encode_value(reference), params
            assert result.records_scanned == 1

    @pytest.mark.parametrize("tib_factory", [hot_tib, spanning_tib])
    def test_get_duration_identity(self, tib_factory):
        tib = tib_factory()
        agent = _LocalAgent(tib)
        engine = QueryEngine()
        sample = make_record(7)
        cases = [
            {"flow": sample.flow_id},
            {"flow": sample.flow_id, "time_range": (5.0, 30.0)},
            {"flow": (sample.flow_id, sample.path)},
            {"flow": (sample.flow_id, sample.path),
             "time_range": (sample.stime + 0.25, None)},
            {"flow": make_record(7, src="nowhere").flow_id},  # absent flow
        ]
        for params in cases:
            result = engine.execute(agent,
                                    Query(Q_GET_DURATION, dict(params)))
            plan = planlib.compile_get_duration(params["flow"],
                                                params.get("time_range"))
            reference = planlib.reference_evaluate(tib.records(), plan)
            assert wire.encode_value(result.payload) == \
                wire.encode_value(reference), params
            assert result.records_scanned == 1
        assert result.payload == ()  # the absent flow's identity span

    @pytest.mark.parametrize("tib_factory", [hot_tib, spanning_tib])
    def test_top_k_flows_identity(self, tib_factory):
        tib = tib_factory()
        agent = _LocalAgent(tib)
        engine = QueryEngine()
        sample = make_record(3)
        a, b = sample.path[1], sample.path[2]
        cases = [
            {"k": 5},
            {"k": 3, "link": (a, b)},
            {"k": 4, "link": (a, None)},
            {"k": 4, "time_range": (10.0, 35.0)},
            {"k": 2, "link": (a, b), "time_range": (0.0, 45.0)},
        ]
        for params in cases:
            result = engine.execute(agent,
                                    Query(Q_TOP_K_FLOWS, dict(params)))
            plan = planlib.compile_top_k_flows(params["k"],
                                               params.get("link"),
                                               params.get("time_range"))
            reference = planlib.reference_evaluate(tib.records(), plan)
            assert wire.encode_value(result.payload) == \
                wire.encode_value(reference), params
            # Every record of the read counts as scanned: the whole TIB
            # when unconstrained (the maintained ranking), else the
            # index-routed matches.
            assert result.records_scanned == len(tib.records(
                link=params.get("link"), time_range=params.get("time_range")))


class TestSharedShapes:
    """Equal parameter shapes share one built object per process: every
    host of a sweep executes the same ``Plan`` instance (with its memoized
    validation and pushdown shape) and folds the same ``ScanSpec``; lists
    count as tuples, and a shape that stays unhashable is built afresh."""

    def test_equal_top_k_calls_execute_the_same_plan(self, monkeypatch):
        executed = []
        execute = planlib.answer
        monkeypatch.setattr(planlib, "answer", lambda tib, plan: (
            executed.append(plan) or execute(tib, plan)))
        agent = _LocalAgent(hot_tib())
        sample = make_record(3)
        link = [sample.path[1], sample.path[2]]
        for params in ({"k": 3, "link": link, "time_range": [0.0, 45.0]},
                       {"k": 3, "link": tuple(link),
                        "time_range": (0.0, 45.0)}):
            QueryEngine().execute(agent, Query(Q_TOP_K_FLOWS, params))
        assert len(executed) == 2 and executed[0] is executed[1]

    def test_equal_fsd_calls_share_one_compiled_plan(self, monkeypatch):
        """A list link (a decoded frame's) and a tuple one answer one
        compiled set of labelled plans, and fold one ``ScanSpec``, under
        ``link`` and under ``links``."""
        tib = spanning_tib()
        executed, folded = [], []
        execute, fold = planlib.answer, tib.fold
        monkeypatch.setattr(planlib, "answer", lambda tib, plan: (
            executed.append(plan) or execute(tib, plan)))
        monkeypatch.setattr(tib, "fold", lambda spec, fields: (
            folded.append(spec) or fold(spec, fields)))
        sample = make_record(3)
        hop = [sample.path[1], sample.path[2]]
        for params in ({"link": hop}, {"link": tuple(hop)},
                       {"links": [hop]}, {"links": (tuple(hop),)}):
            QueryEngine().execute(_LocalAgent(tib), Query(
                Q_FLOW_SIZE_DISTRIBUTION, dict(params,
                                               time_range=[0.0, 40.0])))
        for shared in (executed, folded):
            assert len(shared) == 4
            assert shared[0] is shared[1] and shared[2] is shared[3]

    def test_unhashable_shape_still_runs(self):
        agent = _LocalAgent(spanning_tib())
        sample = make_record(7)
        payloads = [QueryEngine().execute(agent, Query(
            Q_GET_COUNT, {"flow": (sample.flow_id, path)})).payload
            for path in (list(sample.path), tuple(sample.path))]
        assert payloads[0] == payloads[1] != (0, 0)


# --------------------------------------------------------------------------
# Measured accounting for locally executed plans (the fallback fix)
# --------------------------------------------------------------------------
class TestMeasuredPlanAccounting:
    """A plan executed locally must report measured ``len(encoded)``
    request/result bytes exactly like the built-ins do: a plan is one more
    tagged value of the ordinary query frames."""

    def test_result_bytes_are_the_encoded_frame_length(self):
        agent = _LocalAgent(hot_tib())
        engine = QueryEngine()
        query = Query(Q_PLAN, {"plan": planlib.compile_top_k_flows(5)})
        result = engine.execute(agent, query)
        frame = wire.encode_result(result)
        assert result.wire_bytes == len(frame) > 0
        assert wire.frame_type(frame) == wire.MSG_QUERY_RESULT
        assert wire.decode_result(frame, query).scan_stats == \
            result.scan_stats

    def test_request_bytes_are_the_encoded_frame_length(self):
        query = Query(Q_PLAN, {"plan": planlib.compile_get_count(
            make_record(1).flow_id, (0.0, 9.0))})
        frame = wire.encode_query_request(query, None)
        assert query.request_bytes() == len(frame) > 0
        assert wire.frame_type(frame) == wire.MSG_QUERY_REQUEST


# --------------------------------------------------------------------------
# The op table: every op class carries its code, merge and executor leg
# --------------------------------------------------------------------------
_NAMES = ("tor-a", "agg-中心-1", "hôst-é", "\U0001f409-core", "")
_WILD = (None, "*", "?")


def _random_op(rng, op_type, by=()):
    """One ``op_type`` op with seeded random valid field values: wildcards,
    unicode names, empty tuples, ints past 2**64."""
    if op_type is Filter:
        low, high = sorted(rng.uniform(-1e6, 1e6) for _ in range(2))
        return Filter(
            start=rng.choice(_WILD + (low, -(1 << 70))),
            end=rng.choice(_WILD + (high, 1 << 70)),
            links=tuple((rng.choice(_NAMES + _WILD),
                         rng.choice(_NAMES + _WILD))
                        for _ in range(rng.randrange(3))),
            flow_keys=tuple(flow_key(FlowId(rng.choice(_NAMES), "dst-ü",
                                            rng.randrange(1 << 16), 80, 6))
                            for _ in range(rng.randrange(3))),
            path=rng.choice((None, (), tuple(
                rng.choice(_NAMES) for _ in range(rng.randrange(1, 5))))))
    if op_type is Project:
        return Project(fields=tuple(rng.sample(RECORD_FIELDS,
                                               rng.randrange(1, 7))))
    if op_type is Aggregate:
        func = rng.choice(planlib.AGG_FUNCS)
        numeric = planlib.NUMERIC_FIELDS
        if func == planlib.AGG_SPAN:
            fields, by = (), ()
        elif func == planlib.AGG_COUNT:
            fields = ()
        elif func == planlib.AGG_HISTOGRAM or by:
            fields = (rng.choice(numeric),)
        else:
            fields = tuple(rng.sample(numeric, rng.randrange(1, 5)))
        return Aggregate(func=func, fields=fields, by=by,
                         binsize=rng.choice((1, 7, 1 << 70)))
    return TopK(k=rng.choice((1, 5, 1 << 64, 1 << 70)),
                key=rng.choice((planlib.RANK_VALUE, planlib.RANK_GROUP)),
                order=rng.choice((planlib.ORDER_DESC, planlib.ORDER_ASC)))


def random_plan(rng, containing=None):
    """A seeded random valid plan: a random subset of the op table in
    pipeline order (with an op of class ``containing``, when given)."""
    while True:
        aggregate = None
        if rng.random() < 0.7:
            aggregate = _random_op(
                rng, Aggregate, tuple(rng.sample(RECORD_FIELDS,
                                                 rng.randrange(3))))
        ops = []
        if rng.random() < 0.7:
            ops.append(_random_op(rng, Filter))
        if rng.random() < 0.5:
            needed = ()
            if aggregate is not None:
                needed = (("stime", "etime")
                          if aggregate.func == planlib.AGG_SPAN
                          else aggregate.fields + aggregate.by)
            ops.append(Project(fields=needed + _random_op(
                rng, Project).fields))
        if aggregate is not None:
            ops.append(aggregate)
            # A keyed float sum is valid only ranked (it would not regroup).
            if aggregate.by and (rng.random() < 0.6 or (
                    aggregate.func == planlib.AGG_SUM
                    and aggregate.fields[0] in planlib.FLOAT_FIELDS)):
                ops.append(_random_op(rng, TopK))
        plan = Plan(ops=tuple(ops) or (Filter(),))
        if containing is None or any(type(op) is containing
                                     for op in plan.ops):
            return plan


class TestOpTable:
    """``plan.OPS`` is the only op table: each class carries its wire
    ``code``, its ``merge`` operator and its ``execute`` leg, and the codec
    writes its dataclass fields.  These tests hold every class of the table
    to all of them, so no op can join it with a leg missing."""

    def test_codes_are_distinct_and_in_pipeline_order(self):
        codes = [op_type.code for op_type in planlib.OPS]
        assert codes == sorted(set(codes))
        for op_type in planlib.OPS:
            assert op_type.merge in (planlib.MERGE_CONCAT,
                                     planlib.MERGE_HISTOGRAM,
                                     planlib.MERGE_TOP_K,
                                     planlib.MERGE_SPAN)

    @pytest.mark.parametrize("op_type", planlib.OPS,
                             ids=lambda op_type: op_type.__name__)
    def test_every_op_round_trips_through_the_codec(self, op_type):
        rng = random.Random(op_type.code)
        for _ in range(80):
            plan = random_plan(rng, containing=op_type)
            encoded = wire.encode_value(plan)
            assert wire.value_len(plan) == len(encoded)
            decoded = wire.decode_value(encoded)
            assert decoded == plan and decoded is not plan
            assert [type(op) for op in decoded.ops] == \
                [type(op) for op in plan.ops]
            assert planlib.validate(decoded) == planlib.validate(plan)

    def test_every_op_runs_its_leg_and_merge(self, monkeypatch):
        """``reference_evaluate`` runs each op through its own ``execute``
        leg, and merging per-host partials with the operator the terminal
        op selects equals the reference over all hosts' records."""
        calls = Counter()
        for op_type in planlib.OPS:
            def counted(op, state, plan, leg=op_type.execute):
                calls[type(op)] += 1
                return leg(op, state, plan)
            monkeypatch.setattr(op_type, "execute", counted)
        records = [make_record(i) for i in range(60)]
        # Every flow lives on one host, so a top-k group never spans two.
        keys = sorted({flow_key(record.flow_id) for record in records})
        hosts = [[record for record in records
                  if keys.index(flow_key(record.flow_id)) % 3 == host]
                 for host in range(3)]
        terminal = {
            Filter: Plan(ops=(Filter(start=5.0, end=30.0),)),
            Project: Plan(ops=(Filter(), Project(fields=("flow", "bytes")))),
            Aggregate: Plan(ops=(Filter(), Project(), Aggregate(
                func="histogram", fields=("bytes",), by=("flow",),
                binsize=500))),
            TopK: Plan(ops=(Filter(), Project(), Aggregate(
                func="sum", fields=("bytes",), by=("flow",)), TopK(k=4))),
        }
        assert set(terminal) == set(planlib.OPS)
        for op_type, plan in terminal.items():
            assert planlib.merge_operator(plan) == op_type.merge
            reference = planlib.reference_evaluate(records, plan)
            assert reference
            merged = planlib.merge_payloads(plan, [
                planlib.reference_evaluate(part, plan) for part in hosts])
            if op_type.merge == planlib.MERGE_CONCAT:
                merged = sorted(merged)
            assert merged == reference, op_type
        assert set(calls) == set(planlib.OPS)


# --------------------------------------------------------------------------
# Provable pushdown: routing + pruning counters
# --------------------------------------------------------------------------
class TestPushdownCounters:
    def test_flow_key_plan_routes_on_flow_index(self):
        tib = hot_tib()
        sample = make_record(5)
        plan = Plan(ops=(
            Filter(flow_keys=(flow_key(sample.flow_id),),
                   start=0.0, end=50.0),
            Aggregate(func="sum", fields=("bytes", "pkts")),
        ))
        execution = planlib.execute_plan(tib, plan)
        assert execution.scan_stats["hot_flow_routed"] == 1
        assert execution.scan_stats["hot_full_scans"] == 0

    def test_link_plan_routes_on_link_index(self):
        tib = hot_tib()
        sample = make_record(5)
        plan = Plan(ops=(Filter(links=((sample.path[1],
                                        sample.path[2]),)),))
        execution = planlib.execute_plan(tib, plan)
        assert execution.scan_stats["hot_link_routed"] == 1
        assert execution.scan_stats["hot_full_scans"] == 0

    def test_time_plan_walks_hot_records(self):
        tib = hot_tib()
        plan = Plan(ops=(Filter(start=10.0, end=20.0),))
        execution = planlib.execute_plan(tib, plan)
        assert execution.scan_stats["hot_time_routed"] == 1
        assert execution.scan_stats["hot_full_scans"] == 0

    def test_spanning_plan_prunes_cold_tier(self):
        """On a capped TIB, a windowed plan's compiled ScanSpec reaches
        the cold tier's zone-map/bloom pruning - the counters prove the
        filter pushed down end to end."""
        tib = spanning_tib(count=240, cap=12, segment_records=16)
        tib.flush_archive()
        keys = tuple(sorted({flow_key(make_record(i).flow_id)
                             for i in (3, 40)}))
        plan = Plan(ops=(
            Filter(flow_keys=keys, start=0.0, end=40.0),
            Aggregate(func="sum", fields=("bytes",), by=("flow",)),
            TopK(k=5),
        ))
        execution = planlib.execute_plan(tib, plan)
        assert execution.scan_stats["cold_segments_skipped"] > 0
        assert execution.scan_stats["hot_flow_routed"] >= 1
        # and the payload still matches the brute-force reference
        reference = planlib.reference_evaluate(tib.records(), plan)
        assert execution.payload == reference

    def test_unconstrained_aggregate_touches_no_index(self):
        """The maintained per-flow totals serve the unconstrained top-k
        shape: no scan at all, on either tier."""
        tib = spanning_tib()
        execution = planlib.execute_plan(
            tib, planlib.compile_top_k_flows(5))
        assert all(value == 0
                   for value in execution.scan_stats.values())
        assert execution.records_scanned == tib.total_record_count()

    @pytest.mark.parametrize("tib_factory", [hot_tib, spanning_tib])
    def test_scanless_shapes_report_the_snapshot_keys_zeroed(self,
                                                             tib_factory):
        """The two shapes served from the maintained totals scan nothing:
        their stats are exactly ``scan_stat_snapshot()``'s keys, in its
        order, all zero, single-tier and two-tier alike, and every
        execution gets a dict of its own."""
        tib = tib_factory()
        zeros = dict.fromkeys(tib.scan_stat_snapshot(), 0)
        flow = tib.records()[0].flow_id
        for plan in (planlib.compile_get_count(flow),
                     planlib.compile_top_k_flows(5)):
            first = planlib.execute_plan(tib, plan).scan_stats
            assert first == zeros and list(first) == list(zeros)
            first["hot_full_scans"] = 99
            assert planlib.execute_plan(tib, plan).scan_stats == zeros


class TestRankedMerge:
    """``merge_ranked``: partial top-k lists merge as sorted runs."""

    @pytest.mark.parametrize("order", [planlib.ORDER_DESC,
                                       planlib.ORDER_ASC])
    def test_equals_rank_select_over_every_pair(self, order):
        rng = random.Random(7)
        for _ in range(200):
            k = rng.choice((1, 2, 5, 40))
            partials = []
            for _host in range(rng.randrange(5)):
                pairs = [(rng.randrange(30), f"flow-{rng.randrange(12)}")
                         for _ in range(rng.randrange(3 * k))]
                # ties on the value, duplicate pairs, k-truncated runs
                partials.append(planlib.rank_select(pairs, k, order))
            want = planlib.rank_select(
                [pair for partial in partials for pair in partial], k, order)
            assert planlib.merge_ranked(partials, k, order) == want
            rng.shuffle(partials)  # commutative ...
            assert planlib.merge_ranked(partials, k, order) == want
            if len(partials) > 1:  # ... and associative
                folded = planlib.merge_ranked(partials[:2], k, order)
                assert planlib.merge_ranked([folded] + partials[2:], k,
                                            order) == want

    def test_unsorted_partials_still_rank(self):
        partials = [[(1, "a"), (9, "b")], [(5, "c")]]
        assert planlib.merge_ranked(partials, 2) == [(9, "b"), (5, "c")]

    def test_matches_a_full_sort(self):
        rng = random.Random(11)
        pairs = [(rng.randrange(1000), f"f{i}") for i in range(300)]
        runs = [planlib.rank_select(pairs[low:low + 100], 25)
                for low in (0, 100, 200)]
        assert planlib.merge_ranked(runs, 25) == \
            sorted(pairs, reverse=True)[:25]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_an_error_not_a_negative_slice(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            planlib.merge_ranked([[(3, "a"), (2, "b"), (1, "c")]], k)
        # Nothing to rank (every host already failed the same check):
        # the canonical empty aggregate, as before.
        assert planlib.merge_ranked([], k) == []
        assert planlib.merge_ranked([[], []], k) == []
