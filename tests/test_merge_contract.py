"""The merge contract: one call per aggregation node.

Every aggregation node reduces all of its arrivals - its children's
partials in tree order, then its local result - with a single
``QueryEngine.merge`` call, so a merger must equal its own pairwise left
fold.  A seeded fuzz holds every served built-in's merge (concat,
key-sum, ranked top-k, span) and every plan terminal op to that, byte for
byte under ``wire.encode_value``; call-count pins hold the executor to one
merge per node.
"""

import functools
import random

import pytest

from repro.core import (MECHANISM_DIRECT, MECHANISM_MULTILEVEL,
                        AggregationTree, Q_FLOW_SIZE_DISTRIBUTION,
                        Q_GET_COUNT, Q_GET_DURATION, Q_GET_FLOWS,
                        Q_GET_PATHS, Q_POOR_TCP_FLOWS, Q_TOP_K_FLOWS,
                        Q_TRAFFIC_MATRIX, Query, QueryCluster, wire)
from repro.core import plan as planlib
from repro.core.query import (Q_PATH_CONFORMANCE, Q_PLAN,
                              Q_SUBFLOW_IMBALANCE, QueryEngine, QueryResult)
from repro.core.worker import SERVED_QUERIES
from repro.network.packet import PROTO_TCP, FlowId
from repro.topology import FatTreeTopology

CONCAT, KEY_SUM, RANKED, SPAN = "concat", "key-sum", "ranked", "span"

#: The flow a point query's merge compiles its plan for.
FLOW = FlowId("h0", "h1", 1000, 80, PROTO_TCP)

#: Numbers that collide under comparison and addition: int/float twins,
#: both zeros, and values that cancel.
NUMBERS = (0, 0.0, -0.0, 1, 1.0, -1, 2, 2.5, -2.5, 7, 7.0, 1e16, -1e16, 3)


def random_rows(rng):
    return [(rng.choice("abc"), rng.choice(NUMBERS), (rng.randrange(3),))
            for _ in range(rng.choice((0, 0, 1, 3, 6)))]


#: The ints of :data:`NUMBERS`: what counts, bytes and packets sum.
INTS = tuple(number for number in NUMBERS if type(number) is int)


def random_sums(rng, numbers=NUMBERS):
    return {(rng.choice("xy"), rng.randrange(4)): rng.choice(numbers)
            for _ in range(rng.choice((0, 0, 1, 3, 8)))}


def random_ranking(rng, k, order):
    """A partial as a host emits it - the k extremes of its pairs - or,
    now and then, the same pairs unsorted."""
    pairs = [(rng.choice(NUMBERS), rng.choice("pqr"))
             for _ in range(rng.choice((0, 0, 1, 4, 9)))]
    if rng.random() < 0.2:
        return pairs
    return planlib.rank_select(pairs, k, order)


def random_span(rng):
    """A host's ``(start, end)`` span, or the ``()`` of a host that held
    no matching record."""
    if rng.random() < 0.3:
        return ()
    return tuple(sorted(rng.sample(NUMBERS, 2)))


def cases():
    """(query, payload kind, ranking k and order) for every served
    built-in and every plan terminal op."""
    ranked_k = 3  # smaller than most totals: truncation is exercised
    yield Query(Q_GET_FLOWS), CONCAT, None
    yield Query(Q_GET_PATHS), CONCAT, None
    yield Query(Q_GET_COUNT, {"flow": FLOW}), CONCAT, None
    yield Query(Q_POOR_TCP_FLOWS), CONCAT, None
    yield Query(Q_PATH_CONFORMANCE), CONCAT, None
    yield Query(Q_SUBFLOW_IMBALANCE), CONCAT, None
    yield Query(Q_FLOW_SIZE_DISTRIBUTION), KEY_SUM, None
    yield Query(Q_TRAFFIC_MATRIX), KEY_SUM, None
    yield (Query(Q_TOP_K_FLOWS, {"k": ranked_k}), RANKED,
           (ranked_k, planlib.ORDER_DESC))
    terminals = [
        (planlib.Plan(ops=(planlib.Filter(),)), CONCAT, None),
        (planlib.Plan(ops=(planlib.Project(fields=("bytes",)),)),
         CONCAT, None),
        (planlib.Plan(ops=(planlib.Aggregate(func=planlib.AGG_SUM,
                                             fields=("bytes", "pkts")),)),
         CONCAT, None),
        (planlib.Plan(ops=(planlib.Aggregate(
            func=planlib.AGG_SUM, fields=("bytes",), by=("flow",)),)),
         KEY_SUM, None),
        (planlib.Plan(ops=(planlib.Aggregate(
            func=planlib.AGG_HISTOGRAM, fields=("bytes",), binsize=10),)),
         KEY_SUM, None)]
    for order in (planlib.ORDER_DESC, planlib.ORDER_ASC):
        terminals.append((planlib.Plan(ops=(
            planlib.Aggregate(func=planlib.AGG_SUM, fields=("bytes",),
                              by=("flow",)),
            planlib.TopK(k=ranked_k, order=order))), RANKED,
            (ranked_k, order)))
    for plan, kind, ranking in terminals:
        yield Query(Q_PLAN, {"plan": plan}), kind, ranking
    yield Query(Q_GET_DURATION, {"flow": FLOW}), SPAN, None
    yield (Query(Q_PLAN, {"plan": planlib.Plan(ops=(
        planlib.Filter(start=1.0), planlib.Aggregate(func="span")))}),
        SPAN, None)


CASES = list(cases())


def test_cases_cover_every_merger_and_terminal_op():
    named = {query.name for query, _kind, _ranking in CASES}
    assert SERVED_QUERIES <= named
    operators = {planlib.merge_operator(query.params["plan"])
                 for query, _kind, _ranking in CASES
                 if query.name == Q_PLAN}
    assert operators == {planlib.MERGE_CONCAT, planlib.MERGE_HISTOGRAM,
                         planlib.MERGE_TOP_K, planlib.MERGE_SPAN}
    terminals = {type(query.params["plan"].ops[-1])
                 for query, _kind, _ranking in CASES if query.name == Q_PLAN}
    assert terminals == set(planlib.OPS)


def random_results(rng, query, kind, ranking, sums=NUMBERS):
    """A plan-ordered arrival list of partials of ``kind`` (a key-wise
    sum's values drawn from ``sums``)."""
    results = []
    for index in range(rng.choice((2, 2, 3, 5, 9))):
        if kind == CONCAT:
            payload = random_rows(rng)
        elif kind == KEY_SUM:
            payload = random_sums(rng, sums)
        elif kind == SPAN:
            payload = random_span(rng)
        else:
            payload = random_ranking(rng, *ranking)
        stats = {key: rng.randrange(5) for key in
                 rng.sample(("hot", "cold", "pruned"), rng.randrange(3))}
        results.append(QueryResult(query, payload, wire_bytes=0,
                                   records_scanned=rng.randrange(9),
                                   host=f"h{index}", scan_stats=stats))
    return results


def assert_same_merge(merged, other):
    assert wire.encode_value(merged.payload) == \
        wire.encode_value(other.payload)
    assert merged.scan_stats == other.scan_stats
    assert list(merged.scan_stats) == list(other.scan_stats)
    assert merged.records_scanned == other.records_scanned


CASE_IDS = [f"{query.name}-{index}" for index, (query, *_)
            in enumerate(CASES)]


@pytest.mark.parametrize("query,kind,ranking", CASES, ids=CASE_IDS)
def test_merge_of_all_equals_the_pairwise_left_fold(query, kind, ranking):
    engine = QueryEngine()
    rng = random.Random(f"merge-contract-{query.name}-{kind}-{ranking}")
    for _ in range(150):
        results = random_results(rng, query, kind, ranking)
        merged = engine.merge(query, results, measure_wire=False)
        folded = functools.reduce(
            lambda acc, value: engine.merge(query, [acc, value],
                                            measure_wire=False), results)
        assert wire.encode_value(merged.payload) == \
            wire.encode_value(folded.payload)
        assert merged.scan_stats == folded.scan_stats
        assert list(merged.scan_stats) == list(folded.scan_stats)
        assert merged.records_scanned == folded.records_scanned
        if kind == RANKED:  # the head of the stable sort of every pair
            k, order = ranking
            pairs = [pair for result in results for pair in result.payload]
            head = sorted(pairs, reverse=order == planlib.ORDER_DESC)[:k]
            assert wire.encode_value(merged.payload) == \
                wire.encode_value(head)
        if kind == SPAN:  # the extremes of the non-empty spans
            spans = [result.payload for result in results if result.payload]
            extent = (min(start for start, _ in spans),
                      max(end for _, end in spans)) if spans else ()
            assert wire.encode_value(merged.payload) == \
                wire.encode_value(extent)


@pytest.mark.parametrize("query,kind,ranking", CASES, ids=CASE_IDS)
def test_merge_is_associative_at_every_split_point(query, kind, ranking):
    """``merge([merge(A), merge(B)]) == merge(A + B)`` for every split of
    a plan-ordered arrival list into a non-empty head and tail - and for
    a random cut into consecutive runs: what lets a worker fold the runs
    of a plan that lie in its shard and the controller fold the rest, for
    every served query.  A key-wise sum holds it over the ints these
    cases sum (counts, bytes), not over floats - see
    :func:`test_a_terminal_float_key_sum_is_rejected`."""
    engine = QueryEngine()

    def merge(results):
        return engine.merge(query, results, measure_wire=False)

    rng = random.Random(f"merge-associative-{query.name}-{kind}-{ranking}")
    for _ in range(120):
        results = random_results(rng, query, kind, ranking, sums=INTS)
        whole = merge(results)
        for split in range(1, len(results)):
            assert_same_merge(merge([merge(results[:split]),
                                     merge(results[split:])]), whole)
        cuts = sorted(rng.sample(range(1, len(results)),
                                 rng.randrange(len(results))))
        runs = [results[start:end] for start, end
                in zip([0] + cuts, cuts + [len(results)])]
        assert_same_merge(merge([merge(run) for run in runs]), whole)


def test_a_terminal_float_key_sum_is_rejected():
    """A key-wise sum of floats fails the associativity contract - float
    additions round differently when regrouped - so the validator rejects
    the one plan whose payload it would be, a terminal sum of ``stime``
    or ``etime`` by key; the same sum over an int field, or ranked by a
    ``TopK`` (whose merge re-selects and adds nothing), is served."""
    plans = {field: planlib.Plan(ops=(planlib.Aggregate(
        func=planlib.AGG_SUM, fields=(field,), by=("flow",)),))
        for field in planlib.NUMERIC_FIELDS}
    results = [{"f": value} for value in (0.1, 0.2, 0.3)]
    whole = planlib.merge_payloads(plans["stime"], results)
    runs = planlib.merge_payloads(plans["stime"], [
        results[0], planlib.merge_payloads(plans["stime"], results[1:])])
    assert whole == {"f": 0.6000000000000001} and runs == {"f": 0.6}
    rejected = {}
    for field, plan in plans.items():
        try:
            planlib.validate(plan)
        except planlib.PlanError as error:
            rejected[field] = [issue.code for issue in error.issues]
    assert rejected == {"stime": [planlib.PE_FUNC],
                        "etime": [planlib.PE_FUNC]}
    ranked = planlib.Plan(ops=plans["stime"].ops + (planlib.TopK(k=3),))
    planlib.validate(ranked)


@pytest.mark.parametrize("split", [1, 2, 3])
@pytest.mark.parametrize("tail", [1, 20])  # a sort, then a heap merge
def test_ranked_ties_across_int_and_float_associate(split, tail):
    """Equal-ranking pairs that encode differently keep their arrival
    order when the list is merged in two runs, wherever it is split."""
    query = Query(Q_TOP_K_FLOWS, {"k": 2})
    engine = QueryEngine()
    results = [QueryResult(query, payload, 0) for payload in
               [[(5.0, "f")], [(5, "f")]] + [[(5, "f"), (1, "g")]] * tail]
    whole = engine.merge(query, results).payload
    assert [type(value) for value, _flow in whole] == [float, int]
    runs = engine.merge(query, [engine.merge(query, results[:split]),
                                engine.merge(query, results[split:])])
    assert wire.encode_value(runs.payload) == wire.encode_value(whole)


@pytest.mark.parametrize("tail", [1, 20])  # a sort, then a heap merge
def test_ranked_ties_across_int_and_float_keep_arrival_order(tail):
    """Equal-ranking pairs that encode differently survive in arrival
    order, whether merged at once or pairwise."""
    query = Query(Q_TOP_K_FLOWS, {"k": 2})
    engine = QueryEngine()
    results = [QueryResult(query, payload, 0) for payload in
               [[(5.0, "f")], [(5, "f")]] + [[(5, "f"), (1, "g")]] * tail]
    merged = engine.merge(query, results).payload
    assert [type(value) for value, _flow in merged] == [float, int]
    folded = functools.reduce(
        lambda acc, value: engine.merge(query, [acc, value]), results)
    assert wire.encode_value(merged) == wire.encode_value(folded.payload)


def test_key_sums_never_emit_negative_zero():
    query = Query(Q_FLOW_SIZE_DISTRIBUTION)
    results = [QueryResult(query, {("l", 0): -0.0}, 0),
               QueryResult(query, {("l", 0): -0.0}, 0)]
    payload = QueryEngine().merge(query, results).payload
    assert wire.encode_value(payload) == wire.encode_value({("l", 0): 0.0})


# --------------------------------------------------------------------------
# One merge call per aggregation node
# --------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fattree8():
    return FatTreeTopology(8)


def counted_merges(cluster, monkeypatch):
    calls = []
    merge = cluster.engine.merge

    def counting(query, results, measure_wire=True):
        calls.append(len(results))
        return merge(query, results, measure_wire=measure_wire)

    monkeypatch.setattr(cluster.engine, "merge", counting)
    return calls


def test_direct_gather_over_128_hosts_merges_once(fattree8, monkeypatch):
    cluster = QueryCluster(fattree8)
    assert len(cluster.hosts) == 128
    calls = counted_merges(cluster, monkeypatch)
    result = cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 5}),
                             mechanism=MECHANISM_DIRECT)
    assert not result.partial
    assert calls == [128]


def test_multilevel_gather_merges_once_per_interior_node(fattree8,
                                                         monkeypatch):
    cluster = QueryCluster(fattree8)
    calls = counted_merges(cluster, monkeypatch)
    result = cluster.execute(Query(Q_FLOW_SIZE_DISTRIBUTION),
                             mechanism=MECHANISM_MULTILEVEL)
    assert not result.partial
    arrivals = [len(node.children) + (node.host is not None)
                for node in AggregationTree(cluster.hosts).nodes()]
    assert sorted(calls) == sorted(count for count in arrivals if count > 1)
    # The root, the 7 level-1 hosts and the 24 level-2 hosts that lead
    # any of the 93 leaves.
    assert len(calls) == 1 + 7 + 24
