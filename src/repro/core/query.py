"""Query representation, per-host execution and aggregation semantics.

The controller API (Table 1) ships *queries* to end hosts: ``execute`` runs a
query once, ``install`` registers it for periodic (or event-driven)
execution, ``uninstall`` removes it.  A query is expressed in terms of the
host API - the examples in Section 2.3 are small Python programs over
``getFlows``/``getPaths``/``getCount``/... - and some queries additionally
define how partial results from many hosts are *aggregated*, which is what
the multi-level query mechanism exploits (Section 3.2).

This module defines:

* :class:`Query` - a named query plus its parameters and optional period;
* :class:`QueryResult` - a host's (or aggregation node's) partial result with
  its measured serialized size (the length of its :mod:`repro.core.wire`
  frame), so query traffic can be accounted;
* the plan-built queries - ``get_count``, ``get_duration`` (whose
  payload is the clamped ``(start, end)`` span), ``top_k_flows`` and raw
  ``plan`` - in one name -> plan table, each executed by
  :func:`~repro.core.plan.execute_plan` and merged by
  :func:`~repro.core.plan.merge_payloads`;
* the hand-written handlers of the paper's other applications, merged by
  concatenation unless a ``_mergers`` entry says otherwise.

Every aggregation node merges all of its arrivals in one call.  Every
handler, built-in or registered, returns ``(payload, records_scanned,
scan_stats)``; every merger returns the merged payload.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import repeat
from operator import floordiv
from typing import (Any, Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

from repro.core import plan as planlib
from repro.core import wire
from repro.core.alarms import PC_FAIL
from repro.core.executor import (GatherResult, PlanNode, ScatterGatherExecutor,
                                 micros)
from repro.core.tib import LinkId, TierClock, normalise_time_range
from repro.network.packet import FlowId
from repro.storage.records import ScanSpec

#: Built-in query names.
Q_GET_FLOWS = "get_flows"
Q_GET_PATHS = "get_paths"
Q_GET_COUNT = "get_count"
Q_GET_DURATION = "get_duration"
Q_POOR_TCP_FLOWS = "poor_tcp_flows"
Q_FLOW_SIZE_DISTRIBUTION = "flow_size_distribution"
Q_TOP_K_FLOWS = "top_k_flows"
Q_TRAFFIC_MATRIX = "traffic_matrix"
Q_PATH_CONFORMANCE = "path_conformance"
Q_SUBFLOW_IMBALANCE = "subflow_imbalance"
#: The generic declarative-plan query: ``params["plan"]`` carries a
#: :class:`repro.core.plan.Plan`, executed with full pushdown and merged
#: by the generic operator the plan's terminal op selects.
Q_PLAN = planlib.PLAN_QUERY_NAME


def _memoized(build: Callable) -> Callable:
    """One shared ``build(*params)`` object per distinct parameter shape.

    Every host of a sweep is asked the same question, and compiling a plan
    (or building + normalising a ``ScanSpec``) costs as much as reading a
    40-record TIB; the results are frozen, so equal shapes can share one -
    a cached plan also keeps its memoized validation and pushdown shape.
    List parameters count as tuples; a shape that is still unhashable (a
    list path inside a flow pair) is built fresh every time.
    """
    cached = lru_cache(maxsize=1024)(build)

    @wraps(build)
    def shared(*params: Any) -> Any:
        params = tuple(tuple(param) if isinstance(param, list) else param
                       for param in params)
        try:
            return cached(*params)
        except TypeError:  # unhashable parameter shape
            return build(*params)
    return shared


@_memoized
def _compiled(constructor: str, *params: Any) -> "planlib.Plan":
    """``planlib.<constructor>(*params)``.  The constructor is looked up
    when called, so a wrapped one (a tracer's) is the one that runs."""
    return getattr(planlib, constructor)(*params)


#: The plan-built queries: name -> (the plan a query's params ask, the
#: ``records_scanned`` of a point read or ``None`` for ``execute_plan``'s
#: count, and whether the result carries the per-plan scan stats).
_PLANNED = {
    Q_GET_COUNT: (lambda params: _compiled(
        "compile_get_count", params["flow"], params.get("time_range")),
        1, False),
    Q_GET_DURATION: (lambda params: _compiled(
        "compile_get_duration", params["flow"], params.get("time_range")),
        1, False),
    Q_TOP_K_FLOWS: (lambda params: _compiled(
        "compile_top_k_flows", params.get("k", 1000), params.get("link"),
        params.get("time_range")), None, False),
    Q_PLAN: (lambda params: params["plan"], None, True),
}


#: The record fields whose values are floats: a key-wise sum of one does
#: not survive regrouping (:meth:`QueryEngine.regroupable`).
_FLOAT_FIELDS = ("stime", "etime")


@_memoized
def _fold_spec(link: Any, time_range: Any) -> ScanSpec:
    """The read an aggregate handler folds."""
    start, end = normalise_time_range(time_range)
    return ScanSpec(start=start, end=end,
                    links=() if link is None else (link,))


@dataclass
class Query:
    """A query the controller ships to end hosts.

    Attributes:
        name: one of the ``Q_*`` built-ins (custom names allowed when an
            explicit handler is registered with the engine).
        params: keyword parameters interpreted by the handler.
        period: execution period in seconds for installed queries; ``None``
            means event-driven (run on packet arrival / alert).
    """

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    period: Optional[float] = None

    def request_bytes(self) -> int:
        """Measured serialized size of the query request (codec frame)."""
        return len(wire.encode_query(self))


@dataclass
class QueryResult:
    """A partial (per-host or per-subtree) query result.

    Attributes:
        query: the query this result answers.
        payload: handler-specific result value.
        wire_bytes: *measured* serialized size of the result message (the
            :mod:`repro.core.wire` frame length - in the worker modes, the
            frame that actually crossed the socket); this is what the traffic
            accounting of the query-performance experiments sums.
        records_scanned: number of TIB records touched while producing the
            payload (the compute-cost proxy).
        host: the host (or aggregation node) that produced the result.
        partial: ``True`` when one or more hosts' partial results are
            missing from ``payload`` (dead agent, timeout, lost response) -
            debug apps must treat "no anomaly" in a partial result as
            "couldn't ask everyone", not as a clean bill of health.
        warnings: structured :class:`~repro.core.executor.ExecWarning`
            entries describing what went wrong (and what was retried)
            while gathering.
        alarms: alarms raised at the host while producing this result,
            piggybacked on the encoded reply frame (an agent-server worker
            has no channel of its own to the controller's alarm bus).  The
            cluster drains them into the bus on receipt; in-process
            executions leave this empty because their agents raise straight
            into the bus.
        scan_stats: per-plan pushdown counters (hot-index routing + cold
            pruning work, see ``Tib.scan_stat_snapshot``), populated only
            by plan queries; rides the result frame's tail and is summed
            key-wise when partials merge.
        stages: a traced execution's stages, whole microseconds keyed
            ``t.<stage>`` (a worker's ride the scan-stat tail of its reply
            and are split off on decode); ``None`` when untraced, never
            merged.
    """

    query: Query
    payload: Any
    wire_bytes: int
    records_scanned: int = 0
    host: str = ""
    partial: bool = False
    warnings: Tuple[Any, ...] = ()
    alarms: Tuple[Any, ...] = ()
    scan_stats: Dict[str, int] = field(default_factory=dict)
    stages: Optional[Dict[str, int]] = None


def measured_result_wire_bytes(result: "QueryResult") -> int:
    """Measured frame size of a result.  A payload outside the codec's
    tagged-value set could never cross a real wire: sizing it raises
    ``WireError``, which fails its host like any other handler error."""
    return wire.result_wire_bytes(result)


# --------------------------------------------------------------------------
# Per-host execution
# --------------------------------------------------------------------------
class QueryEngine:
    """Executes queries against a PathDump agent and merges partial results.

    The agent is read through ``agent.host``, ``agent.tib``,
    ``agent.monitor`` and ``agent.alarm`` only, so a worker's host server
    serves every built-in the way a :class:`PathDumpAgent` does.
    """

    def __init__(self) -> None:
        self._handlers: Dict[str, Callable] = {
            Q_GET_FLOWS: self._run_get_flows,
            Q_GET_PATHS: self._run_get_paths,
            Q_POOR_TCP_FLOWS: self._run_poor_tcp_flows,
            Q_FLOW_SIZE_DISTRIBUTION: self._run_flow_size_distribution,
            Q_TRAFFIC_MATRIX: self._run_traffic_matrix,
            Q_PATH_CONFORMANCE: self._run_path_conformance,
            Q_SUBFLOW_IMBALANCE: self._run_subflow_imbalance,
        }
        self._mergers: Dict[str, Callable] = {
            Q_FLOW_SIZE_DISTRIBUTION: planlib.merge_key_sums,
            Q_TRAFFIC_MATRIX: planlib.merge_key_sums,
        }

    def names(self) -> FrozenSet[str]:
        """Every query name this engine answers."""
        return frozenset(self._handlers).union(_PLANNED)

    def register(self, name: str, handler: Callable,
                 merger: Optional[Callable] = None) -> None:
        """Register a custom query handler (and optionally a merger) under
        a name that is not plan-built.

        ``handler(agent, params)`` returns ``(payload, records_scanned,
        scan_stats)``; ``merger(query, payloads)`` returns the merged
        payload (default: concatenation).  It is called once per
        aggregation node with every arrival's payload, children in tree
        order then the node's local result, and must equal its own left
        fold: ``merger(q, [a, b, c]) == merger(q, [merger(q, [a, b]), c])``.
        A plan-built name raises ``ValueError``: its plan answers it, so a
        handler or merger registered under it would never run.
        """
        if name in _PLANNED:
            raise ValueError(f"query {name!r} is built from a plan and "
                             f"cannot take a handler")
        self._handlers[name] = handler
        if merger is not None:
            self._mergers[name] = merger

    # ------------------------------------------------------------------ exec
    def execute(self, agent, query: Query, measure_wire: bool = True,
                stages: Optional[Dict[str, int]] = None) -> QueryResult:
        """Run ``query`` on ``agent`` and return its partial result.

        ``wire_bytes`` is the *measured* encoded size of the result frame
        (identical to what an agent-server worker would put on the pipe).
        ``measure_wire=False`` leaves ``wire_bytes`` at 0 for callers that
        encode the frame themselves anyway (the agent-server worker) - the
        decoded side reconstructs the same value from the frame length.

        A traced run passes ``stages``, which gets the run's split in
        whole microseconds: ``t.compile`` (building a plan-built query's
        plan), ``t.hot`` / ``t.cold`` (the tiers' reads, clocked by the
        TIB), ``t.fold`` (the rest: filtering, aggregating or
        materialising what was read, maintained totals included) and,
        when it sizes the result, ``t.encode`` (sizing the frame stands in
        for encoding it in process; a worker's codec stamps its own).
        """
        clock = None
        if stages is not None:
            clock = agent.tib.read_clock = TierClock()
            started = compiled = time.perf_counter()
        planned = _PLANNED.get(query.name)
        try:
            if planned is not None:
                build, point_read, with_stats = planned
                plan = build(query.params)
                if clock is not None:
                    compiled = time.perf_counter()
                execution = planlib.execute_plan(agent.tib, plan)
                payload = execution.payload
                scanned = (execution.records_scanned if point_read is None
                           else point_read)
                scan_stats = execution.scan_stats if with_stats else {}
            else:
                handler = self._handlers.get(query.name)
                if handler is None:
                    raise KeyError(f"unknown query {query.name!r}")
                payload, scanned, scan_stats = handler(agent, query.params)
        finally:
            if clock is not None:
                agent.tib.read_clock = None
        if stages is not None and clock is not None:
            reads = clock.hot_s + clock.cold_s
            stages["t.compile"] = micros(compiled - started)
            stages["t.hot"] = micros(clock.hot_s)
            stages["t.cold"] = micros(clock.cold_s)
            stages["t.fold"] = micros(time.perf_counter() - compiled - reads)
        result = QueryResult(query=query, payload=payload, wire_bytes=0,
                             records_scanned=scanned, host=agent.host,
                             scan_stats=scan_stats)
        if measure_wire:
            sized = time.perf_counter() if stages is not None else 0.0
            result.wire_bytes = measured_result_wire_bytes(result)
            if stages is not None:
                stages["t.encode"] = micros(time.perf_counter() - sized)
        return result

    def merge(self, query: Query, results: Sequence[QueryResult],
              measure_wire: bool = True) -> QueryResult:
        """Merge partial results into one (aggregation-tree reduction).

        ``measure_wire=False`` skips sizing the merged payload, for a
        gather that sizes a node's result only at the point it is
        actually sent (the root's never travels).
        """
        payloads = [r.payload for r in results]
        planned = _PLANNED.get(query.name)
        if planned is not None:
            payload = planlib.merge_payloads(planned[0](query.params),
                                             payloads)
        else:
            merger = self._mergers.get(query.name, planlib.merge_concat)
            payload = merger(query, payloads)
        scan_stats = planlib.merge_key_sums(
            None, [partial.scan_stats for partial in results])
        result = QueryResult(
            query=query, payload=payload, wire_bytes=0,
            records_scanned=sum(r.records_scanned for r in results),
            host="aggregate", scan_stats=scan_stats)
        if measure_wire:
            result.wire_bytes = measured_result_wire_bytes(result)
        return result

    def regroupable(self, query: Query) -> bool:
        """Whether ``query``'s merge may take its arrivals in consecutive
        runs - ``merge([merge(A), merge(B)]) == merge(A + B)``, byte for
        byte - so that a worker may fold the runs of a plan lying in its
        shard.  True of every built-in but a key-wise sum of a float field
        (a plan summing ``stime`` or ``etime`` by key), whose additions
        round differently when regrouped; counts, bytes and packets are
        ints, exact in any grouping.  A custom merger is not known to be.
        """
        planned = _PLANNED.get(query.name)
        if planned is None:
            return self._mergers.get(query.name) in (None,
                                                     planlib.merge_key_sums)
        terminal = planned[0](query.params).ops[-1]
        return not (isinstance(terminal, planlib.Aggregate)
                    and terminal.func == planlib.AGG_SUM and terminal.by
                    and terminal.fields[0] in _FLOAT_FIELDS)

    def fold(self, query: Query, plan: PlanNode,
             work: Callable[[str], QueryResult],
             executor: Optional[ScatterGatherExecutor] = None
             ) -> GatherResult:
        """Fold ``query``'s partials over ``plan``: ``work(host)`` is each
        host's partial, every node merges its arrivals in one
        :meth:`merge` call, and what a node sends its parent is sized -
        not encoded - where it is sent (the root's accumulator never
        travels, so it is never sized).

        The one fold of the query path: the cluster runs it over a
        query's plan in process (``executor`` its deadline, retries and
        transport) and over the partials a worker fetch returns, and a
        worker runs it over each fold unit of its shard.
        """
        def response_bytes(result: QueryResult) -> int:
            if not result.wire_bytes:  # an unmeasured merge accumulator
                result.wire_bytes = measured_result_wire_bytes(result)
            return result.wire_bytes

        merge = functools.partial(self.merge, query, measure_wire=False)
        return (executor or ScatterGatherExecutor()).run(
            plan, work, merge, response_bytes=response_bytes)

    # -------------------------------------------------------------- handlers
    @staticmethod
    def _run_get_flows(agent, params):
        flows = agent.tib.get_flows(params.get("link"),
                                    params.get("time_range"))
        # Both tiers are scanned candidates (and the total is invariant
        # under the hot/cold split, keeping result frames byte-identical
        # between capped local agents and their workers).
        return flows, agent.tib.total_record_count(), {}

    @staticmethod
    def _run_get_paths(agent, params):
        paths = agent.tib.get_paths(params["flow_id"], params.get("link"),
                                    params.get("time_range"))
        return paths, len(paths), {}

    @staticmethod
    def _run_poor_tcp_flows(agent, params):
        flows = agent.monitor.get_poor_tcp_flows(params.get("threshold"))
        return flows, len(agent.monitor.flows), {}

    @staticmethod
    def _run_flow_size_distribution(agent, params):
        """Histogram of flow sizes on a link (the Section 2.3 example).

        The TIB keeps exactly one record per (flow, path), so each row's
        byte count already is the pair's ``getCount`` total: the histogram
        is binned straight off the ``bytes`` column of both tiers
        (:meth:`Tib.fold <repro.core.tib.Tib.fold>`) - no cold row is
        materialised for it.  A fold has no row order, so the keys are
        emitted sorted: one canonical payload whatever the tier split.
        """
        links = params.get("links")
        if links is None:
            links = [params.get("link")]
        time_range = params.get("time_range")
        binsize = params.get("binsize", 10_000)
        per_label: Dict[str, Counter] = {}
        for link in links:
            label = _link_label(link)
            for (nbytes,) in agent.tib.fold(_fold_spec(link, time_range),
                                            ("bytes",)):
                binned = map(floordiv, nbytes, repeat(binsize))
                if label in per_label:
                    per_label[label].update(binned)
                else:  # most hosts hold no row of a narrow window
                    per_label[label] = Counter(binned)
        histogram = {(label, size_bin): bins[size_bin]
                     for label, bins in sorted(per_label.items())
                     for size_bin in sorted(bins)}
        return histogram, sum(histogram.values()), {}

    @staticmethod
    def _run_traffic_matrix(agent, params):
        """Bytes between (source ToR, destination ToR) pairs seen locally,
        summed off the ``bytes`` and ``path`` columns of both tiers
        (:meth:`Tib.fold <repro.core.tib.Tib.fold>`).  Keys are emitted
        sorted, like :meth:`_run_flow_size_distribution`'s.
        """
        matrix: Dict[Tuple[str, str], int] = {}
        scanned = 0
        for nbytes, paths in agent.tib.fold(
                _fold_spec(None, params.get("time_range")),
                ("bytes", "path")):
            scanned += len(paths)
            for path, count in zip(paths, nbytes):
                if len(path) >= 3:
                    key = (path[1], path[-2])
                    matrix[key] = matrix.get(key, 0) + count
        return dict(sorted(matrix.items())), scanned, {}

    @staticmethod
    def _run_path_conformance(agent, params):
        """The Section 2.3 path-conformance check, run at the end host.

        Parameters: ``max_hops`` (maximum switch-path length), ``forbidden``
        (switches packets must avoid), optional ``flow_id`` to restrict the
        check, optional ``time_range``.  Violations raise PC_FAIL alarms via
        the agent and are returned as (flow, offending paths) pairs.
        """
        max_hops = params.get("max_hops")
        forbidden = set(params.get("forbidden", ()))
        flow_filter = params.get("flow_id")
        time_range = params.get("time_range")
        violations: List[Tuple[FlowId, List[Tuple[str, ...]]]] = []
        flows = agent.tib.get_flows(None, time_range)
        scanned = len(flows)
        by_flow: Dict[FlowId, List[Tuple[str, ...]]] = {}
        for flow_id, path in flows:
            if flow_filter is not None and flow_id != flow_filter:
                continue
            by_flow.setdefault(flow_id, []).append(path)
        for flow_id, paths in by_flow.items():
            offending = []
            for path in paths:
                switch_hops = len(path) - 2 if len(path) >= 2 else len(path)
                too_long = max_hops is not None and switch_hops >= max_hops
                bad_switch = bool(forbidden.intersection(path))
                if too_long or bad_switch:
                    offending.append(path)
            if offending:
                violations.append((flow_id, offending))
                agent.alarm(flow_id, PC_FAIL, offending)
        return violations, scanned, {}

    @staticmethod
    def _run_subflow_imbalance(agent, params):
        """Check per-path byte balance of sprayed flows (Section 4.2).

        Parameters: ``ratio`` - maximum allowed ratio between the largest and
        smallest per-path byte counts of a flow before it is reported.
        """
        ratio_limit = params.get("ratio", 2.0)
        time_range = params.get("time_range")
        flows = agent.tib.get_flows(None, time_range)
        per_flow: Dict[FlowId, List[Tuple[Tuple[str, ...], int]]] = {}
        for flow_id, path in flows:
            plan = planlib.compile_get_count((flow_id, path), time_range)
            nbytes, _ = planlib.execute_plan(agent.tib, plan).payload
            per_flow.setdefault(flow_id, []).append((path, nbytes))
        offenders = []
        for flow_id, entries in per_flow.items():
            if len(entries) < 2:
                continue
            values = [v for _, v in entries if v > 0]
            if not values:
                continue
            if max(values) / max(1, min(values)) > ratio_limit:
                offenders.append((flow_id, entries))
        return offenders, len(flows), {}


def _link_label(link: Optional[LinkId]) -> str:
    """Readable label for a link parameter (used as histogram key prefix)."""
    if link is None:
        return "*-*"
    a, b = link
    return f"{a or '*'}-{b or '*'}"
