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
  its serialized size, so query traffic can be accounted;
* the built-in query handlers used by the paper's applications: flow records
  retrieval, flow-size distribution, top-k flows, poor TCP flows, traffic
  matrix, path conformance; and
* per-query ``merge`` functions implementing the aggregation-tree reduction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from operator import floordiv
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import plan as planlib
from repro.core import wire
from repro.core.alarms import PC_FAIL, Alarm
from repro.core.tib import LinkId, TimeRange, normalise_time_range
from repro.network.packet import PROTO_TCP, FlowId
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

# Pre-codec size estimators.  Reported wire sizes are *measured* now
# (``len(encoded)`` of the :mod:`repro.core.wire` frames); the handlers still
# compute these cheap estimates, kept on ``QueryResult.estimated_wire_bytes``
# as a cross-check against the codec (see the wire tests).
#: Estimated serialized bytes of small scalar payloads.
_SCALAR_BYTES = 16
#: Estimated serialized bytes of one (key, value) pair in histograms / top-k.
_KV_BYTES = 24
#: Estimated serialized bytes of one path element.
_PATH_ELEMENT_BYTES = 2
#: Estimated serialized size of a query/install request message.
QUERY_REQUEST_BYTES = 128


# The compiled plans the rebased built-ins execute are frozen and their
# validation is memoized, so hashable parameter shapes share one plan per
# distinct (flow, window) / (k, link, window) - repeat queries skip the
# dataclass construction and validation entirely.
@lru_cache(maxsize=1024)
def _cached_get_count_plan(flow: Any, time_range: Any) -> "planlib.Plan":
    return planlib.compile_get_count(flow, time_range)


@lru_cache(maxsize=1024)
def _cached_top_k_plan(k: int, link: Any, time_range: Any) -> "planlib.Plan":
    return planlib.compile_top_k_flows(k, link, time_range)


def _compiled_get_count(flow: Any, time_range: Any) -> "planlib.Plan":
    if time_range is not None:
        time_range = tuple(time_range)
    try:
        return _cached_get_count_plan(flow, time_range)
    except TypeError:  # unhashable parameter shape (e.g. a list path)
        return planlib.compile_get_count(flow, time_range)


def _compiled_top_k(k: int, link: Any, time_range: Any) -> "planlib.Plan":
    if time_range is not None:
        time_range = tuple(time_range)
    try:
        return _cached_top_k_plan(k, link, time_range)
    except TypeError:  # unhashable parameter shape (e.g. a list link)
        return planlib.compile_top_k_flows(k, link, time_range)


# Likewise the read an aggregate handler folds: every host of a sweep is
# asked with the same link and window, and building + normalising a
# ``ScanSpec`` costs as much as reading a 40-record TIB.
@lru_cache(maxsize=1024)
def _cached_fold_spec(link: Any, time_range: Any) -> ScanSpec:
    start, end = normalise_time_range(time_range)
    return ScanSpec(start=start, end=end,
                    links=() if link is None else (link,))


def _fold_spec(link: Any, time_range: Any) -> ScanSpec:
    if link is not None:
        link = tuple(link)
    if time_range is not None:
        time_range = tuple(time_range)
    try:
        return _cached_fold_spec(link, time_range)
    except TypeError:  # unhashable parameter shape
        return _cached_fold_spec.__wrapped__(link, time_range)


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

    def estimated_request_bytes(self) -> int:
        """The pre-codec size estimate (cross-check only)."""
        return QUERY_REQUEST_BYTES + 8 * len(self.params)


@dataclass
class QueryResult:
    """A partial (per-host or per-subtree) query result.

    Attributes:
        query: the query this result answers.
        payload: handler-specific result value.
        wire_bytes: *measured* serialized size of the result message (the
            :mod:`repro.core.wire` frame length - in process mode, the
            frame that actually crossed the pipe); this is what the traffic
            accounting of the query-performance experiments sums.
        records_scanned: number of TIB records touched while producing the
            payload (the compute-cost proxy).
        estimated_wire_bytes: the handler's pre-codec size estimate, kept
            as a cross-check against the measured size.
        host: the host (or aggregation node) that produced the result.
        partial: ``True`` when one or more hosts' partial results are
            missing from ``payload`` (dead agent, timeout, lost response) -
            debug apps must treat "no anomaly" in a partial result as
            "couldn't ask everyone", not as a clean bill of health.
        warnings: structured :class:`~repro.core.executor.ExecWarning`
            entries describing what went wrong (and what was hedged or
            retried) while gathering.
        alarms: alarms raised at the host while producing this result,
            piggybacked on the encoded reply frame (an agent-server worker
            has no channel of its own to the controller's alarm bus).  The
            cluster drains them into the bus on receipt; in-process
            executions leave this empty because their agents raise straight
            into the bus.
        scan_stats: per-plan pushdown counters (hot-index routing + cold
            pruning work, see ``Tib.scan_stat_snapshot``), populated only
            by plan queries; rides the ``MSG_PLAN_RESULT`` frame tail and
            is summed key-wise when partials merge.
    """

    query: Query
    payload: Any
    wire_bytes: int
    records_scanned: int = 0
    estimated_wire_bytes: int = 0
    host: str = ""
    partial: bool = False
    warnings: Tuple[Any, ...] = ()
    alarms: Tuple[Any, ...] = ()
    scan_stats: Dict[str, int] = field(default_factory=dict)


def measured_result_wire_bytes(result: "QueryResult") -> int:
    """Measured frame size of a result, estimate-backed for exotic payloads.

    Built-in query payloads always encode; a *custom* handler may return a
    payload outside the codec's tagged-value set, which must not kill the
    query (custom handlers predate the codec) - its handler-supplied size
    estimate stands in, exactly as before the codec existed.
    """
    try:
        return wire.result_wire_bytes(result)
    except wire.WireError:
        return result.estimated_wire_bytes


# --------------------------------------------------------------------------
# Per-host execution
# --------------------------------------------------------------------------
class QueryEngine:
    """Executes queries against a PathDump agent and merges partial results."""

    def __init__(self) -> None:
        self._handlers: Dict[str, Callable] = {
            Q_GET_FLOWS: self._run_get_flows,
            Q_GET_PATHS: self._run_get_paths,
            Q_GET_COUNT: self._run_get_count,
            Q_GET_DURATION: self._run_get_duration,
            Q_POOR_TCP_FLOWS: self._run_poor_tcp_flows,
            Q_FLOW_SIZE_DISTRIBUTION: self._run_flow_size_distribution,
            Q_TOP_K_FLOWS: self._run_top_k_flows,
            Q_TRAFFIC_MATRIX: self._run_traffic_matrix,
            Q_PATH_CONFORMANCE: self._run_path_conformance,
            Q_SUBFLOW_IMBALANCE: self._run_subflow_imbalance,
            Q_PLAN: self._run_plan,
        }
        self._mergers: Dict[str, Callable] = {
            Q_GET_FLOWS: _merge_concat,
            Q_GET_PATHS: _merge_concat,
            Q_POOR_TCP_FLOWS: _merge_concat,
            Q_FLOW_SIZE_DISTRIBUTION: _merge_histograms,
            Q_TOP_K_FLOWS: _merge_top_k,
            Q_TRAFFIC_MATRIX: _merge_histograms,
            Q_PATH_CONFORMANCE: _merge_concat,
            Q_SUBFLOW_IMBALANCE: _merge_concat,
            Q_PLAN: _merge_plan,
        }

    def register(self, name: str, handler: Callable,
                 merger: Optional[Callable] = None) -> None:
        """Register a custom query handler (and optionally a merger)."""
        self._handlers[name] = handler
        if merger is not None:
            self._mergers[name] = merger

    # ------------------------------------------------------------------ exec
    def execute(self, agent, query: Query,
                measure_wire: bool = True) -> QueryResult:
        """Run ``query`` on ``agent`` and return its partial result.

        ``wire_bytes`` is the *measured* encoded size of the result frame
        (identical to what an agent-server worker would put on the pipe);
        the handler's size estimate is kept on ``estimated_wire_bytes``.
        ``measure_wire=False`` leaves ``wire_bytes`` at 0 for callers that
        encode the frame themselves anyway (the agent-server worker) - the
        decoded side reconstructs the same value from the frame length.
        """
        handler = self._handlers.get(query.name)
        if handler is None:
            raise KeyError(f"unknown query {query.name!r}")
        output = handler(agent, query.params)
        # Handlers return (payload, estimate, scanned); plan handlers add
        # their per-plan pushdown counters as a fourth element.
        if len(output) == 4:
            payload, estimated, scanned, scan_stats = output
        else:
            payload, estimated, scanned = output
            scan_stats = {}
        result = QueryResult(query=query, payload=payload, wire_bytes=0,
                             records_scanned=scanned,
                             estimated_wire_bytes=estimated,
                             host=agent.host, scan_stats=scan_stats)
        if measure_wire:
            result.wire_bytes = measured_result_wire_bytes(result)
        return result

    def merge(self, query: Query, results: Sequence[QueryResult],
              measure_wire: bool = True) -> QueryResult:
        """Merge partial results into one (aggregation-tree reduction).

        ``measure_wire=False`` skips sizing the merged payload - the
        streaming gather merges pairwise, and only a node's *final*
        accumulator ever travels, so intermediate merge results are sized
        lazily at the point they are actually sent (re-encoding a growing
        payload after every pairwise merge would be quadratic).
        """
        merger = self._mergers.get(query.name, _merge_concat)
        payload, estimated = merger(query, [r.payload for r in results])
        scan_stats: Dict[str, int] = {}
        for partial in results:
            for key, value in partial.scan_stats.items():
                scan_stats[key] = scan_stats.get(key, 0) + value
        result = QueryResult(
            query=query, payload=payload, wire_bytes=0,
            records_scanned=sum(r.records_scanned for r in results),
            estimated_wire_bytes=estimated, host="aggregate",
            scan_stats=scan_stats)
        if measure_wire:
            result.wire_bytes = measured_result_wire_bytes(result)
        return result

    # -------------------------------------------------------------- handlers
    @staticmethod
    def _run_get_flows(agent, params):
        link: Optional[LinkId] = params.get("link")
        time_range: Optional[TimeRange] = params.get("time_range")
        flows = agent.get_flows(link, time_range)
        wire = sum(13 + _PATH_ELEMENT_BYTES * len(path) for _, path in flows)
        # Both tiers are scanned candidates (and the total is invariant
        # under the hot/cold split, keeping result frames byte-identical
        # between capped local agents and their workers).
        return flows, wire, agent.tib.total_record_count()

    @staticmethod
    def _run_get_paths(agent, params):
        flow_id: FlowId = params["flow_id"]
        link = params.get("link")
        time_range = params.get("time_range")
        paths = agent.get_paths(flow_id, link, time_range)
        wire = sum(_PATH_ELEMENT_BYTES * len(p) + 4 for p in paths)
        return paths, wire, len(paths)

    @staticmethod
    def _run_plan(agent, params):
        """The generic declarative-plan handler: execute the shipped plan
        against this host's TIB with full pushdown, reporting the per-plan
        scan counters alongside the payload."""
        execution = planlib.execute_plan(agent.tib, params["plan"])
        return (execution.payload, execution.estimated_wire_bytes,
                execution.records_scanned, execution.scan_stats)

    @staticmethod
    def _run_get_count(agent, params):
        """``getCount`` as a thin plan compilation, accounted as one
        scalar read off one maintained aggregate row."""
        plan = _compiled_get_count(params["flow"], params.get("time_range"))
        execution = planlib.execute_plan(agent.tib, plan)
        return execution.payload, _SCALAR_BYTES, 1

    @staticmethod
    def _run_get_duration(agent, params):
        flow = params["flow"]
        time_range = params.get("time_range")
        duration = agent.get_duration(flow, time_range)
        return duration, _SCALAR_BYTES, 1

    @staticmethod
    def _run_poor_tcp_flows(agent, params):
        threshold = params.get("threshold")
        flows = agent.get_poor_tcp_flows(threshold)
        return flows, 13 * max(1, len(flows)), len(agent.monitor.flows)

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
        return (histogram, _KV_BYTES * max(1, len(histogram)),
                sum(histogram.values()))

    @staticmethod
    def _run_top_k_flows(agent, params):
        """Top-k flows by byte count (the Section 2.3 example), as a thin
        plan compilation; ``execute_plan`` counts the records scanned."""
        plan = _compiled_top_k(params.get("k", 1000), params.get("link"),
                               params.get("time_range"))
        execution = planlib.execute_plan(agent.tib, plan)
        payload = execution.payload
        return (payload, _KV_BYTES * max(1, len(payload)),
                execution.records_scanned)

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
        return (dict(sorted(matrix.items())),
                _KV_BYTES * max(1, len(matrix)), scanned)

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
        flows = agent.get_flows(None, time_range)
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
        wire = sum(13 + sum(_PATH_ELEMENT_BYTES * len(p) for p in paths)
                   for _, paths in violations)
        return violations, max(wire, 1), scanned

    @staticmethod
    def _run_subflow_imbalance(agent, params):
        """Check per-path byte balance of sprayed flows (Section 4.2).

        Parameters: ``ratio`` - maximum allowed ratio between the largest and
        smallest per-path byte counts of a flow before it is reported.
        """
        ratio_limit = params.get("ratio", 2.0)
        time_range = params.get("time_range")
        flows = agent.get_flows(None, time_range)
        per_flow: Dict[FlowId, List[Tuple[Tuple[str, ...], int]]] = {}
        for flow_id, path in flows:
            nbytes, _ = agent.get_count((flow_id, path), time_range)
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
        wire = _KV_BYTES * max(1, sum(len(e) for _, e in offenders))
        return offenders, wire, len(flows)


# --------------------------------------------------------------------------
# Merge functions (aggregation-tree reduction)
# --------------------------------------------------------------------------
def _merge_concat(query: Query, payloads: Sequence[Any]) -> Tuple[Any, int]:
    """Concatenate list-like partial results."""
    merged: List[Any] = []
    for payload in payloads:
        merged.extend(payload)
    return merged, _KV_BYTES * max(1, len(merged))


def _merge_histograms(query: Query, payloads: Sequence[Dict]) -> Tuple[Dict, int]:
    """Sum histograms / matrices keyed by arbitrary hashable keys."""
    merged: Dict[Any, int] = {}
    for payload in payloads:
        for key, value in payload.items():
            merged[key] = merged.get(key, 0) + value
    return merged, _KV_BYTES * max(1, len(merged))


def _merge_top_k(query: Query, payloads: Sequence[List[Tuple[int, str]]]
                 ) -> Tuple[List[Tuple[int, str]], int]:
    """Keep only the global top-k across partial top-k lists.

    This is the reduction that makes the multi-level top-k query efficient:
    ``(n_i - 1) * k`` key-value pairs are discarded at every aggregation
    level (Section 5.2).
    """
    merged = planlib.merge_ranked(payloads, query.params.get("k", 1000))
    return merged, _KV_BYTES * max(1, len(merged))


def _merge_plan(query: Query, payloads: Sequence[Any]) -> Tuple[Any, int]:
    """Merge partial plan payloads with the generic operator the plan's
    terminal op selects (concat / histogram-merge / top-k-merge)."""
    plan = query.params["plan"]
    merged = planlib.merge_payloads(plan, payloads)
    return merged, planlib.estimate_payload_bytes(merged)


def _link_label(link: Optional[LinkId]) -> str:
    """Readable label for a link parameter (used as histogram key prefix)."""
    if link is None:
        return "*-*"
    a, b = link
    return f"{a or '*'}-{b or '*'}"
