"""Scatter-gather execution for distributed queries.

The TIB is "maintained in a distributed fashion across all servers", so a
distributed query is a scatter-gather: ship the query to many hosts, run it
against each local TIB, and reduce the partial results.  This module is
the engine, generic over the work performed per host:

* :class:`PlanNode` - the scatter plan, a tree: a direct scatter is one
  level, a multi-level aggregation query maps its tree onto the plan one
  to one, and all payloads of an edge (query, subtree description) are
  *batched* into one request message.
* :class:`ScatterGatherExecutor` - runs a plan with per-host timeouts
  and bounded retries: a depth-first fold on the calling thread with no
  lock or thread.  Parallelism lives in the worker modes
  (:mod:`repro.core.groupserver`), whose split-phase scatter writes every
  envelope before the first wait and then folds the replies here.
* :class:`LoopbackTransport` - optional failure injection that *really*
  sleeps and drops messages.  Without a transport none is called.

One clock: the executor measures and enforces real elapsed time only -
deadlines, per-host ``exec_s``, per-node
``merge_s`` - and records the bytes of every leg.  The modelled response
time of Figures 11 and 12 is priced from those facts after the run
(:func:`repro.core.rpc.model_response_time`).

Every node merges its arrivals in one ``merge`` call in canonical order
(children in tree order, then the node's local result), so with a merge
that equals its own left fold (the plan operators' do by construction)
the payload is identical across the cluster's modes.  A host that cannot
be reached, exhausts its retries, times out or whose work raises becomes a
structured :class:`ExecWarning` and the gather continues without it: the
:class:`GatherResult` carries ``partial`` and ``hosts_failed`` (cf. the
``ExecuteResponse``/``Warning`` pattern of DCL-style executors).  A failed
interior node loses only its local result; its subtree still aggregates.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import (Any, Callable, Dict, List, Optional, Protocol, Sequence,
                    Tuple)

from repro.counters import Counters

#: Structured warning codes.
W_HOST_FAILED = "host_failed"
W_HOST_TIMEOUT = "host_timeout"
W_RESPONSE_LOST = "response_lost"
W_RETRIED = "retried"
#: Worker-plane health codes, raised by the cluster in the same namespace:
#: a supervised worker restarted and re-seeded, a restart budget ran out
#: (dead-agent semantics), an ingest mirror detached.
W_WORKER_RESTARTED = "worker_restarted"
W_CIRCUIT_OPEN = "circuit_open"
W_MIRROR_DETACHED = "mirror_detached"

#: Sentinel for "nothing to merge" (``None`` is a valid value).
_EMPTY = object()


class TransportError(RuntimeError):
    """A request or response message could not be delivered."""


class DeadlineExceeded(TimeoutError):
    """Work that enforces its own per-host deadline (a worker-mode leaf
    consuming an exchange it sent) stopped waiting: ``W_HOST_TIMEOUT``."""


@dataclass(frozen=True)
class ExecWarning:
    """A structured warning attached to a partially failed query.

    Attributes:
        code: one of the ``W_*`` constants.
        host: the host the warning concerns.
        detail: human-readable context (exception text, timeout value, ...).
        attempts: delivery attempts made for this host.
    """

    code: str
    host: str
    detail: str = ""
    attempts: int = 1


class Transport(Protocol):
    """The delivery protocol of the executor: ``request`` delivers a
    batched request (several payload sizes in one message) to ``host``,
    ``respond`` a result of ``payload_bytes`` back to its parent.  Both
    return once the message moved - they may really block - and raise
    :class:`TransportError` for a lost one."""

    def request(self, host: str, parts: Sequence[int]) -> None: ...

    def respond(self, host: str, payload_bytes: int) -> None: ...

    def reset_stats(self) -> None: ...


@dataclass(slots=True)
class TransportStats(Counters):
    """Deliveries a :class:`LoopbackTransport` attempted, and dropped."""

    messages: int = 0
    dropped: int = 0


class LoopbackTransport:
    """In-process transport with injectable delays and drops.

    Args:
        delay: request delivery delay in seconds, or a callable
            ``(host, attempt) -> seconds`` (attempts count from 1 per
            host, so a test can slow only the first).  Delays are *really
            slept*, so deadlines see them.
        drop_requests: ``{host: n}`` - drop (raise) the first ``n`` request
            deliveries to ``host``.
        drop_responses: ``{host: n}`` - same for responses from ``host``.
        dead_hosts: hosts whose messages are always dropped.
    """

    def __init__(self, delay: Any = 0.0,
                 drop_requests: Optional[Dict[str, int]] = None,
                 drop_responses: Optional[Dict[str, int]] = None,
                 dead_hosts: Sequence[str] = ()) -> None:
        self._delay = delay if callable(delay) else (lambda h, a: delay)
        self._drop_requests = dict(drop_requests or {})
        self._drop_responses = dict(drop_responses or {})
        self.dead_hosts = set(dead_hosts)
        self.stats = TransportStats()  # guarded-by: _lock
        self._request_attempts: Dict[str, int] = {}
        self._respond_attempts: Dict[str, int] = {}
        self._lock = threading.Lock()

    def _deliver(self, counts: Dict[str, int], drops: Dict[str, int],
                 host: str, what: str) -> int:
        """Count one delivery attempt to or from ``host`` and raise
        :class:`TransportError` if it is dropped: the attempt's number."""
        with self._lock:
            counts[host] = attempt = counts.get(host, 0) + 1
            self.stats.messages += 1
            lost = host in self.dead_hosts or attempt <= drops.get(host, 0)
            if lost:
                self.stats.dropped += 1
        if lost:
            raise TransportError(f"{what} {host} lost (attempt {attempt})")
        return attempt

    def request(self, host: str, parts: Sequence[int]) -> None:
        attempt = self._deliver(self._request_attempts, self._drop_requests,
                                host, "request to")
        wait = float(self._delay(host, attempt))
        if wait > 0:
            time.sleep(wait)

    def respond(self, host: str, payload_bytes: int) -> None:
        self._deliver(self._respond_attempts, self._drop_responses, host,
                      "response from")

    def reset_stats(self) -> None:
        """Zero the message/drop counters and per-host attempt numbering."""
        with self._lock:
            self.stats.reset()
            self._request_attempts.clear()
            self._respond_attempts.clear()


# --------------------------------------------------------------------------
# Plans and results
# --------------------------------------------------------------------------
@dataclass
class PlanNode:
    """One node of a scatter plan.

    Attributes:
        host: the host executing work at this node (``None`` for the
            controller root, which only merges).
        request_parts: logical payload sizes of the parent->node request,
            batched into one message (empty for the root, which originates
            the query).
        children: child plan nodes, in canonical merge order.
    """

    host: Optional[str]
    request_parts: Tuple[int, ...] = ()
    children: List["PlanNode"] = field(default_factory=list)


@dataclass
class HostReport:
    """Per-host outcome of a scatter - measured facts only.

    ``exec_s`` is the real time of the attempt that produced the result
    (its work call, or what ``exec_seconds`` reported) or, for a failed
    host, from its first attempt to the failure.  ``request_bytes`` is the
    winning request's payload (``None``: no attempt produced a result, or
    the node is sent no request; it stays set when the result is lost on
    the way up); ``response_bytes`` the node's delivered response
    (``None``: never delivered).

    ``stages`` is set for a traced query or sweep only (``None``
    otherwise): where this leaf's time went, in whole microseconds
    (:func:`micros`).  Keys
    prefixed ``t.`` are the host's own stages (a worker's, from its
    reply's span tail, or the in-process engine's); the others are the
    controller's for a worker group's exchange - ``send``, ``wait``,
    ``decode``, ``deliver`` - which run on the calling thread one after
    another.
    """

    host: str
    ok: bool = False
    attempts: int = 0
    exec_s: float = 0.0
    request_bytes: Optional[int] = None
    response_bytes: Optional[int] = None
    error: str = ""
    stages: Optional[Dict[str, int]] = None


def micros(seconds: float) -> int:
    """A span in the unit every stage record holds: whole microseconds
    (``perf_counter`` differences only - a span never holds a modelled
    second)."""
    return round(seconds * 1e6) if seconds > 0 else 0


@dataclass
class GatherResult:
    """Outcome of one scatter-gather run.

    Attributes:
        value: the root accumulator (``None`` when every host failed).
        hosts_failed: hosts whose work never produced a merged result.
        warnings: structured warnings (failures, timeouts, retries).
        partial: whether any host's partial result is missing.
        wall_s: measured wall-clock duration of the run.
        traffic_bytes: payload bytes of the legs that produced the result -
            one winning request per host plus the delivered responses.
        duplicate_traffic_bytes: payload bytes of non-winning attempts
            (retries whose work failed, deliveries voided by a timeout).
        merge_s: each plan node's merge-call time (0.0 below two
            arrivals), keyed by the node's host (``None``: the root).
        root_merges: arrivals merged at the root, minus one.
        max_exec_s: slowest successful per-host execution.
        reports: per-host :class:`HostReport` entries.
        model_time_s: 0.0 here; whoever prices the run sets it
            (:func:`repro.core.rpc.model_response_time`).
        stages: a traced run's stages by reporter, empty otherwise - set
            by whoever traced it from the runs' ``HostReport.stages`` (a
            host's, a worker group's exchange's), with the controller's
            own under ``None``.
    """

    value: Any
    hosts_failed: List[str]
    warnings: List[ExecWarning]
    partial: bool
    wall_s: float
    traffic_bytes: int
    duplicate_traffic_bytes: int
    merge_s: Dict[Optional[str], float]
    root_merges: int
    max_exec_s: float
    reports: Dict[str, HostReport]
    model_time_s: float = 0.0
    stages: Dict[Optional[str], Dict[str, int]] = field(default_factory=dict)


class ScatterGatherExecutor:
    """Runs scatter plans as a deterministic depth-first fold on the
    calling thread.

    Args:
        transport: optional :class:`Transport` (a failure-injecting
            :class:`LoopbackTransport`); without one none is called.
        timeout_s: per-host deadline on the real clock, counted from the
            host's first attempt: a host whose result is not in by then
            fails as ``W_HOST_TIMEOUT``.  The attempt loop checks it after
            each attempt (its real request leg plus ``exec_s`` must end in
            time) and does not retry past it.  Work that waits on
            something can enforce it itself by raising
            :class:`DeadlineExceeded`.
        retries: bounded retry budget per host for transport errors and
            work exceptions.
    """

    def __init__(self, transport: Optional[Transport] = None,
                 timeout_s: Optional[float] = None,
                 retries: int = 0) -> None:
        if retries < 0:
            raise ValueError("retry budget cannot be negative")
        self.transport = transport
        self.timeout_s = timeout_s
        self.retries = retries

    # ------------------------------------------------------------------- API
    def run(self, plan: PlanNode, work: Callable[[str], Any],
            merge: Callable[[List[Any]], Any],
            response_bytes: Callable[[Any], int] = lambda value: 0,
            exec_seconds: Optional[Callable[[Any], float]] = None
            ) -> GatherResult:
        """Execute ``plan``: run ``work(host)`` at every host node, merge
        results upward - ``merge(values)`` once per node with two or more
        arrivals, children in tree order then the local result - and
        return the gathered outcome.  ``response_bytes(value)`` sizes
        response messages.
        ``exec_seconds(value)``, when given, is a host's execution time in
        place of the wall time of its ``work`` call (for work that only
        collects something timed, on the real clock, where it ran)."""
        return _Fold(self, work, merge, response_bytes,
                     exec_seconds).execute(plan)


class _Fold:
    """One run: a depth-first walk on the calling thread.  A node runs its
    own work (pre-order), folds each child's subtree in turn, merges their
    arrivals and its local result last in one call, then sizes its
    response and sends it up.  Nothing is locked; a ``merge`` or
    ``response_bytes`` error propagates at once.  ``_EMPTY`` means
    "nothing to merge" throughout."""

    def __init__(self, executor: ScatterGatherExecutor,
                 work: Callable[[str], Any],
                 merge: Callable[[List[Any]], Any],
                 response_bytes: Callable[[Any], int],
                 exec_seconds: Optional[Callable[[Any], float]]) -> None:
        self.executor = executor
        self.work = work
        self.merge = merge
        self.response_bytes = response_bytes
        self.exec_seconds = exec_seconds
        #: Host reports in plan pre-order: a subtree's are a contiguous run.
        self.reports: List[HostReport] = []
        self.merge_s: Dict[Optional[str], float] = {}
        self.warnings: List[ExecWarning] = []
        self.traffic_bytes = 0
        self.duplicate_bytes = 0

    def execute(self, plan: PlanNode) -> GatherResult:
        started = time.perf_counter()
        acc, root_merges = self._node(plan)
        # Scattering to nobody (a host filter that matched nothing) is an
        # empty, non-partial gather.
        wall = time.perf_counter() - started if self.reports else 0.0
        reports = self.reports
        hosts_failed = [report.host for report in reports if not report.ok]
        return GatherResult(
            value=None if acc is _EMPTY else acc, hosts_failed=hosts_failed,
            warnings=sorted(self.warnings, key=lambda w: (w.host, w.code)),
            partial=bool(hosts_failed), wall_s=wall,
            traffic_bytes=self.traffic_bytes,
            duplicate_traffic_bytes=self.duplicate_bytes,
            merge_s=self.merge_s, root_merges=root_merges,
            max_exec_s=max((report.exec_s for report in reports
                            if report.ok), default=0.0),
            reports={report.host: report for report in reports})

    def _node(self, plan: PlanNode) -> Tuple[Any, int]:
        """Fold ``plan``'s subtree: ``(accumulator, arrivals here - 1)``.
        The arrivals (skipping ``_EMPTY``) meet in one ``merge`` call once
        two or more arrived; the call's time is the node's ``merge_s``."""
        host = plan.host
        self.merge_s[host] = 0.0  # keyed in pre-order, filled in post-order
        if host is None:
            local = _EMPTY
        else:
            report = HostReport(host=host)
            self.reports.append(report)
            local = self._attempts(report, plan.request_parts)
        # map() is lazy: each child's subtree runs as the loop reaches it.
        arrivals = [value for value in chain(
            map(self._send_up, plan.children), (local,))
            if value is not _EMPTY]
        if len(arrivals) < 2:  # ``merge_s[host]`` stays 0.0
            return (arrivals[0] if arrivals else _EMPTY), 0
        started = time.perf_counter()
        acc = self.merge(arrivals)
        self.merge_s[host] = time.perf_counter() - started
        return acc, len(arrivals) - 1

    def _attempts(self, report: HostReport, parts: Tuple[int, ...]) -> Any:
        """Deliver the request of ``report``'s host and run its work within
        the retry budget and the host's deadline, counted from its first
        attempt: the value, or ``_EMPTY`` once the host failed."""
        host = report.host
        executor, clock = self.executor, time.perf_counter
        transport, timeout = executor.transport, executor.timeout_s
        started = clock()
        failure: Exception
        for attempt in range(1, executor.retries + 2):
            report.attempts = attempt
            sent = 0  # the request's bytes, once delivered
            try:
                if parts:
                    if transport is not None:
                        transport.request(host, parts)
                    sent = sum(parts)
                exec_started = clock()
                value = self.work(host)
                exec_s = (clock() - exec_started if self.exec_seconds is None
                          else self.exec_seconds(value))
            except DeadlineExceeded as error:
                self.duplicate_bytes += sent
                return self._failed(report, W_HOST_TIMEOUT, str(error),
                                    started)
            except Exception as error:  # TransportError or broken agent/work
                self.duplicate_bytes += sent
                failure = error
                if timeout is not None and clock() - started > timeout:
                    return self._lapsed(report, started)
                continue
            if timeout is not None and \
                    exec_started - started + exec_s > timeout:
                self.duplicate_bytes += sent
                return self._lapsed(report, started)
            self.traffic_bytes += sent
            report.ok = True
            report.exec_s = exec_s
            report.request_bytes = sent if parts else None
            if attempt > 1:
                self.warnings.append(ExecWarning(
                    W_RETRIED, host, "delivered after retry", attempt))
            return value
        return self._failed(report, W_HOST_FAILED,
                            f"{type(failure).__name__}: {failure}", started)

    def _lapsed(self, report: HostReport, started: float) -> Any:
        return self._failed(report, W_HOST_TIMEOUT,
                            f"exceeded per-host timeout of "
                            f"{self.executor.timeout_s}s", started)

    def _failed(self, report: HostReport, code: str, detail: str,
                started: float) -> Any:
        report.error = detail
        report.exec_s = time.perf_counter() - started
        self.warnings.append(ExecWarning(code, report.host, detail,
                                         report.attempts))
        return _EMPTY

    def _send_up(self, node: PlanNode) -> Any:
        """Fold a child's subtree and send its accumulator to the parent:
        what arrives (``_EMPTY``: nothing)."""
        first = len(self.reports)  # the subtree's reports start here
        acc, _merges = self._node(node)
        payload = 0 if acc is _EMPTY else self.response_bytes(acc)
        lost = self._respond(node.host or "", payload)
        if lost is None:
            self.traffic_bytes += payload
            if node.host is not None:
                self.reports[first].response_bytes = payload
            return acc
        if acc is not _EMPTY:  # merged data went missing: a lost subtree
            self.warnings.append(ExecWarning(W_RESPONSE_LOST,
                                             node.host or "", lost))
            for report in self.reports[first:]:
                if report.ok:
                    report.ok = False
                    report.error = "subtree response lost"
        return _EMPTY

    def _respond(self, host: str, payload: int) -> Optional[str]:
        """Send a node's response within the retry budget: ``None`` once
        delivered, else the last drop's text.  Anything but a drop
        propagates."""
        transport = self.executor.transport
        if transport is None:
            return None
        detail = ""
        for _ in range(self.executor.retries + 1):
            try:
                transport.respond(host, payload)
                return None
            except TransportError as error:
                detail = str(error)
        return detail
