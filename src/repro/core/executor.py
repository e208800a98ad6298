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
  and bounded retries.  ``mode="serial"`` (clusters' default, and every
  worker-mode scatter) is a depth-first fold on the calling thread with
  no lock or thread; ``mode="concurrent"`` runs attempts on a worker
  pool, adds straggler hedging, and merges each node's slots as they fill.
* :class:`LoopbackTransport` - optional failure injection that *really*
  sleeps and drops messages.  Without a transport none is called.

One clock: the executor measures and enforces real elapsed time only -
deadlines, the watchdog, hedging, per-host ``exec_s``, per-node
``merge_s`` - and records the bytes of every leg.  The modelled response
time of Figures 11 and 12 is priced from those facts after the run
(:func:`repro.core.rpc.model_response_time`).

Both engines merge in one canonical order per node (children in tree
order, then the node's local result), so with an associative merge (the
plan operators' are by construction) the payload is identical across
modes.  A host that cannot be reached, exhausts its retries, times out
or whose work raises becomes a structured :class:`ExecWarning` and the
gather continues without it: the
:class:`GatherResult` carries ``partial`` and ``hosts_failed`` (cf. the
``ExecuteResponse``/``Warning`` pattern of DCL-style executors).  A failed
interior node loses only its local result; its subtree still aggregates.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain
from typing import (Any, Callable, Dict, List, Optional, Protocol, Sequence,
                    Tuple)

from repro.counters import Counters

#: Execution modes.
MODE_SERIAL = "serial"
MODE_CONCURRENT = "concurrent"

#: Structured warning codes.
W_HOST_FAILED = "host_failed"
W_HOST_TIMEOUT = "host_timeout"
W_RESPONSE_LOST = "response_lost"
W_HEDGED = "straggler_hedged"
W_RETRIED = "retried"
#: Worker-plane health codes, raised by the cluster in the same namespace:
#: a supervised worker restarted and re-seeded, a restart budget ran out
#: (dead-agent semantics), an ingest mirror detached.
W_WORKER_RESTARTED = "worker_restarted"
W_CIRCUIT_OPEN = "circuit_open"
W_MIRROR_DETACHED = "mirror_detached"

#: Default worker-pool size cap for concurrent runs.
DEFAULT_MAX_WORKERS = 32

#: Sentinel marking an unfilled merge slot (``None`` is a valid value).
_EMPTY = object()
#: Sentinel filling the slot of a failed host or lost subtree.
_FAILED = object()


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
            slept*, releasing the GIL, so concurrent scatters overlap them.
        respond_delay: same for response delivery (``(host, attempt)``
            callable or constant).
        drop_requests: ``{host: n}`` - drop (raise) the first ``n`` request
            deliveries to ``host``.
        drop_responses: ``{host: n}`` - same for responses from ``host``.
        dead_hosts: hosts whose messages are always dropped.
    """

    def __init__(self, delay: Any = 0.0, respond_delay: Any = 0.0,
                 drop_requests: Optional[Dict[str, int]] = None,
                 drop_responses: Optional[Dict[str, int]] = None,
                 dead_hosts: Sequence[str] = ()) -> None:
        self._delay = delay if callable(delay) else (lambda h, a: delay)
        self._respond_delay = (respond_delay if callable(respond_delay)
                               else (lambda h, a: respond_delay))
        self._drop_requests = dict(drop_requests or {})
        self._drop_responses = dict(drop_responses or {})
        self.dead_hosts = set(dead_hosts)
        self.stats = TransportStats()  # guarded-by: _lock
        self._request_attempts: Dict[str, int] = {}
        self._respond_attempts: Dict[str, int] = {}
        self._lock = threading.Lock()

    def _deliver(self, counts: Dict[str, int], drops: Dict[str, int],
                 delay: Callable[[str, int], float], host: str,
                 what: str) -> None:
        with self._lock:
            counts[host] = attempt = counts.get(host, 0) + 1
            self.stats.messages += 1
            lost = host in self.dead_hosts or attempt <= drops.get(host, 0)
            if lost:
                self.stats.dropped += 1
        if lost:
            raise TransportError(f"{what} {host} lost (attempt {attempt})")
        wait = float(delay(host, attempt))
        if wait > 0:
            time.sleep(wait)

    def request(self, host: str, parts: Sequence[int]) -> None:
        self._deliver(self._request_attempts, self._drop_requests,
                      self._delay, host, "request to")

    def respond(self, host: str, payload_bytes: int) -> None:
        self._deliver(self._respond_attempts, self._drop_responses,
                      self._respond_delay, host, "response from")

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
    """

    host: str
    ok: bool = False
    attempts: int = 0
    hedged: bool = False
    exec_s: float = 0.0
    request_bytes: Optional[int] = None
    response_bytes: Optional[int] = None
    error: str = ""


@dataclass
class GatherResult:
    """Outcome of one scatter-gather run.

    Attributes:
        value: the root accumulator (``None`` when every host failed).
        hosts_failed: hosts whose work never produced a merged result.
        warnings: structured warnings (failures, timeouts, hedges, retries).
        partial: whether any host's partial result is missing.
        wall_s: measured wall-clock duration of the run.
        traffic_bytes: payload bytes of the legs that produced the result -
            one winning request per host plus the delivered responses.
        duplicate_traffic_bytes: payload bytes of non-winning attempts
            (lost hedge races, retries whose work failed, deliveries voided
            by a timeout; attempts still asleep at the end are unseen).
        merge_s: cumulative merge time per plan node, keyed by the node's
            host (``None``: the root).
        root_merges: number of pairwise merges performed at the root.
        max_exec_s: slowest successful per-host execution.
        reports: per-host :class:`HostReport` entries.
        model_time_s: 0.0 here; whoever prices the run sets it
            (:func:`repro.core.rpc.model_response_time`).
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


# --------------------------------------------------------------------------
# Internal run state of the concurrent engine
# --------------------------------------------------------------------------
class _NodeState:
    """Merge accumulator and completion tracking for one plan node."""

    __slots__ = ("plan", "parent", "slot", "n_slots", "next_slot", "slots",
                 "acc", "merges", "merge_s", "lock", "host_state")

    def __init__(self, plan: PlanNode, parent: Optional["_NodeState"],
                 slot: int) -> None:
        self.plan = plan
        self.parent = parent
        self.slot = slot
        # Children occupy slots 0..len-1 in tree order; the node's local
        # result (when it has a host) occupies the final slot.
        self.n_slots = len(plan.children) + (1 if plan.host is not None else 0)
        self.next_slot = 0
        self.slots: List[Any] = [_EMPTY] * self.n_slots
        self.acc: Any = _EMPTY
        self.merges = 0
        self.merge_s = 0.0
        self.lock = threading.Lock()
        self.host_state: Optional["_HostState"] = None


class _HostState:
    """Attempt bookkeeping for one host's request+work unit."""

    __slots__ = ("node", "host", "lock", "work_lock", "done", "attempts",
                 "budget", "inflight", "hedged", "started_at", "report")

    def __init__(self, node: _NodeState, budget: int) -> None:
        self.node = node
        self.host: str = node.plan.host  # type: ignore[assignment]
        self.lock = threading.Lock()
        # Hedge twins overlap transport legs (where stragglers live) but
        # never run the host's work (a thread-unsafe agent) concurrently.
        self.work_lock = threading.Lock()
        self.done = False
        self.attempts = 0
        self.budget = budget
        self.inflight = 0
        self.hedged = False
        self.started_at: Optional[float] = None
        self.report = HostReport(host=self.host)


class ScatterGatherExecutor:
    """Runs scatter plans.

    Args:
        transport: optional :class:`Transport` (a failure-injecting
            :class:`LoopbackTransport`); without one none is called.
        mode: ``"concurrent"`` (worker pool, streaming slot merges) or
            ``"serial"`` (a deterministic depth-first fold on the calling
            thread).
        max_workers: worker-pool size cap for concurrent runs (defaults to
            ``min(32, number of hosts)``).
        timeout_s: per-host deadline on the real clock; a host still
            running past it is declared failed (its partial result is
            dropped even if the worker later finishes).  Serial mode
            checks it after the fact against the attempt's real request
            leg plus ``exec_s``; work that waits on something can enforce
            it itself by raising :class:`DeadlineExceeded`.
        hedge_after_s: straggler hedging - a host still running past this
            point gets a duplicate attempt launched; whichever finishes
            first wins.  Concurrent mode only.
        retries: bounded retry budget per host for transport errors and
            work exceptions.
    """

    def __init__(self, transport: Optional[Transport] = None,
                 mode: str = MODE_CONCURRENT,
                 max_workers: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 hedge_after_s: Optional[float] = None,
                 retries: int = 0) -> None:
        if mode not in (MODE_SERIAL, MODE_CONCURRENT):
            raise ValueError(f"unknown executor mode {mode!r}")
        if retries < 0:
            raise ValueError("retry budget cannot be negative")
        self.transport = transport
        self.mode = mode
        self.max_workers = max_workers
        self.timeout_s = timeout_s
        self.hedge_after_s = hedge_after_s
        self.retries = retries

    # ------------------------------------------------------------------- API
    def run(self, plan: PlanNode, work: Callable[[str], Any],
            merge: Callable[[Any, Any], Any],
            response_bytes: Callable[[Any], int] = lambda value: 0,
            exec_seconds: Optional[Callable[[Any], float]] = None
            ) -> GatherResult:
        """Execute ``plan``: run ``work(host)`` at every host node, merge
        results upward with ``merge(acc, value)``, and return the gathered
        outcome.  ``response_bytes(value)`` sizes response messages.
        ``exec_seconds(value)``, when given, is a host's execution time in
        place of the wall time of its ``work`` call (for work that only
        collects something timed, on the real clock, where it ran)."""
        if self.mode == MODE_SERIAL:
            return _Fold(self, work, merge, response_bytes,
                         exec_seconds).execute(plan)
        return _Run(self, plan, work, merge, response_bytes,
                    exec_seconds).execute()


class _Fold:
    """One serial run: a depth-first walk on the calling thread.  A node
    runs its own work (pre-order), folds each child's subtree and merges
    it as it returns, merges its local result last - the concurrent slot
    order - then sizes its response and sends it up.  Nothing is locked;
    a ``merge`` or ``response_bytes`` error propagates at once.  ``_EMPTY``
    means "nothing to merge" throughout."""

    def __init__(self, executor: ScatterGatherExecutor,
                 work: Callable[[str], Any], merge: Callable[[Any, Any], Any],
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
        return _gathered(acc, self.reports, self.warnings, wall,
                         self.traffic_bytes, self.duplicate_bytes,
                         self.merge_s, root_merges)

    def _node(self, plan: PlanNode) -> Tuple[Any, int]:
        """Fold ``plan``'s subtree: ``(accumulator, merges made here)``."""
        host = plan.host
        self.merge_s[host] = 0.0  # keyed in pre-order, filled in post-order
        local = _EMPTY if host is None else self._attempts(host, plan)
        acc, merges, spent = _EMPTY, 0, 0.0
        merge, clock = self.merge, time.perf_counter
        # map() is lazy: each child's subtree runs as the loop reaches it.
        for value in chain(map(self._send_up, plan.children), (local,)):
            if value is _EMPTY:
                continue
            if acc is _EMPTY:
                acc = value
                continue
            merge_started = clock()
            acc = merge(acc, value)
            spent += clock() - merge_started
            merges += 1
        self.merge_s[host] = spent
        return acc, merges

    def _attempts(self, host: str, plan: PlanNode) -> Any:
        """Deliver ``host``'s request and run its work within the retry
        budget: the value, or ``_EMPTY`` once the host failed."""
        report = HostReport(host=host)
        self.reports.append(report)
        parts = plan.request_parts
        transport, clock = self.executor.transport, time.perf_counter
        started = clock()
        failure: Exception
        for attempt in range(1, self.executor.retries + 2):
            report.attempts = attempt
            attempt_started = clock()
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
                continue
            timeout = self.executor.timeout_s
            if timeout is not None and \
                    exec_started - attempt_started + exec_s > timeout:
                self.duplicate_bytes += sent
                return self._failed(report, W_HOST_TIMEOUT,
                                    f"exceeded per-host timeout of "
                                    f"{timeout}s", started)
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
        host = node.host or ""
        lost = _respond(self.executor.transport, host, payload,
                        self.executor.retries + 1)
        if lost is None:
            self.traffic_bytes += payload
            if node.host is not None:
                self.reports[first].response_bytes = payload
            return acc
        if acc is not _EMPTY:  # merged data went missing: a lost subtree
            self.warnings.append(ExecWarning(W_RESPONSE_LOST, host, lost))
            for report in self.reports[first:]:
                if report.ok:
                    report.ok = False
                    report.error = "subtree response lost"
        return _EMPTY


class _Run:
    """One concurrent run: every attempt runs on the pool, and each node
    merges its slots in canonical order as they fill, on whichever worker
    thread filled the next one (all state is shared between them)."""

    def __init__(self, executor: ScatterGatherExecutor, plan: PlanNode,
                 work: Callable[[str], Any], merge: Callable[[Any, Any], Any],
                 response_bytes: Callable[[Any], int],
                 exec_seconds: Optional[Callable[[Any], float]] = None
                 ) -> None:
        self.executor = executor
        self.transport = executor.transport
        self.work = work
        self.merge = merge
        self.response_bytes = response_bytes
        self.exec_seconds = exec_seconds
        self.root = _NodeState(plan, parent=None, slot=-1)
        self.host_states: List[_HostState] = []
        self.node_states: List[_NodeState] = [self.root]
        self._build(plan, self.root)
        self.lock = threading.Lock()
        self.traffic_bytes = 0
        self.duplicate_bytes = 0
        self.warnings: List[ExecWarning] = []
        self.finished = threading.Event()
        workers = executor.max_workers or min(DEFAULT_MAX_WORKERS,
                                              len(self.host_states))
        self.pool = ThreadPoolExecutor(max_workers=max(1, workers),
                                       thread_name_prefix="scatter-gather")
        #: First fatal callback error, re-raised to the caller.
        self.error: Optional[BaseException] = None

    def _build(self, plan: PlanNode, state: _NodeState) -> None:
        """Create node/host states depth-first (canonical dispatch order)."""
        if plan.host is not None:
            state.host_state = _HostState(state, self.executor.retries + 1)
            self.host_states.append(state.host_state)
        for index, child in enumerate(plan.children):
            child_state = _NodeState(child, parent=state, slot=index)
            self.node_states.append(child_state)
            self._build(child, child_state)

    # ------------------------------------------------------------ execution
    def execute(self) -> GatherResult:
        started = time.perf_counter()
        if not self.host_states:  # scattering to nobody: an empty gather
            return self._result(0.0)
        if self.executor.timeout_s is not None or \
                self.executor.hedge_after_s is not None:
            threading.Thread(target=self._watchdog, daemon=True).start()
        for hstate in self.host_states:
            self._submit(hstate)
        self.finished.wait()
        # Stragglers that lost a hedge race (or timed out) may still be
        # sleeping in the transport; don't wait for them.
        self.pool.shutdown(wait=False, cancel_futures=True)
        if self.error is not None:
            raise self.error
        return self._result(time.perf_counter() - started)

    def _submit(self, hstate: _HostState) -> None:
        """Launch one attempt for ``hstate`` on the pool."""
        with hstate.lock:
            hstate.attempts += 1
            hstate.inflight += 1
            hstate.report.attempts = hstate.attempts
        self.pool.submit(self._attempt, hstate)

    def _attempt(self, hstate: _HostState) -> None:
        host = hstate.host
        with hstate.lock:
            if hstate.done:
                hstate.inflight -= 1
                return
            if hstate.started_at is None:
                hstate.started_at = time.perf_counter()
        parts = hstate.node.plan.request_parts
        # The request's bytes count as traffic up front and move to the
        # duplicate stat if this attempt does not produce the result.
        leg_bytes = 0
        try:
            if parts:
                if self.transport is not None:
                    self.transport.request(host, parts)
                leg_bytes = sum(parts)
                self._account(leg_bytes)
            with hstate.work_lock:
                with hstate.lock:
                    already_done = hstate.done
                if already_done:  # a hedge twin won while we waited
                    self._reclassify_duplicate(leg_bytes)
                    with hstate.lock:
                        hstate.inflight -= 1
                    return
                exec_started = time.perf_counter()
                value = self.work(host)
                exec_s = (time.perf_counter() - exec_started
                          if self.exec_seconds is None
                          else self.exec_seconds(value))
        except DeadlineExceeded as error:
            self._reclassify_duplicate(leg_bytes)
            with hstate.lock:
                hstate.inflight -= 1
            self._host_failed(hstate, W_HOST_TIMEOUT, str(error))
            return
        except Exception as error:  # TransportError or broken agent/work
            self._reclassify_duplicate(leg_bytes)
            self._attempt_failed(hstate, error)
            return
        with hstate.lock:
            hstate.inflight -= 1
            if hstate.done:
                # A hedge twin won, or the watchdog timed us out: this
                # attempt's request was overhead, not query traffic.
                self._reclassify_duplicate(leg_bytes)
                return
            hstate.done = True
            hstate.report.ok = True
            hstate.report.exec_s = exec_s
            hstate.report.request_bytes = leg_bytes if parts else None
        if hstate.hedged:
            self._warn(W_HEDGED, host, "straggler hedged; fastest attempt "
                       "won", hstate.attempts)
        elif hstate.attempts > 1:
            self._warn(W_RETRIED, host, "delivered after retry",
                       hstate.attempts)
        self._deliver(hstate.node, hstate.node.n_slots - 1, value)

    def _attempt_failed(self, hstate: _HostState, error: Exception) -> None:
        with hstate.lock:
            hstate.inflight -= 1
            if hstate.done:
                return
            exhausted = hstate.attempts >= hstate.budget
            inflight = hstate.inflight
        if not exhausted:
            self._submit(hstate)
            return
        if inflight == 0:
            self._host_failed(hstate, W_HOST_FAILED,
                              f"{type(error).__name__}: {error}")

    def _host_failed(self, hstate: _HostState, code: str,
                     detail: str) -> None:
        with hstate.lock:
            if hstate.done:
                return
            hstate.done = True
            hstate.report.ok = False
            hstate.report.error = detail
            if hstate.started_at is not None:
                hstate.report.exec_s = time.perf_counter() - hstate.started_at
        self._warn(code, hstate.host, detail, hstate.attempts)
        self._deliver(hstate.node, hstate.node.n_slots - 1, _FAILED)

    # -------------------------------------------------------------- watchdog
    def _watchdog(self) -> None:
        timeout = self.executor.timeout_s
        hedge = self.executor.hedge_after_s
        ticks = [v for v in (timeout, hedge) if v is not None]
        tick = min(0.05, max(0.001, min(ticks) / 4)) if ticks else 0.01
        while not self.finished.wait(tick):
            now = time.perf_counter()
            for hstate in self.host_states:
                with hstate.lock:
                    if hstate.done or hstate.started_at is None:
                        continue
                    elapsed = now - hstate.started_at
                    fire_timeout = timeout is not None and elapsed > timeout
                    fire_hedge = (not fire_timeout and hedge is not None
                                  and elapsed > hedge and not hstate.hedged)
                    if fire_hedge:
                        hstate.hedged = True
                        hstate.budget += 1
                        hstate.report.hedged = True
                if fire_timeout:
                    self._host_failed(hstate, W_HOST_TIMEOUT,
                                      f"exceeded per-host timeout of "
                                      f"{timeout}s")
                elif fire_hedge:
                    self._submit(hstate)

    # ------------------------------------------------------------- gathering
    def _deliver(self, node: _NodeState, slot: int, value: Any) -> None:
        """Fill a merge slot (``_FAILED``: nothing to merge), advance the
        node's streaming merge in canonical slot order on the delivering
        thread, and propagate completion upward."""
        with node.lock:
            node.slots[slot] = value
            while node.next_slot < node.n_slots and \
                    node.slots[node.next_slot] is not _EMPTY:
                slot_value = node.slots[node.next_slot]
                node.slots[node.next_slot] = None  # release the reference
                node.next_slot += 1
                if slot_value is _FAILED:
                    continue
                if node.acc is _EMPTY:
                    node.acc = slot_value
                else:
                    merge_started = time.perf_counter()
                    try:
                        node.acc = self.merge(node.acc, slot_value)
                    except BaseException as error:
                        # Fail the run: the slot is consumed, so no other
                        # thread could ever complete this node.
                        self._abort(error)
                        return
                    node.merge_s += time.perf_counter() - merge_started
                    node.merges += 1
            complete = node.next_slot == node.n_slots
            acc = node.acc
        if not complete:
            return
        if node.parent is None:
            self.finished.set()
            return
        self._respond_upward(node, node.parent, acc)

    def _respond_upward(self, node: _NodeState, parent: _NodeState,
                        acc: Any) -> None:
        """Send a completed node's merged result to its parent."""
        host = node.plan.host or ""
        try:
            payload = 0 if acc is _EMPTY else self.response_bytes(acc)
            lost = _respond(self.transport, host, payload,
                            self.executor.retries + 1)
        except BaseException as error:
            # A sizing or transport bug, not an injected drop: fail the run
            # rather than strand the parent's merge slot.
            self._abort(error)
            return
        if lost is None:
            self._account(payload)
            if node.host_state is not None:
                node.host_state.report.response_bytes = payload
        elif acc is not _EMPTY:
            # Only actual merged data going missing is worth a warning; an
            # empty response from an already-failed subtree is not news.
            self._warn(W_RESPONSE_LOST, host, lost)
            self._fail_subtree_hosts(node)
        self._deliver(parent, node.slot,
                      acc if lost is None and acc is not _EMPTY else _FAILED)

    def _fail_subtree_hosts(self, node: _NodeState) -> None:
        """Mark every ok host under ``node`` as lost (their merged partials
        never reached the parent)."""
        for hstate in self.host_states:
            state: Optional[_NodeState] = hstate.node
            while state is not None and state is not node:
                state = state.parent
            if state is node and hstate.report.ok:
                hstate.report.ok = False
                hstate.report.error = "subtree response lost"

    # ------------------------------------------------------------- plumbing
    def _abort(self, error: BaseException) -> None:
        """Record a fatal callback error and wake the orchestrator."""
        with self.lock:
            if self.error is None:
                self.error = error
        self.finished.set()

    def _account(self, payload_bytes: int) -> None:
        with self.lock:
            self.traffic_bytes += payload_bytes

    def _reclassify_duplicate(self, payload_bytes: int) -> None:
        """Move a delivered-but-useless request leg's bytes from the query's
        traffic total to the duplicate-attempt overhead stat."""
        if not payload_bytes:
            return
        with self.lock:
            self.traffic_bytes -= payload_bytes
            self.duplicate_bytes += payload_bytes

    def _warn(self, code: str, host: str, detail: str,
              attempts: int = 1) -> None:
        with self.lock:
            self.warnings.append(ExecWarning(code, host, detail, attempts))

    def _result(self, wall: float) -> GatherResult:
        return _gathered(
            self.root.acc, [h.report for h in self.host_states],
            self.warnings, wall, self.traffic_bytes, self.duplicate_bytes,
            {node.plan.host: node.merge_s for node in self.node_states},
            self.root.merges)


def _respond(transport: Optional[Transport], host: str, payload: int,
             tries: int) -> Optional[str]:
    """Send a node's response within ``tries``: ``None`` once delivered,
    else the last drop's text.  Anything but a drop propagates."""
    if transport is None:
        return None
    detail = ""
    for _ in range(tries):
        try:
            transport.respond(host, payload)
            return None
        except TransportError as error:
            detail = str(error)
    return detail


def _gathered(acc: Any, reports: List[HostReport],
              warnings: List[ExecWarning], wall: float, traffic: int,
              duplicate: int, merge_s: Dict[Optional[str], float],
              root_merges: int) -> GatherResult:
    """A run's outcome; ``reports`` in pre-order, ``acc`` maybe ``_EMPTY``."""
    hosts_failed = [report.host for report in reports if not report.ok]
    return GatherResult(
        value=None if acc is _EMPTY else acc, hosts_failed=hosts_failed,
        warnings=sorted(warnings, key=lambda w: (w.host, w.code)),
        partial=bool(hosts_failed), wall_s=wall, traffic_bytes=traffic,
        duplicate_traffic_bytes=duplicate, merge_s=merge_s,
        root_merges=root_merges,
        max_exec_s=max((report.exec_s for report in reports if report.ok),
                       default=0.0),
        reports={report.host: report for report in reports})
