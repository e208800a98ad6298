"""Concurrent scatter-gather execution for distributed queries.

The TIB is "maintained in a distributed fashion across all servers", so a
distributed query is a scatter-gather: ship the query to many hosts, run it
against each local TIB, and reduce the partial results.  Until now
:class:`~repro.core.cluster.QueryCluster` walked hosts in a Python loop and
*modelled* parallelism arithmetically.  This module supplies the real
engine, generic over the work performed per host:

* :class:`Transport` - the pluggable delivery protocol.  An implementation
  decides what "sending" means: :class:`ModelTransport` wraps the
  latency/bandwidth :class:`~repro.core.rpc.RpcChannel` model (nothing
  actually moves; latencies are computed and traffic is accounted), while
  :class:`LoopbackTransport` is an in-process transport with injectable
  *real* delays (``time.sleep`` releases the GIL, so concurrent runs
  genuinely overlap waits) and injectable message drops for failure
  testing.
* :class:`PlanNode` - the scatter plan, a tree.  A flat (direct) scatter is
  a one-level tree; a multi-level aggregation query maps its tree onto the
  plan one to one.  All logical payloads of a parent->child edge (query,
  subtree description) are *batched* into a single request message.
* :class:`ScatterGatherExecutor` - runs a plan.  ``mode="concurrent"``
  fans host work out over a worker pool with per-host timeouts, bounded
  retries and straggler hedging; ``mode="serial"`` executes the same plan
  on the calling thread in a deterministic order (reproducible figures).

Streaming partial merges: every node owns an accumulator and merges
results *as they arrive* instead of waiting for a full level barrier - a
fast child's partial result is folded in while its siblings are still
running.  Merges advance in a canonical slot order (children in tree
order, then the node's local result), so as long as the merge function is
associative the merged payload is **identical** across serial and
concurrent modes - the property the figure benchmarks rely on.
Declarative plan queries (:mod:`repro.core.plan`) reuse these slot-ordered
accumulators unchanged: their generic merge operators (concat /
histogram-merge / top-k-merge, selected by the plan's terminal op) are
associative by construction, so one executor serves hand-written and
plan-compiled queries alike.

Partial-failure semantics: a host that cannot be reached, exhausts its
retry budget, times out, or whose local work raises is recorded as a
structured :class:`ExecWarning` and the gather continues without it.  The
final :class:`GatherResult` carries ``partial=True`` plus ``hosts_failed``
so debugging applications can distinguish "no anomaly" from "couldn't
ask" (cf. the ``ExecuteResponse``/``Warning`` pattern of DCL-style
executors).  A failed interior node loses only its *local* partial result;
its subtree still aggregates (the node's process is assumed alive even
when its TIB query fails).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Protocol, Sequence,
                    Tuple)

from repro.core.rpc import RpcChannel
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
#: Worker-plane health codes (raised by the cluster, not the executor,
#: but part of the same structured-warning namespace): a supervised
#: agent-server worker was restarted and re-seeded, a host's restart
#: budget ran out (degraded to dead-agent semantics), an ingest mirror
#: detached after an unrecoverable delivery failure.
W_WORKER_RESTARTED = "worker_restarted"
W_CIRCUIT_OPEN = "circuit_open"
W_MIRROR_DETACHED = "mirror_detached"

#: Default worker-pool size cap for concurrent runs.
DEFAULT_MAX_WORKERS = 32

#: Sentinel marking an unfilled merge slot (``None`` is a valid value).
_EMPTY = object()


class TransportError(RuntimeError):
    """A request or response message could not be delivered."""


class DeadlineExceeded(TimeoutError):
    """A host's work stopped waiting at its per-host deadline.

    Work that enforces the deadline itself (a worker-mode leaf consuming an
    exchange it already sent) raises this; the host is reported as
    ``W_HOST_TIMEOUT`` and not retried, exactly like a watchdog timeout.
    """


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


@dataclass(frozen=True)
class TransportLeg:
    """Outcome of one delivered message.

    Attributes:
        latency_s: the leg's (modelled or real) one-way latency.
        payload_bytes: logical payload bytes moved (excluding protocol
            overhead; this is what query traffic accounting sums).
    """

    latency_s: float
    payload_bytes: int


class Transport(Protocol):
    """The pluggable delivery protocol of the executor.

    ``request`` delivers a batched request (several logical payload sizes in
    one message) to ``host``; ``respond`` delivers a result of
    ``payload_bytes`` from ``host`` back to its parent.  Implementations
    raise :class:`TransportError` for lost messages and may block (sleep)
    to emulate latency for real-concurrency experiments.
    """

    def request(self, host: str, parts: Sequence[int]) -> TransportLeg: ...

    def respond(self, host: str, payload_bytes: int) -> TransportLeg: ...


class ModelTransport:
    """The latency/bandwidth :class:`RpcChannel` model as a transport.

    Nothing is delivered anywhere: latencies are computed from the channel
    model and the channel's message/byte counters are updated.  Thread-safe
    (the underlying counters are guarded by a lock).
    """

    def __init__(self, channel: Optional[RpcChannel] = None) -> None:
        self.channel = channel or RpcChannel()
        self._lock = threading.Lock()

    def request(self, host: str, parts: Sequence[int]) -> TransportLeg:
        with self._lock:
            latency = self.channel.send_batch(parts)
        return TransportLeg(latency, sum(parts))

    def respond(self, host: str, payload_bytes: int) -> TransportLeg:
        with self._lock:
            latency = self.channel.send(payload_bytes)
        return TransportLeg(latency, payload_bytes)


@dataclass(slots=True)
class TransportStats(Counters):
    """Deliveries a :class:`LoopbackTransport` attempted, and dropped."""

    messages: int = 0
    dropped: int = 0


class LoopbackTransport:
    """In-process transport with injectable delays and drops.

    Args:
        delay: request delivery delay in seconds, or a callable
            ``(host, attempt) -> seconds`` (attempt numbering starts at 1,
            counted per host - hedged and retried deliveries see higher
            attempt numbers, which lets tests make only the first attempt
            slow).  Delays are *really slept*, releasing the GIL, so
            concurrent scatters overlap them.
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

    def _attempt_number(self, counts: Dict[str, int], host: str) -> int:
        with self._lock:
            counts[host] = attempt = counts.get(host, 0) + 1
            self.stats.messages += 1
        return attempt

    def request(self, host: str, parts: Sequence[int]) -> TransportLeg:
        attempt = self._attempt_number(self._request_attempts, host)
        if host in self.dead_hosts or attempt <= self._drop_requests.get(host, 0):
            with self._lock:
                self.stats.dropped += 1
            raise TransportError(f"request to {host} lost (attempt {attempt})")
        wait = float(self._delay(host, attempt))
        if wait > 0:
            time.sleep(wait)
        return TransportLeg(wait, sum(parts))

    def respond(self, host: str, payload_bytes: int) -> TransportLeg:
        attempt = self._attempt_number(self._respond_attempts, host)
        if host in self.dead_hosts or attempt <= self._drop_responses.get(host, 0):
            with self._lock:
                self.stats.dropped += 1
            raise TransportError(f"response from {host} lost (attempt {attempt})")
        wait = float(self._respond_delay(host, attempt))
        if wait > 0:
            time.sleep(wait)
        return TransportLeg(wait, payload_bytes)

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
    """Per-host outcome of a scatter."""

    host: str
    ok: bool = False
    attempts: int = 0
    hedged: bool = False
    exec_s: float = 0.0
    request_latency_s: float = 0.0
    respond_latency_s: float = 0.0
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
        model_time_s: modelled end-to-end response time (transport
            latencies + measured per-node execution and merge times,
            combined over the plan tree).
        traffic_bytes: logical payload bytes moved by the transport legs
            that produced the gathered result - one winning request leg
            per host plus the delivered responses.  Bytes moved by
            duplicate attempts (lost hedge races, retries whose work
            failed, deliveries voided by a timeout) are **not** included
            here; they are tallied separately so hedging can never inflate
            the traffic attributed to the query itself.
        duplicate_traffic_bytes: payload bytes moved by those non-winning
            attempts (the overhead cost of hedging/retrying).  Attempts
            still sleeping in the transport when the gather completes are
            not observed at all.
        root_merge_s: cumulative merge time spent at the root node.
        merge_s_total: cumulative merge time over every node.
        root_merges: number of pairwise merges performed at the root.
        max_exec_s: slowest successful per-host execution.
        reports: per-host :class:`HostReport` entries.
    """

    value: Any
    hosts_failed: List[str]
    warnings: List[ExecWarning]
    partial: bool
    wall_s: float
    model_time_s: float
    traffic_bytes: int
    duplicate_traffic_bytes: int
    root_merge_s: float
    merge_s_total: float
    root_merges: int
    max_exec_s: float
    reports: Dict[str, HostReport]


# --------------------------------------------------------------------------
# Internal run state
# --------------------------------------------------------------------------
class _NodeState:
    """Merge accumulator and completion tracking for one plan node."""

    __slots__ = ("plan", "parent", "slot", "n_slots", "next_slot", "slots",
                 "acc", "merges", "merge_s", "contrib_max", "lock",
                 "respond_latency", "host_state")

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
        self.contrib_max = 0.0      # max over completed slots' model times
        self.lock = threading.Lock()
        self.respond_latency = 0.0
        self.host_state: Optional["_HostState"] = None


class _HostState:
    """Attempt bookkeeping for one host's request+work unit."""

    __slots__ = ("node", "host", "lock", "work_lock", "done", "attempts",
                 "budget", "inflight", "hedged", "started_at", "report")

    def __init__(self, node: _NodeState) -> None:
        self.node = node
        self.host: str = node.plan.host  # type: ignore[assignment]
        self.lock = threading.Lock()
        # Serialises the work() callback across duplicate attempts: hedge
        # twins overlap each other's *transport* legs (where stragglers
        # live) but never run the host's local work - typically a query
        # against a thread-unsafe agent - concurrently.
        self.work_lock = threading.Lock()
        self.done = False
        self.attempts = 0
        self.budget = 1
        self.inflight = 0
        self.hedged = False
        self.started_at: Optional[float] = None
        self.report = HostReport(host=self.host)


class ScatterGatherExecutor:
    """Runs scatter plans over a transport.

    Args:
        transport: the delivery protocol (defaults to a fresh
            :class:`ModelTransport`).
        mode: ``"concurrent"`` (worker pool) or ``"serial"`` (deterministic
            in-order execution on the calling thread).
        max_workers: worker-pool size cap for concurrent runs (defaults to
            ``min(32, number of hosts)``).
        timeout_s: per-host deadline; a host still running past it is
            declared failed (its partial result is dropped even if the
            worker later finishes).  In serial mode the deadline is applied
            to the host's modelled request leg plus measured execution
            time after the fact; work that waits on something can enforce
            it itself by raising :class:`DeadlineExceeded` instead (see
            ``exec_seconds`` of :meth:`run`).
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
        self.transport: Transport = transport or ModelTransport()
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
        outcome.  ``response_bytes(value)`` sizes response messages for the
        transport.  ``exec_seconds(value)``, when given, is a host's
        execution time in place of the wall time of its ``work`` call (for
        work that only collects something timed where it ran).  Such work
        must enforce ``timeout_s`` itself, on the real clock, by raising
        :class:`DeadlineExceeded`: serial mode then skips its
        after-the-fact check, which would add the modelled request leg to
        a duration the work did not wait through."""
        run = _Run(self, plan, work, merge, response_bytes, exec_seconds)
        return run.execute()

class _Run:
    """One scatter-gather execution (state shared by all worker threads)."""

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
        self.serial = executor.mode == MODE_SERIAL
        self.root = _NodeState(plan, parent=None, slot=-1)
        self.host_states: List[_HostState] = []
        self.node_states: List[_NodeState] = [self.root]
        self._build(plan, self.root)
        self.lock = threading.Lock()
        self.traffic_bytes = 0
        self.duplicate_bytes = 0
        self.warnings: List[ExecWarning] = []
        self.finished = threading.Event()
        self.model_time_s = 0.0
        self.pool: Optional[ThreadPoolExecutor] = None
        #: First fatal error (a merge/response_bytes callback raising) -
        #: recorded on whatever thread hit it, re-raised to the caller.
        self.error: Optional[BaseException] = None

    def _build(self, plan: PlanNode, state: _NodeState) -> None:
        """Create node/host states depth-first (canonical dispatch order)."""
        if plan.host is not None:
            state.host_state = _HostState(state)
            self.host_states.append(state.host_state)
        for index, child in enumerate(plan.children):
            child_state = _NodeState(child, parent=state, slot=index)
            self.node_states.append(child_state)
            self._build(child, child_state)

    # ------------------------------------------------------------ execution
    def execute(self) -> GatherResult:
        budget = self.executor.retries + 1
        for hstate in self.host_states:
            hstate.budget = budget
        started = time.perf_counter()
        if not self.host_states:
            # Scattering to nobody is a valid degenerate query (e.g. a host
            # filter that matched nothing): an empty, non-partial gather.
            return self._result(0.0)
        if self.serial:
            for hstate in self.host_states:
                if self.error is not None:
                    break
                self._submit(hstate)
        else:
            workers = self.executor.max_workers or min(DEFAULT_MAX_WORKERS,
                                                       len(self.host_states))
            self.pool = ThreadPoolExecutor(
                max_workers=max(1, workers),
                thread_name_prefix="scatter-gather")
            watchdog = None
            if self.executor.timeout_s is not None or \
                    self.executor.hedge_after_s is not None:
                watchdog = threading.Thread(target=self._watchdog,
                                            daemon=True)
                watchdog.start()
            for hstate in self.host_states:
                self._submit(hstate)
            self.finished.wait()
            # Stragglers that lost a hedge race (or timed out) may still be
            # sleeping in the transport; don't wait for them.
            self.pool.shutdown(wait=False, cancel_futures=True)
        if self.error is not None:
            raise self.error
        wall = time.perf_counter() - started
        return self._result(wall)

    def _submit(self, hstate: _HostState) -> None:
        """Launch one attempt for ``hstate`` (inline in serial mode)."""
        with hstate.lock:
            hstate.attempts += 1
            hstate.inflight += 1
            hstate.report.attempts = hstate.attempts
        if self.serial or self.pool is None:
            self._attempt(hstate)
        else:
            self.pool.submit(self._attempt, hstate)

    def _attempt(self, hstate: _HostState) -> None:
        host = hstate.host
        with hstate.lock:
            if hstate.done:
                hstate.inflight -= 1
                return
            if hstate.started_at is None:
                hstate.started_at = time.perf_counter()
        request_latency = 0.0
        # Bytes this attempt's delivered request leg moved: accounted as
        # real traffic up front, reclassified as duplicate overhead if the
        # attempt turns out not to be the one that produced the host's
        # result (hedge race lost, work failed, deadline voided it).
        leg_bytes = 0
        try:
            parts = hstate.node.plan.request_parts
            if parts:
                leg = self.transport.request(host, parts)
                request_latency = leg.latency_s
                leg_bytes = leg.payload_bytes
                self._account(leg)
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
        if self.serial and self.exec_seconds is None and \
                self.executor.timeout_s is not None and \
                request_latency + exec_s > self.executor.timeout_s:
            # The deadline was blown by the (modelled) delivery plus the
            # execution, so that is what the slot contributes to the model.
            self._reclassify_duplicate(leg_bytes)
            self._host_failed(hstate, W_HOST_TIMEOUT,
                              f"exceeded per-host timeout of "
                              f"{self.executor.timeout_s}s",
                              model_s=request_latency + exec_s)
            return
        with hstate.lock:
            hstate.inflight -= 1
            if hstate.done:
                # A hedge twin won, or the watchdog timed us out: this
                # attempt's delivered request was overhead, not query
                # traffic.
                self._reclassify_duplicate(leg_bytes)
                return
            hstate.done = True
            hstate.report.ok = True
            hstate.report.exec_s = exec_s
            hstate.report.request_latency_s = request_latency
        if hstate.hedged:
            self._warn(W_HEDGED, host, "straggler hedged; fastest attempt "
                       "won", hstate.attempts)
        elif hstate.attempts > 1:
            self._warn(W_RETRIED, host, "delivered after retry",
                       hstate.attempts)
        # The local slot models execution only; the request leg prefixes
        # the node's *whole* subtree completion (children cannot start
        # before the node received the query) and is added when the merged
        # result travels upward - see _respond_upward.
        self._deliver(hstate.node, hstate.node.n_slots - 1, value,
                      exec_s, ok=True)

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

    def _host_failed(self, hstate: _HostState, code: str, detail: str,
                     model_s: Optional[float] = None) -> None:
        with hstate.lock:
            if hstate.done:
                return
            hstate.done = True
            hstate.report.ok = False
            hstate.report.error = detail
            if model_s is None:
                # No modelled duration available (dropped messages, real
                # watchdog timeouts): the measured wait stands in.
                model_s = 0.0
                if hstate.started_at is not None:
                    model_s = time.perf_counter() - hstate.started_at
        self._warn(code, hstate.host, detail, hstate.attempts)
        self._deliver(hstate.node, hstate.node.n_slots - 1, None,
                      model_s, ok=False)

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
    def _deliver(self, node: _NodeState, slot: int, value: Any,
                 model_s: float, ok: bool) -> None:
        """Fill a merge slot; advance the node's streaming merge; propagate
        completion upward.  Merges run on the delivering thread, in
        canonical slot order (which makes the merged payload independent of
        arrival order)."""
        with node.lock:
            node.slots[slot] = (value, model_s, ok)
            while node.next_slot < node.n_slots and \
                    node.slots[node.next_slot] is not _EMPTY:
                slot_value, slot_model, slot_ok = node.slots[node.next_slot]
                node.slots[node.next_slot] = None  # release the reference
                node.next_slot += 1
                node.contrib_max = max(node.contrib_max, slot_model)
                if not slot_ok:
                    continue
                if node.acc is _EMPTY:
                    node.acc = slot_value
                else:
                    merge_started = time.perf_counter()
                    try:
                        node.acc = self.merge(node.acc, slot_value)
                    except BaseException as error:
                        # A broken merge callback must fail the run, not
                        # strand finished.wait() forever (the slot is
                        # consumed; no other thread can complete the node).
                        self._abort(error)
                        return
                    node.merge_s += time.perf_counter() - merge_started
                    node.merges += 1
            complete = node.next_slot == node.n_slots
            if complete:
                acc = node.acc
                completion_model = node.contrib_max + node.merge_s
        if not complete:
            return
        if node.parent is None:
            self.model_time_s = completion_model
            self.finished.set()
            return
        self._respond_upward(node, acc, completion_model)

    def _respond_upward(self, node: _NodeState, acc: Any,
                        completion_model: float) -> None:
        """Send a completed node's merged result to its parent."""
        host = node.plan.host
        try:
            payload = 0 if acc is _EMPTY else self.response_bytes(acc)
        except BaseException as error:
            self._abort(error)
            return
        latency = 0.0
        delivered = False
        detail = ""
        for _ in range(self.executor.retries + 1):
            try:
                leg = self.transport.respond(host, payload)
                latency = leg.latency_s
                self._account(leg)
                delivered = True
                break
            except TransportError as error:
                detail = str(error)
            except BaseException as error:
                # A transport bug (not a modelled delivery failure) must
                # fail the whole run, not strand the parent's merge slot.
                self._abort(error)
                return
        if not delivered and acc is not _EMPTY:
            # Only actual merged data going missing is worth a warning; an
            # empty response from an already-failed subtree is not news.
            self._warn(W_RESPONSE_LOST, host, detail)
        node.respond_latency = latency
        request_latency = 0.0
        if node.host_state is not None:
            node.host_state.report.respond_latency_s = latency
            request_latency = node.host_state.report.request_latency_s
        # Chain the model through the tree exactly as the recursion of the
        # old arithmetic executor did: this subtree's contribution to its
        # parent is request leg + subtree completion + response leg (the
        # children could not start before this node received the query).
        contribution = request_latency + completion_model + latency
        if acc is _EMPTY or not delivered:
            if acc is not _EMPTY:  # merged data lost on the way up
                self._fail_subtree_hosts(node)
            self._deliver(node.parent, node.slot, None, contribution,
                          ok=False)
        else:
            self._deliver(node.parent, node.slot, acc, contribution,
                          ok=True)

    def _fail_subtree_hosts(self, node: _NodeState) -> None:
        """Mark every ok host under ``node`` as lost (their merged partials
        never reached the parent)."""
        hosts = {h.host: h for h in self.host_states}
        stack = [node.plan]
        while stack:
            plan = stack.pop()
            stack.extend(plan.children)
            hstate = hosts.get(plan.host) if plan.host is not None else None
            if hstate is not None and hstate.report.ok:
                hstate.report.ok = False
                hstate.report.error = "subtree response lost"

    # ------------------------------------------------------------- plumbing
    def _abort(self, error: BaseException) -> None:
        """Record a fatal callback error and wake the orchestrator."""
        with self.lock:
            if self.error is None:
                self.error = error
        self.finished.set()

    def _account(self, leg: TransportLeg) -> None:
        with self.lock:
            self.traffic_bytes += leg.payload_bytes

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
            self.warnings.append(ExecWarning(code=code, host=host,
                                             detail=detail,
                                             attempts=attempts))

    def _result(self, wall: float) -> GatherResult:
        reports = {h.host: h.report for h in self.host_states}
        hosts_failed = [h.host for h in self.host_states if not h.report.ok]
        warnings = sorted(self.warnings, key=lambda w: (w.host, w.code))
        merge_total = sum(node.merge_s for node in self.node_states)
        max_exec = max((h.report.exec_s for h in self.host_states
                        if h.report.ok), default=0.0)
        value = None if self.root.acc is _EMPTY else self.root.acc
        return GatherResult(
            value=value, hosts_failed=hosts_failed, warnings=warnings,
            partial=bool(hosts_failed), wall_s=wall,
            model_time_s=self.model_time_s,
            traffic_bytes=self.traffic_bytes,
            duplicate_traffic_bytes=self.duplicate_bytes,
            root_merge_s=self.root.merge_s, merge_s_total=merge_total,
            root_merges=self.root.merges, max_exec_s=max_exec,
            reports=reports)
