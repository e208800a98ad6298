"""pathbench's traced run: spans around public calls, from outside.

``TARGETS`` is the one table of dotted public names -> (span name, layer).
``Tracer.install`` resolves each name when the run starts and replaces the
attribute with a wrapper; a name that no longer resolves lands in
``Tracer.unresolved`` and its metrics read ``metrics.UNRESOLVED`` - the
traced run degrades, it never crashes, because later changes may delete
what it wraps and may not edit it.

A span is ``(id, name, layer, start, end, parent, op, thread)`` from
``perf_counter_ns``.  A layer's *self time* is its span's duration minus
the part its child spans cover; spans nest per thread, so a call made on
an executor thread is no child of the gather that waits for it.  Every
span updates running totals; the first ``span_cap`` are also kept in
memory and written as JSON lines on request.

End-to-end numbers never come from here: ``--trace 1`` runs the same loop
first with the wrappers disabled, then enabled, and reports the per-layer
table, the ratio of the two (``trace.overhead_ratio``) and the ledger
check ``trace.coverage``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import threading
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.core import wire

from pathbench.metrics import (PER_LAYER, UNRESOLVED, by_cycle, gated_tail,
                               percentile)
from pathbench.workloads import (CYCLE, GROUP_COUNT, MODE_SOCKET,
                                 MONITORED_FLOWS, QUERY_CLASSES, Phases)

Units = Optional[Callable[[tuple, Any], int]]


@dataclass(frozen=True)
class Target:
    dotted: str
    span: str
    layer: str
    #: Work units of one call (records in a batch, bytes of a frame...).
    units: Units = None


def _len_result(_args: tuple, result: Any) -> int:
    return len(result)


def _len_arg(index: int) -> Callable[[tuple, Any], int]:
    return lambda args, _result: len(args[index])


TARGETS: Tuple[Target, ...] = (
    Target("repro.core.vswitch.EdgeVSwitch.receive",
           "EdgeVSwitch.receive", "vswitch"),
    Target("repro.core.trajectory.TrajectoryMemory.update",
           "TrajectoryMemory.update", "trajectory"),
    Target("repro.core.trajectory.TrajectoryMemory.evict_idle",
           "TrajectoryMemory.evict_idle", "trajectory", _len_result),
    Target("repro.core.trajectory.TrajectoryConstructor.construct",
           "TrajectoryConstructor.construct", "trajectory"),
    Target("repro.core.agent.PathDumpAgent.on_packet_delivered",
           "PathDumpAgent.on_packet_delivered", "agent"),
    Target("repro.core.agent.PathDumpAgent.flush",
           "PathDumpAgent.flush", "agent"),
    Target("repro.core.agent.PathDumpAgent.ingest_path_record",
           "PathDumpAgent.ingest_path_record", "agent"),
    Target("repro.core.agent.PathDumpAgent.execute_query",
           "PathDumpAgent.execute_query", "agent"),
    Target("repro.core.agent.PathDumpAgent.run_monitor",
           "PathDumpAgent.run_monitor", "agent"),
    Target("repro.core.agent.PathDumpAgent.run_installed",
           "PathDumpAgent.run_installed", "agent"),
    Target("repro.core.agent.PathDumpAgent.reset_stats",
           "PathDumpAgent.reset_stats", "agent"),
    Target("repro.core.tib.Tib.add_record", "Tib.add_record", "tib"),
    Target("repro.core.tib.Tib.add_records", "Tib.add_records", "tib"),
    Target("repro.core.tib.Tib.records", "Tib.records", "tib"),
    Target("repro.core.tib.Tib.spec_records", "Tib.spec_records", "tib",
           _len_result),
    Target("repro.core.tib.Tib.scan", "Tib.scan", "tib"),
    Target("repro.storage.archive.ColdArchive.stage",
           "ColdArchive.stage", "archive"),
    Target("repro.storage.archive.ColdArchive.append",
           "ColdArchive.append", "archive"),
    Target("repro.storage.archive.ColdArchive.take",
           "ColdArchive.take", "archive"),
    Target("repro.storage.archive.ColdArchive.flush",
           "ColdArchive.flush", "archive"),
    Target("repro.storage.archive.ColdArchive.compact",
           "ColdArchive.compact", "archive"),
    Target("repro.storage.archive.ColdArchive.scan",
           "ColdArchive.scan", "archive", _len_result),
    Target("repro.core.plan.validate", "plan.validate", "plan"),
    Target("repro.core.plan.compile_get_count", "plan.compile", "plan"),
    Target("repro.core.plan.compile_top_k_flows", "plan.compile", "plan"),
    Target("repro.core.plan.execute_plan", "plan.execute_plan", "plan",
           lambda _args, result: result.records_scanned),
    Target("repro.core.plan.merge_payloads", "plan.merge_payloads", "plan"),
    Target("repro.core.query.QueryEngine.execute",
           "QueryEngine.execute", "query"),
    Target("repro.core.query.QueryEngine.merge",
           "QueryEngine.merge", "query"),
    # Bound by name where it is used, so both names are wrapped.
    Target("repro.core.query.measured_result_wire_bytes",
           "query.measured_result_wire_bytes", "query"),
    Target("repro.core.cluster.measured_result_wire_bytes",
           "query.measured_result_wire_bytes", "query"),
    Target("repro.core.wire.encode_query", "wire.encode_query", "wire"),
    Target("repro.core.wire.encode_query_request",
           "wire.encode_query_request", "wire", _len_result),
    Target("repro.core.wire.decode_query_request",
           "wire.decode_query_request", "wire"),
    Target("repro.core.wire.encode_subtree_spec",
           "wire.encode_subtree_spec", "wire"),
    Target("repro.core.wire.encode_result", "wire.encode_result", "wire",
           _len_result),
    Target("repro.core.wire.decode_result", "wire.decode_result", "wire"),
    Target("repro.core.wire.encode_group_batch",
           "wire.group_batch", "wire"),
    Target("repro.core.wire.decode_group_batch",
           "wire.group_batch", "wire"),
    Target("repro.core.wire.encode_monitor_tick",
           "wire.encode_monitor_tick", "wire"),
    Target("repro.core.wire.encode_monitor_state",
           "wire.encode_monitor_state", "wire"),
    Target("repro.core.wire.encode_alarm_batch",
           "wire.encode_alarm_batch", "wire"),
    Target("repro.core.wire.decode_alarm_batch",
           "wire.decode_alarm_batch", "wire"),
    Target("repro.core.wire.encode_record_batch",
           "wire.encode_record_batch", "wire", _len_arg(0)),
    Target("repro.core.wire.decode_record_batch",
           "wire.decode_record_batch", "wire", _len_result),
    Target("repro.core.executor.ScatterGatherExecutor.run",
           "ScatterGatherExecutor.run", "executor"),
    Target("repro.core.cluster.QueryCluster.execute",
           "QueryCluster.execute", "cluster"),
    Target("repro.core.cluster.QueryCluster.run_monitors",
           "QueryCluster.run_monitors", "cluster"),
    Target("repro.core.cluster.QueryCluster.reset_stats",
           "QueryCluster.reset_stats", "cluster"),
    Target("repro.core.controller.PathDumpController.execute",
           "PathDumpController.execute", "controller"),
    Target("repro.core.controller.PathDumpController.tick",
           "PathDumpController.tick", "controller"),
    Target("repro.core.controller.PathDumpController.reset_stats",
           "PathDumpController.reset_stats", "controller"),
    Target("repro.core.groupserver.GroupAgentPool.group_query",
           "GroupAgentPool.group_query", "groupserver"),
    Target("repro.core.groupserver.GroupAgentPool.query",
           "GroupAgentPool.query", "groupserver"),
    Target("repro.core.groupserver.GroupAgentPool.group_monitor_tick",
           "GroupAgentPool.group_monitor_tick", "groupserver"),
    Target("repro.core.groupserver.GroupAgentPool.add_records",
           "GroupAgentPool.add_records", "groupserver", _len_arg(2)),
    Target("repro.core.groupserver.GroupAgentPool.seed_monitor",
           "GroupAgentPool.seed_monitor", "groupserver"),
    Target("repro.core.monitor.ActiveMonitor.run_check",
           "ActiveMonitor.run_check", "monitor"),
    Target("repro.core.monitor.ActiveMonitor.reset_stats",
           "ActiveMonitor.reset_stats", "monitor"),
    Target("repro.core.alarms.AlarmBus.raise_alarm",
           "AlarmBus.raise_alarm", "alarms"),
)


def resolve(dotted: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` of a dotted name: the longest importable
    module prefix, then attributes.  Raises ``LookupError`` when any part
    is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            getattr(owner, parts[-1])
        except AttributeError as error:
            raise LookupError(f"{dotted}: {error}") from None
        return owner, parts[-1]
    raise LookupError(f"{dotted}: no importable module")


# Totals per span name: [calls, self ns, total ns, units].
Totals = Dict[str, List[int]]


class _ThreadState:
    __slots__ = ("stack", "totals", "main", "ident")

    def __init__(self, main: bool, ident: int) -> None:
        self.stack: List[List[int]] = []  # [child ns, span id] per open span
        self.totals: Totals = {}
        self.main = main
        self.ident = ident


class Tracer:
    """Installs the wrappers and keeps the spans."""

    def __init__(self, span_cap: int = 200_000) -> None:
        self.enabled = False
        self.span_cap = span_cap
        self.spans: List[Tuple[int, str, str, int, int, Optional[int],
                               Any, int]] = []
        self.span_count = 0
        self.unresolved: List[str] = []
        #: The op the harness is timing, stamped on every span.
        self.op: Any = None
        self._installed: List[Tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._main = threading.get_ident()

    # --------------------------------------------------------------- install
    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        for target in targets:
            try:
                owner, attribute = resolve(target.dotted)
            except LookupError:
                self.unresolved.append(target.dotted)
                continue
            raw = inspect.getattr_static(owner, attribute)
            function = raw.__func__ if isinstance(
                raw, (staticmethod, classmethod)) else raw
            wrapper: Any = self.wrap(function, target.span, target.layer,
                                     target.units)
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            elif isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            setattr(owner, attribute, wrapper)
            self._installed.append((owner, attribute, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, raw = self._installed.pop()
            setattr(owner, attribute, raw)

    def missing(self, span: str) -> bool:
        """Whether every target feeding ``span`` failed to resolve."""
        feeding = [t.dotted for t in TARGETS if t.span == span]
        return bool(feeding) and all(d in self.unresolved for d in feeding)

    # ------------------------------------------------------------------ wrap
    def _state(self) -> _ThreadState:
        ident = threading.get_ident()
        state = _ThreadState(ident == self._main, ident)
        self._local.state = state
        with self._lock:
            self._states.append(state)
        return state

    def wrap(self, function: Callable, span: str, layer: str,
             units: Units = None) -> Callable:
        tracer = self
        local = self._local
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return function(*args, **kwargs)
            # The clock starts before the bookkeeping, so a wrapper's own
            # cost lands in its span and not in a gap of the ledger.
            start = clock()
            state = getattr(local, "state", None) or tracer._state()
            stack = state.stack
            tracer._next_id = span_id = tracer._next_id + 1
            frame = [0, span_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                totals = state.totals.get(span)
                if totals is None:
                    totals = state.totals[span] = [0, 0, 0, 0]
                totals[0] += 1
                totals[1] += duration - frame[0]
                totals[2] += duration
                if units is not None and result is not None:
                    totals[3] += units(args, result)
                tracer.span_count += 1
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append((
                        span_id, span, layer, start, end,
                        parent[1] if parent is not None else None,
                        tracer.op, state.ident))

        traced.__name__ = getattr(function, "__name__", span)
        traced.__doc__ = getattr(function, "__doc__", None)
        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # ---------------------------------------------------------------- totals
    def totals(self, main_only: bool = False) -> Totals:
        """Running totals per span name, summed over threads (or of the
        harness's own thread: the blocking path)."""
        summed: Totals = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            if main_only and not state.main:
                continue
            while True:
                try:  # an executor thread may be adding its first span
                    rows = list(state.totals.items())
                    break
                except RuntimeError:
                    continue
            for span, values in rows:
                into = summed.setdefault(span, [0, 0, 0, 0])
                for index in range(4):
                    into[index] += values[index]
        return summed

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for (span_id, span, layer, start, end, parent, op,
                 thread) in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": span, "layer": layer,
                    "start_ns": start, "end_ns": end, "parent": parent,
                    "op": op, "thread": thread}) + "\n")


def self_times(spans: Iterable[Tuple[int, int, int, Optional[int]]]
               ) -> Dict[int, int]:
    """Self time per span id from ``(id, start, end, parent)`` rows: the
    span's duration minus its direct children's (a grandchild is already
    inside its parent, a sibling's time is never shared)."""
    rows = list(spans)
    result = {span_id: end - start for span_id, start, end, _ in rows}
    for _span_id, start, end, parent in rows:
        if parent is not None and parent in result:
            result[parent] -= end - start
    return result


def _delta(after: Totals, before: Totals) -> Totals:
    return {span: [values[i] - before.get(span, (0, 0, 0, 0))[i]
                   for i in range(4)]
            for span, values in after.items()}


def _add(into: Totals, delta: Totals) -> None:
    for span, values in delta.items():
        slot = into.setdefault(span, [0, 0, 0, 0])
        for index in range(4):
            slot[index] += values[index]


# --------------------------------------------------------------------------
# The traced loop
# --------------------------------------------------------------------------
#: Counters read as deltas around each op (``reset_stats`` zeroes them).
_ARCHIVE_COUNTERS = ("flushes", "compactions", "segments_skipped",
                     "segment_decodes", "entries_decoded",
                     "decode_cache_hits", "takes")
_DOCSTORE_COUNTERS = ("full_scans", "index_rebuilds", "compactions")
_ROUTE_COUNTERS = ("hot_flow_routed", "hot_link_routed", "hot_time_routed",
                   "hot_full_scans")
_POOL_COUNTERS = ("frames_sent", "envelopes_sent", "bytes_sent",
                  "bytes_received")

#: Share of ``--seconds`` the traced run spends with wrappers disabled.
UNTRACED_SHARE = 0.4


def _chain(root: Any, *names: str) -> Any:
    """``root.a.b...`` or ``None`` as soon as a link is missing."""
    for name in names:
        root = getattr(root, name, None)
        if root is None:
            return None
    return root


class TracedPhases(Phases):
    """The ``Phases`` hook of a traced run: totals and program counters as
    deltas around every timed op, worker-side stages replayed on the local
    mirror, and the per-layer table at the end."""

    def __init__(self, tracer: Tracer, deployment: Any, inputs: Any) -> None:
        self.tracer = tracer
        self.deployment = deployment
        self.inputs = inputs
        self.driver: Any = None
        #: Per phase: blocking-path totals, all-thread totals, wall, ops.
        self.on_path: Dict[str, Totals] = {}
        self.everywhere: Dict[str, Totals] = {}
        self.wall: Dict[str, float] = {}
        self.ops: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: (phase, counter) -> how far the ops of that phase moved it.
        self.counters: Dict[Tuple[str, str], int] = {}
        self.missing_counters: List[str] = []
        self.breakdowns: Dict[str, List[float]] = {}
        self.exec_warnings = 0
        self.traced_from = 0
        self._before: Tuple[Totals, Totals, Dict[str, int]] = ({}, {}, {})

    # ------------------------------------------------------- program counters
    def _read_counters(self) -> Dict[str, int]:
        values: Dict[str, int] = {}

        def add(name: str, amount: Any) -> None:
            if amount is None:
                if name not in self.missing_counters:
                    self.missing_counters.append(name)
                return
            values[name] = values.get(name, 0) + int(amount)

        cluster = self.deployment.cluster
        for host in self.inputs.hosts:
            tib = cluster.agent(host).tib
            add("tib.evictions", getattr(tib, "evictions", None))
            add("tib.promotions", getattr(tib, "promotions", None))
            snapshot = getattr(tib, "scan_stat_snapshot", None)
            routes = snapshot() if callable(snapshot) else {}
            for name in _ROUTE_COUNTERS:
                add(f"tib.{name}", routes.get(name))
            archive = getattr(tib, "archive", None)
            stats = getattr(archive, "stats", None) or {}
            for name in _ARCHIVE_COUNTERS:
                add(f"archive.{name}",
                    stats.get(name, 0 if archive is None else None))
            collection = None
            store = getattr(tib, "store", None)
            if store is not None and hasattr(tib, "COLLECTION"):
                collection = store.collection(tib.COLLECTION)
            stats = getattr(collection, "stats", None) or {}
            for name in _DOCSTORE_COUNTERS:
                add(f"docstore.{name}", stats.get(name))
        add("rpc.messages", _chain(cluster, "rpc", "stats", "messages"))
        pool_stats = _chain(cluster, "agent_servers", "stats")
        for name in _POOL_COUNTERS:
            add(f"groupserver.{name}",
                0 if pool_stats is None else getattr(pool_stats, name, None))
        return values

    # ---------------------------------------------------------------- phases
    def begin(self, phase: str) -> None:
        tracer = self.tracer
        if not tracer.enabled:
            return
        tracer.op = phase
        self._before = (tracer.totals(main_only=True), tracer.totals(),
                        self._read_counters())

    def end(self, phase: str, wall_s: float, ops: int) -> None:
        tracer = self.tracer
        if not tracer.enabled:
            return
        before_main, before_all, before_counters = self._before
        _add(self.on_path.setdefault(phase, {}),
             _delta(tracer.totals(main_only=True), before_main))
        _add(self.everywhere.setdefault(phase, {}),
             _delta(tracer.totals(), before_all))
        if phase != "reset":  # it zeroes what the others count up
            for name, value in self._read_counters().items():
                key = (phase, name)
                self.counters[key] = (self.counters.get(key, 0) + value
                                      - before_counters.get(name, 0))
        self.wall[phase] = self.wall.get(phase, 0.0) + wall_s
        self.ops[phase] = self.ops.get(phase, 0) + ops
        self.calls[phase] = self.calls.get(phase, 0) + 1
        tracer.op = None
        if phase == "query" and ops:
            result = self.driver.last_result
            for name, seconds in getattr(result, "breakdown", {}).items():
                self.breakdowns.setdefault(
                    f"{result.mechanism}:{name}", []).append(seconds)
            self.exec_warnings += len(getattr(result, "warnings", ()))

    # ---------------------------------------------------------------- replay
    def replay(self, queries: Dict[str, Any], record_batches: Any) -> None:
        """Worker-side stages cannot be seen from outside a worker, so a
        socket run repeats them here, in-process, on the controller's
        dual-write mirror and with the same public functions: request
        decode, per-host execution, result encode, record-batch decode,
        the idle monitor check and alarm-batch encode."""
        if not self.tracer.enabled or \
                self.inputs.shape.mode != MODE_SOCKET:
            return
        cluster = self.deployment.cluster
        self.begin("replay")
        started = time.perf_counter()
        count = 0
        for query in queries.values():
            frame = wire.encode_query_request(query, None)
            for host in self.inputs.hosts:
                agent = cluster.agent(host)
                wire.decode_query_request(frame)
                result = agent.engine.execute(agent, query,
                                              measure_wire=False)
                wire.decode_result(wire.encode_result(result), query)
            count += 1
        for host, batch in record_batches:
            wire.decode_record_batch(wire.encode_record_batch(batch))
        for host in self.inputs.hosts:
            # Every poor flow is latched after the alarm sweeps, so this
            # check changes nothing on the mirror.
            quiet = cluster.agent(host).monitor.run_check(self.driver.now)
            wire.decode_alarm_batch(wire.encode_alarm_batch(quiet))
        self.end("replay", time.perf_counter() - started, count)

    # ------------------------------------------------------------------ loop
    def run_traced(self, driver: Any, seconds: float) -> int:
        self.driver = driver
        iteration = driver.run(seconds * UNTRACED_SHARE)
        self.traced_from = iteration
        self.tracer.enabled = True
        try:
            return driver.run(seconds * (1.0 - UNTRACED_SHARE), iteration)
        finally:
            self.tracer.enabled = False

    # --------------------------------------------------------------- metrics
    def layer_shares(self) -> Dict[str, float]:
        """Each layer's share of the blocking path: its self time on the
        harness's own thread over the wall of the timed sections (on
        fanout-socket the executor's share holds the wait for workers)."""
        layer_of = {target.span: target.layer for target in TARGETS}
        timed = [phase for phase in self.wall if phase != "replay"]
        wall_ns = sum(self.wall[phase] for phase in timed) * 1e9
        shares: Dict[str, float] = {}
        for phase in timed:
            for span, values in self.on_path.get(phase, {}).items():
                layer = layer_of[span]
                shares[layer] = shares.get(layer, 0.0) + values[1]
        return {layer: ns / wall_ns for layer, ns in shares.items()} \
            if wall_ns else {}

    def per_layer_metrics(self, samples: Any, inputs: Any,
                          iterations: int) -> Dict[str, float]:
        tracer = self.tracer
        everywhere: Totals = {}
        for totals in self.everywhere.values():
            _add(everywhere, totals)

        def span(name: str, phase: Optional[str] = None) -> List[int]:
            source = everywhere if phase is None else \
                self.everywhere.get(phase, {})
            return source.get(name, [0, 0, 0, 0])

        def per(ns: float, count: float, scale: float) -> float:
            return ns / count / scale if count else 0.0

        def self_per_call(*names: str, scale: float = 1e3) -> float:
            if all(tracer.missing(name) for name in names):
                return UNRESOLVED
            return per(sum(span(n)[1] for n in names),
                       sum(span(n)[0] for n in names), scale)

        def total_per_call(name: str, scale: float = 1e6,
                           units: bool = False) -> float:
            if tracer.missing(name):
                return UNRESOLVED
            row = span(name)
            return per(row[2], row[3] if units else row[0], scale)

        def counter(name: str, *phases: str) -> float:
            if name in self.missing_counters:
                return UNRESOLVED
            return float(sum(
                value for (phase, counted), value in self.counters.items()
                if counted == name and (not phases or phase in phases)))

        def ratio(top: float, bottom: float) -> float:
            if top == UNRESOLVED or bottom == UNRESOLVED:
                return UNRESOLVED
            return top / bottom if bottom else 0.0

        traced = [row for row in samples.queries
                  if row[0] >= self.traced_from]
        untraced = [row for row in samples.queries
                    if row[0] < self.traced_from]
        plain_walls = [row[3] for row in untraced]
        full_history = [row[3] for row in untraced
                        if inputs.shape.full_history
                        and row[0] % CYCLE == CYCLE - 1
                        and row[1] in ("fsd", "matrix")]
        query_ops = max(1, self.ops.get("query", 0))
        packets = span("EdgeVSwitch.receive")[0]
        records_out = span("TrajectoryConstructor.construct")[0]
        upserts = span("Tib.add_record")[0]
        evictions = counter("tib.evictions")
        cold_scans = span("ColdArchive.scan")
        hot_scans = sum(counter(f"tib.{name}") for name in _ROUTE_COUNTERS)
        cluster = self.deployment.cluster
        tier = cluster.tier_report()
        caches = [_chain(cluster.agent(host), "constructor", "cache")
                  for host in inputs.hosts]
        hits = sum(getattr(cache, "hits", 0) for cache in caches)
        misses = sum(getattr(cache, "misses", 0) for cache in caches)
        pool_stats = _chain(cluster, "agent_servers", "stats")

        def breakdown_ms(key: str) -> float:
            values = self.breakdowns.get(key)
            return statistics.fmean(values) * 1e3 if values else 0.0

        def class_p50(name: str) -> float:
            walls = [row[3] for row in untraced if row[1] == name]
            return percentile(walls, 50) * 1e3 if walls else 0.0

        def mechanism_p50(name: str) -> float:
            walls = [row[3] for row in untraced if row[2] == name]
            return percentile(walls, 50) * 1e3 if walls else 0.0

        def cycle_walls(traced_part: bool) -> List[float]:
            return [sum(wall for _, wall in rows)
                    for rows in by_cycle(samples.iterations, CYCLE)
                    if (rows[0][0] >= self.traced_from) == traced_part]

        off, on = cycle_walls(False), cycle_walls(True)

        # fanout-socket's remainder, named: what a query's wall holds
        # beyond the replayed worker CPU (spread over the groups, which run
        # in parallel) and the controller's own codec work.
        replayed = self.everywhere.get("replay", {})
        worker_ns = sum(replayed.get(name, [0, 0, 0, 0])[2] for name in (
            "wire.decode_query_request", "QueryEngine.execute",
            "wire.encode_result"))
        worker_ms_per_query = per(worker_ns, self.ops.get("replay", 0), 1e6)
        codec_ns = sum(values[1] for name, values in
                       self.everywhere.get("query", {}).items()
                       if name.startswith("wire."))
        traced_wall_ms = (statistics.fmean(row[3] for row in traced) * 1e3
                          if traced else 0.0)
        socket = inputs.shape.mode == MODE_SOCKET
        wait_ms = (traced_wall_ms - worker_ms_per_query / GROUP_COUNT
                   - per(codec_ns, query_ops, 1e6)) if socket else 0.0

        alarm_delays = [delay for iteration, delay in samples.alarm_delays
                        if iteration < self.traced_from]
        grown = (cluster.total_tib_records()
                 - len(inputs.hosts) * inputs.shape.records_per_host)
        values: Dict[str, float] = {
            "vswitch.receive_self_us": self_per_call("EdgeVSwitch.receive"),
            "vswitch.packets": float(packets),
            "trajectory.update_self_us":
                self_per_call("TrajectoryMemory.update"),
            "trajectory.evict_self_us": (
                UNRESOLVED if tracer.missing("TrajectoryMemory.evict_idle")
                else per(span("TrajectoryMemory.evict_idle")[1],
                         span("TrajectoryMemory.evict_idle")[3], 1e3)),
            "trajectory.construct_self_us":
                self_per_call("TrajectoryConstructor.construct"),
            "trajectory.cache_hit_ratio": (
                UNRESOLVED if None in caches
                else ratio(hits, hits + misses)),
            "trajectory.records_out": float(records_out),
            "agent.glue_self_us": per(
                sum(span(name, "packets")[1] for name in (
                    "PathDumpAgent.on_packet_delivered",
                    "PathDumpAgent.flush")), packets, 1e3),
            "tib.upsert_self_us": self_per_call("Tib.add_record",
                                                "Tib.add_records"),
            # No write creates a key after set-up, so every upsert merges
            # unless the TIBs grew.
            "tib.merge_fraction": ratio(upserts - grown, upserts),
            "tib.evictions": evictions,
            "tib.promotions": counter("tib.promotions"),
            "tib.scan_self_ms": (
                UNRESOLVED if tracer.missing("Tib.spec_records")
                else per(sum(span(n)[1] for n in (
                    "Tib.scan", "Tib.spec_records", "Tib.records")),
                    span("Tib.spec_records")[0], 1e6)),
            "tib.scan_calls": float(span("Tib.spec_records")[0]),
            "tib.index_routed_fraction": ratio(
                hot_scans - counter("tib.hot_full_scans"), hot_scans),
            "tib.hot_full_scans": counter("tib.hot_full_scans"),
            "tib.hot_bytes_per_record": ratio(
                tier.get("hot_bytes", 0), tier.get("hot_records", 0)),
            "archive.write_self_us": per(
                sum(span(name)[1] for name in (
                    "ColdArchive.stage", "ColdArchive.append",
                    "ColdArchive.take", "ColdArchive.compact"))
                + sum(span("ColdArchive.flush", phase)[1]
                      for phase in ("packets", "records")),
                evictions, 1e3),
            "archive.flushes": counter("archive.flushes"),
            "archive.compactions": counter("archive.compactions"),
            "archive.segments": float(tier.get("segments", 0)),
            "archive.scan_self_ms": self_per_call("ColdArchive.scan",
                                                  scale=1e6),
            "archive.segments_skipped_fraction": ratio(
                counter("archive.segments_skipped"),
                counter("archive.segments_skipped")
                + counter("archive.segment_decodes")),
            "archive.entries_decoded_per_result": ratio(
                counter("archive.entries_decoded"), cold_scans[3]),
            "archive.decode_cache_hit_ratio": ratio(
                counter("archive.decode_cache_hits"),
                counter("archive.decode_cache_hits")
                + counter("archive.entries_decoded")),
            "archive.cold_bytes_per_record": ratio(
                tier.get("cold_bytes", 0), tier.get("cold_records", 0)),
            "docstore.full_scans": counter("docstore.full_scans"),
            "docstore.index_rebuilds": counter("docstore.index_rebuilds"),
            "docstore.compactions": counter("docstore.compactions"),
            "plan.validate_self_us": self_per_call("plan.validate"),
            "plan.compile_self_us": self_per_call("plan.compile"),
            "plan.execute_self_ms": self_per_call("plan.execute_plan",
                                                  scale=1e6),
            "plan.merge_self_ms": self_per_call("plan.merge_payloads",
                                                scale=1e6),
            "plan.records_scanned_per_result": (
                UNRESOLVED if tracer.missing("plan.execute_plan")
                else ratio(span("plan.execute_plan")[3],
                           span("plan.execute_plan")[0])),
            "query.execute_self_ms": self_per_call("QueryEngine.execute",
                                                   scale=1e6),
            "query.merge_self_ms": self_per_call("QueryEngine.merge",
                                                 scale=1e6),
            "query.result_sizing_self_ms": total_per_call(
                "query.measured_result_wire_bytes"),
            "wire.encode_request_us": total_per_call(
                "wire.encode_query_request", 1e3),
            "wire.decode_request_us": total_per_call(
                "wire.decode_query_request", 1e3),
            "wire.encode_result_us": total_per_call("wire.encode_result",
                                                    1e3),
            "wire.decode_result_us": total_per_call("wire.decode_result",
                                                    1e3),
            "wire.group_batch_us": total_per_call("wire.group_batch", 1e3),
            "wire.encode_alarm_batch_us": total_per_call(
                "wire.encode_alarm_batch", 1e3),
            "wire.decode_alarm_batch_us": total_per_call(
                "wire.decode_alarm_batch", 1e3),
            "wire.encode_record_batch_us_per_record": total_per_call(
                "wire.encode_record_batch", 1e3, units=True),
            "wire.decode_record_batch_us_per_record": total_per_call(
                "wire.decode_record_batch", 1e3, units=True),
            "wire.request_bytes_per_host": ratio(
                span("wire.encode_query_request")[3],
                span("wire.encode_query_request")[0]),
            "wire.result_bytes_per_host": ratio(
                span("wire.encode_result")[3], span("wire.encode_result")[0]),
            "executor.run_self_ms": self_per_call(
                "ScatterGatherExecutor.run", scale=1e6),
            "executor.merge_ms_total": breakdown_ms(
                "multilevel:merge_total"),
            "executor.root_merge_ms": statistics.fmean((
                breakdown_ms("direct:controller_aggregation"),
                breakdown_ms("multilevel:controller_aggregation"))),
            "executor.max_exec_ms": breakdown_ms("direct:host_execution"),
            "executor.warnings": float(self.exec_warnings),
            "cluster.execute_self_ms": self_per_call("QueryCluster.execute",
                                                     scale=1e6),
            "cluster.run_monitors_self_ms": self_per_call(
                "QueryCluster.run_monitors", scale=1e6),
            "cluster.reset_stats_ms": total_per_call(
                "QueryCluster.reset_stats"),
            "cluster.direct_p50_ms": mechanism_p50("direct"),
            "cluster.multilevel_p50_ms": mechanism_p50("multilevel"),
            "cluster.full_history_p50_ms": (
                percentile(full_history, 50) * 1e3 if full_history else 0.0),
            "cluster.query_tail_ms": (gated_tail(plain_walls)[1] * 1e3
                                      if plain_walls else 0.0),
            "cluster.query_max_ms": (max(plain_walls) * 1e3
                                     if plain_walls else 0.0),
            "cluster.alarm_delivery_p90_ms": (
                percentile(alarm_delays, 90) * 1e3 if alarm_delays else 0.0),
            "controller.self_us": self_per_call(
                "PathDumpController.execute", "PathDumpController.tick"),
            "groupserver.startup_s": float(
                getattr(self.deployment, "startup_s", 0.0)),
            "groupserver.group_query_ms": total_per_call(
                "GroupAgentPool.group_query") if socket else 0.0,
            "groupserver.host_query_ms": total_per_call(
                "GroupAgentPool.query") if socket else 0.0,
            "groupserver.wait_ms_per_query": wait_ms,
            "groupserver.frames_per_envelope": ratio(
                counter("groupserver.frames_sent"),
                counter("groupserver.envelopes_sent")),
            "groupserver.envelopes_per_query": ratio(
                counter("groupserver.envelopes_sent", "query"), query_ops),
            "groupserver.bytes_per_query": ratio(
                counter("groupserver.bytes_sent", "query")
                + counter("groupserver.bytes_received", "query"),
                query_ops),
            "groupserver.tick_rtt_ms": total_per_call(
                "GroupAgentPool.group_monitor_tick") if socket else 0.0,
            "groupserver.mirror_rtt_us_per_record": total_per_call(
                "GroupAgentPool.add_records", 1e3, units=True)
            if socket else 0.0,
            "groupserver.restarts": float(
                getattr(pool_stats, "restarts", 0)),
            "groupserver.decode_errors": float(
                getattr(pool_stats, "decode_errors", 0)),
            "monitor.run_check_us_per_host": total_per_call(
                "ActiveMonitor.run_check", 1e3),
            "monitor.flows_per_host": float(MONITORED_FLOWS),
            "monitor.alarms_per_sweep": ratio(self.ops.get("alarm", 0),
                                              self.calls.get("alarm", 0)),
            "alarms.dispatch_us_per_alarm": self_per_call(
                "AlarmBus.raise_alarm"),
            "alarms.delivered": float(span("AlarmBus.raise_alarm")[0]),
            "rpc.messages_per_query": ratio(
                counter("rpc.messages", "query"), query_ops),
            # The ledger check: the layers' shares of the blocking path
            # must add up to its wall.
            "trace.coverage": sum(self.layer_shares().values()),
            "trace.overhead_ratio": (
                statistics.median(on) / statistics.median(off)
                if on and off else 0.0),
            "trace.spans": float(tracer.span_count),
            "trace.unresolved": float(len(tracer.unresolved)
                                      + len(self.missing_counters)),
            "trace.oracle_s": samples.oracle_s,
            "trace.inputgen_s": inputs.generate_s,
            "trace.oracle_checks": float(samples.oracle_checks),
            "trace.iterations": float(iterations),
            "trace.failed_fraction": samples.failed / max(
                1, samples.attempted),
            "trace.speed_factor": statistics.median(samples.speed),
        }
        for name in QUERY_CLASSES:
            values[f"cluster.q_{name}_p50_ms"] = class_p50(name)
        missing = [m.name for m in PER_LAYER if m.name not in values]
        if missing:
            raise KeyError(f"per-layer metrics without a value: {missing}")
        return values
