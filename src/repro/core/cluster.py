"""A cluster of PathDump agents plus the distributed query executor.

The TIB is "maintained in a distributed fashion (across all servers in the
datacenter)"; the controller collects results either with a *direct query*
(ask every host, aggregate everything at the controller) or a *multi-level
query* along an aggregation tree where intermediate hosts merge their
children's partial results (Section 3.2).  Figures 11 and 12 compare the two
mechanisms on response time and generated network traffic.

:class:`QueryCluster` owns the per-host agents, wires them to the fabric (or
to the flow-level simulator), and runs every query - either mechanism, any
mode - as one fold of a plan
(:meth:`~repro.core.query.QueryEngine.fold`): a direct query's plan is one
level (controller -> every host), a multi-level query's maps the
aggregation tree onto it one to one, each edge priced as the query and the
child's subtree description *batched* into one request.  Per-host
execution and per-node merges are *measured*, every node merges all of its
arrivals in one call, and the :class:`~repro.core.rpc.RpcChannel` model
prices the plan's legs with those times
(:func:`~repro.core.rpc.model_response_time`), reproducing the scaling the
paper reports.  Dead, late or lossy hosts surface as structured warnings
with ``partial=True`` instead of failing the whole query.

The cluster defaults to *serial* mode - the fold asks each local agent as
it reaches the host, on the calling thread - so the figure benchmarks
reproduce run to run.  A worker mode moves every host's TIB into an
agent-server worker process (:mod:`repro.core.groupserver`): ingest
streams encoded record batches to it, and a query is folded where its
data is - each worker group folds the parts of the plan that lie in its
shard and sends one partial per part (:mod:`repro.core.shards`), the
controller folds the rest.  ``mode="socket"`` shards the hosts into worker
groups; ``mode="process"`` is the same plane with one host per group.
Payloads and traffic are byte-identical in every mode.

The worker modes also carry the paper's *event plane* (Sections 3.2 and 4):
transfer observations stream to the workers alongside record batches (the
monitor's ``observation_sink`` mirror), :meth:`QueryCluster.run_monitors`
scatters one monitor-tick entry per worker group, each answered by one
alarm batch for the group's hosts, and alarms raised by worker-side query
handlers ride the query's replies - all decoded into the controller's
:class:`AlarmBus`, so event-driven debugging applications run unchanged in
every mode and see identical alarm streams.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import wire
from repro.core.agent import PathDumpAgent
from repro.core.aggregation import PAPER_TREE_FANOUT, AggregationTree, TreeNode
from repro.core.alarms import Alarm, AlarmBus, POOR_PERF
from repro.core.executor import (DeadlineExceeded, ExecWarning, GatherResult,
                                 PlanNode, ScatterGatherExecutor, Transport,
                                 W_CIRCUIT_OPEN, W_MIRROR_DETACHED,
                                 W_WORKER_RESTARTED, micros)
from repro.core.groupserver import (DEFAULT_GROUP_COUNT, AgentServerError,
                                    Exchange, GroupAgentPool, GroupPoolStats)
from repro.core.supervisor import (ChaosPolicy, EVENT_CIRCUIT_OPEN,
                                   EVENT_RESTARTED, GroupSeed, Supervisor,
                                   WorkerSeed)
# ``measured_result_wire_bytes`` is bound here for pathbench's tracer.
from repro.core.query import (Query, QueryEngine, QueryResult,  # noqa: F401
                              measured_result_wire_bytes)
from repro.core.rpc import RpcChannel, charge_legs, model_response_time
from repro.core.shards import ShardCut, cut_plan, fold_shards
from repro.core.trajectory import TrajectoryCache
from repro.core.worker import SERVED_QUERIES
from repro.network.simulator import Fabric
from repro.storage.archive import RetentionPolicy
from repro.storage.records import PathFlowRecord
from repro.tracing.reconstruct import PathReconstructor
from repro.topology.graph import Topology
from repro.topology.linkid import LinkIdAssignment, assign_link_ids
from repro.transport.flows import FlowOutcome
from repro.transport.tcp import TcpTransferResult

#: The query mechanisms.
MECHANISM_DIRECT = "direct"
MECHANISM_MULTILEVEL = "multilevel"

#: Cluster execution mode: every host's TIB in process, each scatter a
#: deterministic fold on the calling thread (the default).
MODE_SERIAL = "serial"

#: Cluster execution mode: one agent-server worker process per host.  An
#: alias for the :data:`MODE_SOCKET` plane with one host per group,
#: resolved in :meth:`QueryCluster._worker_shape`.
MODE_PROCESS = "process"

#: Cluster execution mode: hosts are sharded into worker groups, each
#: group's TIBs live in one worker process behind a single multiplexed
#: ``AF_UNIX`` stream pair, and monitor sweeps and query scatters pack one
#: ``MSG_GROUP_BATCH`` envelope per group instead of one frame per host.
#: See :mod:`repro.core.groupserver`.
MODE_SOCKET = "socket"

#: The only ``socket_transport``: every worker connection is one
#: connected ``AF_UNIX`` stream pair, made by the pool at spawn.
TRANSPORT_UNIX = "unix"

#: Valid cluster execution modes.
CLUSTER_MODES = (MODE_SERIAL, MODE_PROCESS, MODE_SOCKET)

#: Modes whose per-host state lives in worker processes.
_WORKER_MODES = (MODE_PROCESS, MODE_SOCKET)


@dataclass
class DistributedQueryResult:
    """Outcome of a distributed query execution.

    Attributes:
        query: the query.
        mechanism: ``"direct"`` or ``"multilevel"``.
        payload: the fully aggregated result.
        response_time_s: modelled end-to-end response time
            (:func:`~repro.core.rpc.model_response_time` of the run).
        traffic_bytes: total bytes moved over the management network:
            one request and one response per host (direct) or per tree
            edge (multi-level), with measured frame lengths - the same
            in every mode (worker envelopes are counted in the pool's
            stats only).
        host_count: number of hosts the query was scattered to.
        breakdown: named components of the response time (for reports).
        partial: whether one or more hosts' partial results are missing.
        hosts_failed: the hosts whose results are missing (always host
            names: a failed worker group expands to its member hosts).
        warnings: structured warnings describing failures/retries;
            worker-plane warnings (a failed query-scatter leaf, restarts,
            open circuits) name the worker's group key (``group-N``) in
            their ``host`` field.
        wall_clock_s: *measured* end-to-end duration of the scatter-gather
            (the real number, as opposed to the modelled
            ``response_time_s``).
        mode: cluster mode the query ran under - the mode string the
            caller asked for (serial/process/socket).
        duplicate_traffic_bytes: bytes moved by non-winning attempts
            (retries whose work failed, deliveries voided by a timeout) -
            overhead, deliberately kept out of ``traffic_bytes``.
        scan_stats: cluster-wide pushdown counters of a plan query (per-host
            hot-index routing + cold pruning work, summed key-wise across
            every partial); empty for legacy named queries.
        stages: a traced query's stages (``execute(..., trace=True)``),
            whole microseconds, by reporter: in process each host's
            ``t.*`` stages; in the worker modes one record per group, its
            exchange (``send``, ``wait``, ``decode``) and its worker's
            ``t.*``; the controller's ``fold`` under ``None``.  The stages
            without a ``t.`` prefix, plus in serial mode the hosts', run
            one after another on the calling thread: they add up to
            ``wall_clock_s``.  Empty when untraced.
    """

    query: Query
    mechanism: str
    payload: object
    response_time_s: float
    traffic_bytes: int
    host_count: int
    breakdown: Dict[str, float] = field(default_factory=dict)
    partial: bool = False
    hosts_failed: List[str] = field(default_factory=list)
    warnings: Tuple[ExecWarning, ...] = ()
    wall_clock_s: float = 0.0
    mode: str = MODE_SERIAL
    duplicate_traffic_bytes: int = 0
    scan_stats: Dict[str, int] = field(default_factory=dict)
    stages: Dict[Optional[str], Dict[str, int]] = field(default_factory=dict)


class MonitorSweep(list):
    """Alarms raised by one cluster-wide monitor sweep.

    A plain ``list`` of :class:`~repro.core.alarms.Alarm` (so existing
    callers iterate it unchanged), annotated with the scatter's outcome in
    the worker modes - a worker that dies mid-tick surfaces here exactly
    like a dead agent does on a query:

    Attributes:
        mode: cluster mode the sweep ran under (the string the caller
            asked for).
        partial: whether one or more hosts' ticks are missing.
        hosts_failed: the hosts whose ticks failed (a dead worker group
            expands to its member hosts).
        warnings: structured :class:`~repro.core.executor.ExecWarning`\\ s
            (worker failures name the group key in ``host``).
        traffic_bytes: measured wire bytes moved by the tick scatter (one
            tick envelope out and one alarm-batch envelope back per worker
            group, each holding one entry for the whole shard); zero for
            in-process sweeps, which need no wire.
        wall_clock_s: measured duration of the scatter (worker modes), or
            of a traced in-process sweep.
        stages: a traced sweep's stages (``run_monitors(..., trace=True)``),
            whole microseconds: per worker group the exchange's ``send``,
            ``wait``, ``decode`` and ``deliver`` and the worker's
            ``t.check`` / ``t.encode``; in process each host's
            ``t.check`` (its alarms raised as it checks).  The stages
            that run on the calling thread - those without a ``t.``
            prefix, or in process every one - add up to ``wall_clock_s``.
    """

    def __init__(self, alarms: Iterable[Alarm] = (), *,
                 mode: str = MODE_SERIAL, partial: bool = False,
                 hosts_failed: Iterable[str] = (),
                 warnings: Iterable[ExecWarning] = (),
                 traffic_bytes: int = 0,
                 wall_clock_s: float = 0.0,
                 stages: Optional[Dict[str, Dict[str, int]]] = None) -> None:
        super().__init__(alarms)
        self.mode = mode
        self.partial = partial
        self.hosts_failed = list(hosts_failed)
        self.warnings = tuple(warnings)
        self.traffic_bytes = traffic_bytes
        self.wall_clock_s = wall_clock_s
        self.stages = stages or {}


class _AlarmCollector:
    """Hands worker-raised alarms to the controller's bus in canonical
    host order, as early as that order allows.

    Alarms *stream*: the calling thread consumes the groups' replies in
    group order and reports each host's batch the moment it is decoded
    (:meth:`land`, empty batches included); a cursor over ``order`` then
    delivers every contiguous landed host, so a host's alarms reach the
    bus as soon as every earlier host's have.  For a sweep, shards are
    contiguous and consumed in order, so the cursor only ever moves
    forward and an empty batch only advances it.  A query's piggybacked
    alarms (PC_FAIL) land the same way over the query's canonical host
    order.  The aggregation tree names its hosts in pre-order, so a
    multi-level plan over targets in shard order is group-contiguous too
    and its alarms stream like a sweep's; over targets out of shard
    order the cursor stops at the first host of a group not consumed yet
    and :meth:`dispatch` delivers the rest after the gather.

    The agent -> controller alert channel is asynchronous while the wire
    protocol is request/reply, so alarms ride reply frames the scatter
    may give up on (a leaf past its deadline; its reply is consumed late,
    on a thread of its own).  The worker has already latched its flows
    by then - a dropped reply would lose its alarms forever - so
    :meth:`park` captures them whenever the reply lands, and anything
    arriving after the final :meth:`dispatch` is delivered directly
    (late, but never lost).  Only the calling thread delivers before
    that; an ``Exception`` a subscriber raises there is held and
    re-raised by :meth:`dispatch`, as it would be without streaming
    (``KeyboardInterrupt`` and ``SystemExit`` propagate at once).

    ``latch``: monitor sweeps latch the local mirror of each POOR_PERF
    alarm's flow (``run_check`` latched it worker-side); query piggybacks
    do not, matching the in-process behaviour where ``Alarm(...)`` from a
    handler never touches the monitor.
    """

    def __init__(self, cluster: "QueryCluster", latch: bool,
                 order: Sequence[str] = ()) -> None:
        self._cluster = cluster
        self._latch = latch
        self._order = order
        self._lock = threading.Lock()
        self._parked: Dict[str, Sequence[Alarm]] = {}  # guarded-by: _lock
        self._cursor = 0  # guarded-by: _lock
        self._delivered: List[Alarm] = []
        self._error: Optional[Exception] = None
        self._dispatched = False  # guarded-by: _lock

    def park(self, per_host: Sequence[Tuple[str, Sequence[Alarm]]]
             ) -> None:
        """Capture a late reply's alarms, ``(host, alarms)`` in order, at
        most once per host: a retried leaf's reply carries nothing the
        first one did not already surrender (the worker latched it).
        After the final dispatch they are delivered directly."""
        late: List[Alarm] = []
        with self._lock:
            for host, alarms in per_host:
                if host not in self._parked:
                    self._parked[host] = alarms
                    late += alarms
            deliver_now = self._dispatched
        if deliver_now and late:
            self._deliver(late)

    def land(self, per_host: Sequence[Tuple[str, Sequence[Alarm]]]) -> None:
        """Capture a consumed reply's alarms, ``(host, alarms)`` in order,
        then deliver the landed prefix of ``order``."""
        ready: List[Alarm] = []
        with self._lock:
            parked = self._parked
            for host, alarms in per_host:
                parked.setdefault(host, alarms)
            order, cursor = self._order, self._cursor
            while cursor < len(order) and order[cursor] in parked:
                ready += parked[order[cursor]]
                cursor += 1
            self._cursor = cursor
        if ready and self._error is None:
            try:
                self._deliver(ready)
            except Exception as error:
                self._error = error
                return
            self._delivered += ready

    def dispatch(self) -> List[Alarm]:
        """Deliver everything captured for the hosts of ``order`` the
        cursor has not reached, in order; returns every alarm this
        collector delivered, in order."""
        with self._lock:
            self._dispatched = True
            parked = self._parked
            alarms = [alarm for host in self._order[self._cursor:]
                      for alarm in parked.get(host, ())]
        if self._error is not None:
            raise self._error
        self._deliver(alarms)
        return self._delivered + alarms

    def _deliver(self, alarms: Sequence[Alarm]) -> None:
        """Raise ``alarms`` on the bus, one :meth:`AlarmBus.raise_alarm`
        each; bus and agents are bound once, and a host's local monitor is
        looked up once per run of that host's alarms."""
        raise_alarm = self._cluster.alarm_bus.raise_alarm
        if not self._latch:
            for alarm in alarms:
                raise_alarm(alarm)
            return
        agents = self._cluster.agents
        host: Optional[str] = None
        monitor = None
        for alarm in alarms:
            if alarm.reason == POOR_PERF:
                if alarm.host != host:
                    host = alarm.host
                    agent = agents.get(host)
                    monitor = agent.monitor if agent is not None else None
                if monitor is not None:
                    # The worker latched this flow when it alerted; latch
                    # the local mirror too so a later in-process check
                    # cannot re-raise an alarm the controller already has.
                    monitor.mark_alerted(alarm.flow_id)
            raise_alarm(alarm)


class QueryCluster:
    """All PathDump agents of a deployment plus the distributed query logic.

    In the worker modes the local ``agents`` are the workers' replica;
    debug apps read what the workers serve, through :meth:`execute`.  The
    replica's only readers: ingest (``ingest_path_record``,
    ``monitor.observe_flow``, the silent-drop ``poor_threshold`` set before
    any worker starts); the blackhole alarm raise; the two
    ``include_live`` reads (blackhole, silent drops: only a local agent
    holds trajectory memory, and a ``flush`` would evict); installed
    queries (``PathDumpController.tick``, packet arrival); mode flips,
    restart re-seeds (:meth:`_worker_seed`) and pathbench's oracle.

    Args:
        topo: the topology.
        assignment: link ID assignment; computed from ``topo`` when omitted.
        hosts: hosts to instantiate agents for (defaults to every host).
        fabric: when given, agents are registered as delivery handlers so
            packet-level traffic feeds the TIBs automatically.
        rpc: management-channel model (a default one is created if
            omitted); it prices and counts every gather the cluster runs.
        shared_cache: share one trajectory cache across agents (saves memory
            in large clusters; per-agent caches when ``False``).
        transport: optional :class:`~repro.core.executor.LoopbackTransport`
            injecting real delays and drops into every scatter; without
            one no transport is called.
        mode: execution mode - ``"serial"`` (a deterministic fold on the
            calling thread, the default, so figures reproduce),
            ``"socket"`` (hosts sharded into agent-server worker groups,
            one multiplexed stream per group, each tick or query one
            ``MSG_GROUP_BATCH`` envelope per group; CPU-bound work runs
            in parallel) or ``"process"`` (the same plane with one host
            per group; ``group_count`` is ignored).  All modes produce
            byte-identical query payloads; anything else raises
            ``ValueError``.
        group_count: socket mode only - number of worker groups the hosts
            are sharded into (deterministic contiguous shards; defaults to
            :data:`~repro.core.groupserver.DEFAULT_GROUP_COUNT`, clamped
            to the host count).
        socket_transport: only ``"unix"`` (:data:`TRANSPORT_UNIX`, the
            default) is accepted - every worker connection is one
            ``AF_UNIX`` stream pair; anything else raises ``ValueError``.
        timeout_s: per-host query deadline, counted from the host's
            first attempt (see the executor docs); in the worker modes
            each group leaf waits at most this long from the scatter's
            start.  A query the workers do not serve (a custom handler on
            the in-process agents) runs locally, as in ``"serial"``: its
            deadline is checked after each handler returns, so a handler
            that hangs blocks the caller.
        retries: bounded per-host retry budget for transport errors.
        retention: optional hot-tier bounds applied to every agent's TIB
            (two-tier mode: bounded hot memory, cold archive); in the
            worker modes the same cap is shipped to the workers over
            the wire so they age records host-side identically.
        supervisor: optional :class:`~repro.core.supervisor.Supervisor`
            attached to the worker pool when a worker mode starts; the
            cluster wires its ``seed_source`` to the local dual-write
            mirrors (so restarted workers answer byte-identically) and
            re-attaches the ingest mirrors after every restart.
            Supervision is keyed by group key (``group-N``) in every
            worker mode.
        chaos: optional :class:`~repro.core.supervisor.ChaosPolicy`
            injected into the worker pool (gray-failure testing).
        reply_timeout_s: default worker reply deadline for the pool
            (see :class:`~repro.core.groupserver.GroupAgentPool`).
    """

    def __init__(self, topo: Topology,
                 assignment: Optional[LinkIdAssignment] = None,
                 hosts: Optional[Sequence[str]] = None,
                 fabric: Optional[Fabric] = None,
                 rpc: Optional[RpcChannel] = None,
                 shared_cache: bool = True,
                 transport: Optional[Transport] = None,
                 mode: str = MODE_SERIAL,
                 timeout_s: Optional[float] = None,
                 retries: int = 0,
                 retention: Optional[RetentionPolicy] = None,
                 supervisor: Optional[Supervisor] = None,
                 chaos: Optional[ChaosPolicy] = None,
                 reply_timeout_s: Optional[float] = None,
                 group_count: Optional[int] = None,
                 socket_transport: str = TRANSPORT_UNIX) -> None:
        if mode not in CLUSTER_MODES:
            raise ValueError(f"unknown cluster mode {mode!r}")
        if socket_transport != TRANSPORT_UNIX:
            raise ValueError(f"unknown socket transport {socket_transport!r};"
                             f" only {TRANSPORT_UNIX!r} is supported")
        self.topo = topo
        self.assignment = assignment or assign_link_ids(topo)
        self.hosts = list(hosts) if hosts is not None else list(topo.hosts)
        self.alarm_bus = AlarmBus()
        self.rpc = rpc or RpcChannel()
        self.mode = mode
        self.supervisor = supervisor
        self.chaos = chaos
        self.reply_timeout_s = reply_timeout_s
        self.group_count = group_count
        self._pending_warnings: List[ExecWarning] = []  # guarded-by: _warning_lock
        self._warning_lock = threading.Lock()
        self._process_pool: Optional[GroupAgentPool] = None
        #: The group count the running pool was asked for (``_worker_shape``).
        self._pool_shape: Optional[int] = None
        self.transport: Optional[Transport] = transport
        self.executor = ScatterGatherExecutor(
            self.transport, timeout_s=timeout_s, retries=retries)
        self.engine = QueryEngine()
        #: The last multi-level tree, kept for equal targets and fan-out.
        self._tree: Optional[AggregationTree] = None
        #: Per mechanism, its last plan's shape (the targets, or the kept
        #: tree) and cut along the running pool's shards.
        self._cuts: Dict[str, Tuple[object, ShardCut]] = {}
        self._reconstructor = PathReconstructor(topo, self.assignment)
        self.retention = retention or RetentionPolicy()
        cache = TrajectoryCache() if shared_cache else None
        self.agents: Dict[str, PathDumpAgent] = {}
        for host in self.hosts:
            agent = PathDumpAgent(
                host, topo, self.assignment,
                alarm_sink=self.alarm_bus.raise_alarm,
                reconstructor=self._reconstructor,
                cache=cache if shared_cache else None,
                retention=self.retention if self.retention.bounded else None)
            self.agents[host] = agent
        if fabric is not None:
            self.attach_fabric(fabric)
        if mode in _WORKER_MODES:
            self.configure_executor(mode=mode)  # starts the worker pool

    # ---------------------------------------------------------------- wiring
    def attach_fabric(self, fabric: Fabric) -> None:
        """Register every agent as its host's delivery handler."""
        for host, agent in self.agents.items():
            fabric.register_delivery_handler(host, agent.on_packet_delivered)

    def agent(self, host: str) -> PathDumpAgent:
        """The agent running on ``host``."""
        return self.agents[host]

    def configure_executor(self, mode: Optional[str] = None,
                           timeout_s: Optional[float] = None,
                           retries: Optional[int] = None,
                           transport: Optional[Transport] = None) -> None:
        """Rebuild the query executor with new settings (``None`` keeps the
        current value; ``transport`` replaces the delivery protocol).

        A worker mode (``"process"``/``"socket"``) starts the worker pool
        (if not already running).
        Switching to a worker mode that wants a different pool shape
        (:meth:`_worker_shape`) replaces the running pool (the fresh one
        re-syncs from the local mirrors); switching back to ``"serial"``
        keeps the workers alive and in sync (ingest mirrors to them), so
        modes can be flipped per experiment.  The executor's deadline and
        retries act per host in process and per group fetch in the worker
        modes (split-phase on the calling thread, :meth:`_scatter_groups`);
        a query the workers do not serve runs on the in-process agents,
        whose deadline is checked after each handler returns.
        """
        current = self.executor
        if mode is not None:
            if mode not in CLUSTER_MODES:
                raise ValueError(f"unknown cluster mode {mode!r}")
            self.mode = mode
            if mode in _WORKER_MODES:
                pool = self._process_pool
                if pool is not None and \
                        self._pool_shape != self._worker_shape():
                    # The running pool was asked for another shape; replace
                    # it (the restart re-syncs the fresh pool from the local
                    # mirrors, so answers stay byte-identical).
                    self._detach_mirrors()
                    pool.shutdown()
                    self._process_pool = None
                self.start_agent_servers()
        if transport is not None:
            self.transport = transport
        self.executor = ScatterGatherExecutor(
            self.transport,
            timeout_s=timeout_s if timeout_s is not None
            else current.timeout_s,
            retries=retries if retries is not None else current.retries)

    def _worker_shape(self) -> int:
        """The group count to ask the worker pool for under the current
        mode - the one place the worker-mode strings are resolved.

        ``"socket"`` is the configured ``group_count`` (``None``:
        :data:`~repro.core.groupserver.DEFAULT_GROUP_COUNT`), clamped to
        the host count as the pool's sharding clamps it; anything else -
        ``"process"``, or workers started by hand under serial mode - is
        one host per group.  Both run over the same connection, so
        two mode strings that resolve to one count share a pool.
        """
        if self.mode == MODE_SOCKET:
            return min(self.group_count or DEFAULT_GROUP_COUNT,
                       len(self.hosts))
        return len(self.hosts)

    # ----------------------------------------------------------- worker modes
    @property
    def agent_servers(self) -> Optional[GroupAgentPool]:
        """The agent-server worker pool (``None`` until a worker mode is
        enabled)."""
        return self._process_pool

    def start_agent_servers(self, reply_timeout_s: Optional[float] = None,
                            supervisor: Optional[Supervisor] = None,
                            chaos: Optional[ChaosPolicy] = None
                            ) -> GroupAgentPool:
        """Spawn the agent-server worker pool and bring it in sync.

        The pool's shape is :meth:`_worker_shape`.  Each worker receives,
        per host it serves, a snapshot of the host's current TIB as
        encoded record batches and of its monitor as an encoded state
        frame; afterwards every agent's TIB writes are mirrored to its
        worker through ``record_sink`` and every monitor observation
        through ``monitor.observation_sink``, so all ingest paths (fabric
        deliveries, flow outcomes, direct inserts/observations through the
        agent) keep both sides identical.  Records written straight into
        ``agent.tib`` - and monitor state mutated outside ``observe_flow``
        (e.g. changing ``poor_threshold``) - bypass the mirror; do that
        only before starting the workers (nothing re-ships monitor state
        to a running worker except a restart's re-seed and a local sweep
        run while the workers idle - :meth:`reset_stats` does not).
        Idempotent: an already-running pool is returned as is.

        The mirror is *deferred*: a write queues on its worker
        connection's outbox and leaves, coalesced, ahead of the next
        query, tick or probe on that connection (or once the outbox fills,
        or at ``reset_stats``).  The guarantee is read-your-writes: a
        query or tick issued after an ingest call returned observes it.

        ``supervisor``/``chaos``/``reply_timeout_s`` fall back to the
        values given at construction.  An attached supervisor makes the
        pool self-healing: its ``seed_source`` (wired here to the local
        mirrors unless already set) rebuilds a restarted worker's state,
        and the cluster re-attaches that worker's ingest mirrors and
        surfaces a ``W_WORKER_RESTARTED`` warning on the next result.
        """
        if self._process_pool is not None:
            return self._process_pool
        supervisor = supervisor if supervisor is not None else self.supervisor
        chaos = chaos if chaos is not None else self.chaos
        if reply_timeout_s is None:
            reply_timeout_s = self.reply_timeout_s
        if supervisor is not None:
            self.supervisor = supervisor
            if supervisor.seed_source is None:
                supervisor.seed_source = self._group_seed
            supervisor.subscribe(self._on_supervisor_event)
        shape = self._worker_shape()
        pool = GroupAgentPool(self.hosts, group_count=shape,
                              reply_timeout_s=reply_timeout_s,
                              supervisor=supervisor, chaos=chaos)
        pool.mirror_lost = functools.partial(self._mirror_lost, pool)
        try:
            synced = []
            for host in self.hosts:
                if host not in self.agents:
                    continue
                seed = self._worker_seed(host)
                pool.seed_host(host, seed)
                self._attach_mirrors(pool, host)
                synced.append((host, len(seed.records),
                               len(seed.monitor.flows)))
            # Barrier: a ping round-trip drains each worker's ingest queue
            # (FIFO ordering), so callers - and benchmarks - start from
            # workers that are actually in sync instead of racing their
            # background ingest.  Each group answers one coalesced ping
            # envelope (one round-trip per worker process instead of one
            # per host - at 1024 hosts that matters).
            states: Dict[str, Tuple[int, int]] = {}
            for key in pool.group_keys():
                states.update(pool.group_ping_state(key))
            for host, count, flows in synced:
                applied, monitor_flows = states.get(host, (0, 0))
                if applied < count:
                    raise AgentServerError(
                        f"agent server on {host} applied {applied} of "
                        f"{count} snapshot records")
                if monitor_flows < flows:
                    raise AgentServerError(
                        f"agent server on {host} holds {monitor_flows} of "
                        f"{flows} monitored flows")
        except BaseException:
            # Don't leak a half-started pool: detach any sinks installed so
            # far and stop every worker before re-raising.
            self._detach_mirrors()
            pool.shutdown()
            raise
        self._process_pool, self._pool_shape = pool, shape
        self._cuts = {}
        return pool

    def _attach_mirrors(self, pool: GroupAgentPool, host: str) -> None:
        """Install ``host``'s ingest mirrors: every TIB write and monitor
        observation is streamed on to the host's worker."""
        agent = self.agents[host]
        agent.record_sink = self._make_sink(pool, host, pool.add_records)
        agent.monitor.observation_sink = self._make_sink(
            pool, host, pool.add_observations)

    def _make_sink(self, pool: GroupAgentPool, host: str, add):
        """An ingest mirror for ``host`` (``add`` is the pool's
        ``add_records`` or ``add_observations``) that degrades instead of
        raising.

        A dead worker must not break the *local* ingest path (the query
        path already reports it as ``partial`` + ``W_HOST_FAILED``).
        Mirroring is deferred (the pool's outbox), so a failure shows up
        on the ingest call when the connection is already known dead
        (handled here), else at the flush inside a later query or tick,
        where the pool reports the hosts whose buffered writes were lost
        to :meth:`_mirror_lost`.  Either way there are two cases:

        * the pool's supervisor recovered the worker (``healthy`` again):
          the restart re-seeded it from local state, which - every ingest
          path writes locally before it mirrors - already includes this
          very batch, so nothing is lost and the mirror stays attached
          (re-sending would double-count the upsert);
        * no recovery (unsupervised, restart budget exhausted, restart
          failed): the host's mirrors detach (:meth:`_mirror_lost`) so the
          simulator keeps running against the local TIB.
        """
        def sink(batch) -> None:
            try:
                add(host, batch)
            except AgentServerError as error:
                if not pool.healthy(host):
                    self._mirror_lost(pool, host, str(error))
        return sink

    def _mirror_lost(self, pool: GroupAgentPool, host: str,
                     detail: str) -> None:
        """Detach ``host``'s ingest mirrors from the running ``pool`` -
        once: counted in ``GroupPoolStats.mirror_detaches``, and a
        ``W_MIRROR_DETACHED`` warning rides the next result, so callers
        can tell "degraded" from "healthy".  Also the pool's
        ``mirror_lost`` hook.  (A replaced pool's straggler is ignored.)"""
        agent = self.agents.get(host)
        with self._warning_lock:
            if agent is None or pool is not self._process_pool or (
                    agent.record_sink is None
                    and agent.monitor.observation_sink is None):
                return
            agent.record_sink = None
            agent.monitor.observation_sink = None
            self._pending_warnings.append(ExecWarning(
                code=W_MIRROR_DETACHED, host=host,
                detail=f"ingest mirror detached after delivery failure "
                       f"({detail}); worker state is stale"))
        pool.note_mirror_detach(host)

    def _worker_seed(self, host: str) -> WorkerSeed:
        """Build ``host``'s part of a restart seed from the local dual-write
        mirrors - the same snapshot (and the same order of parts) the
        startup sync ships, so a re-seeded worker answers later queries
        byte-identically to one that never died."""
        agent = self.agents.get(host)
        if agent is None:
            return WorkerSeed()
        retention = agent.tib.retention
        bounds = ((retention.max_records, retention.max_bytes)
                  if retention.bounded else None)
        if agent.tib.archive is not None and agent.tib.archive.dead_ratio > 0:
            # The fresh worker rebuilds its archive from the snapshot with
            # no tombstoned garbage; compact the local log too so both
            # sides' measured archive_bytes stay comparable.
            agent.tib.archive.compact()
        return WorkerSeed(retention=bounds, records=agent.tib.records(),
                          monitor=agent.monitor.snapshot())

    def _group_seed(self, key: str) -> GroupSeed:
        """The supervisor's ``seed_source``: a restart seed for worker
        group ``key``, one :class:`WorkerSeed` per member host, so a
        re-seeded group answers byte-identically to one that never died.
        (A failure during the startup sync, before the pool is adopted,
        restarts the group empty; the sync's own barrier then reports the
        short count.)"""
        pool = self._process_pool
        members = pool.group_hosts(key) if pool is not None else ()
        return GroupSeed(seeds={host: self._worker_seed(host)
                                for host in members})

    def _on_supervisor_event(self, pool: GroupAgentPool, key: str,
                             event) -> None:
        """Supervisor callback: re-attach the ingest mirrors of a restarted
        group's member hosts (they may have detached while it was dead,
        and their closures bind the pool) and surface restart /
        circuit-open events as warnings - named by group key - on the next
        query result or monitor sweep."""
        if event.kind == EVENT_RESTARTED:
            for member in pool.group_hosts(key):
                if member in self.agents:
                    self._attach_mirrors(pool, member)
            self._note_warning(
                W_WORKER_RESTARTED, key,
                f"worker restarted (attempt {event.attempt}) and re-seeded "
                f"{event.records} records / {event.monitor_flows} monitor "
                f"flows in {event.reseed_ms:.1f}ms after: {event.reason}")
        elif event.kind == EVENT_CIRCUIT_OPEN:
            self._note_warning(W_CIRCUIT_OPEN, key,
                               event.detail or "restart budget exhausted")

    def _note_warning(self, code: str, host: str, detail: str) -> None:
        with self._warning_lock:
            self._pending_warnings.append(
                ExecWarning(code=code, host=host, detail=detail))

    def _drain_warnings(self) -> Tuple[ExecWarning, ...]:
        """Take the pending infrastructure warnings (mirror detaches,
        restarts, circuit opens); they ride the next result returned."""
        with self._warning_lock:
            if not self._pending_warnings:
                return ()
            drained = tuple(self._pending_warnings)
            self._pending_warnings.clear()
        return drained

    def _detach_mirrors(self) -> None:
        for agent in self.agents.values():
            agent.record_sink = None
            agent.monitor.observation_sink = None

    def stop_agent_servers(self) -> None:
        """Shut the worker pool down and detach the ingest mirrors."""
        if self._process_pool is None:
            return
        self._detach_mirrors()
        self._process_pool.shutdown()
        self._process_pool = None
        if self.mode in _WORKER_MODES:
            self.mode = MODE_SERIAL

    def close(self) -> None:
        """Release external resources (the agent-server workers)."""
        self.stop_agent_servers()

    def __enter__(self) -> "QueryCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- ingest
    def ingest_flow_outcomes(self, outcomes: Iterable[FlowOutcome]) -> int:
        """Feed flow-level simulation results into the TIBs and monitors.

        Per-path deliveries become TIB records at the *destination* agent;
        retransmission statistics feed the *source* agent's monitor (that is
        where TCP symptoms are sensed).
        """
        count = 0
        for outcome in outcomes:
            dst_agent = self.agents.get(outcome.spec.dst)
            src_agent = self.agents.get(outcome.spec.src)
            finish = outcome.finish_time
            etime = finish if finish is not None else outcome.start_time
            if dst_agent is not None:
                for delivery in outcome.deliveries:
                    if delivery.packets_delivered <= 0:
                        continue
                    record = PathFlowRecord(
                        flow_id=outcome.flow_id, path=delivery.path,
                        stime=outcome.start_time, etime=etime,
                        bytes=delivery.bytes_delivered,
                        pkts=delivery.packets_delivered)
                    dst_agent.ingest_path_record(record)
                    count += 1
            if src_agent is not None:
                src_agent.monitor.observe_transfer(outcome)
        return count

    def ingest_tcp_results(self, results: Iterable[TcpTransferResult]) -> None:
        """Feed packet-level TCP results into the source-side monitors.

        (The destination TIBs are already updated by the fabric delivery
        handlers while the packets were being injected.)
        """
        for result in results:
            agent = self.agents.get(result.flow_id.src_ip)
            if agent is not None:
                agent.monitor.observe_transfer(result)

    def flush_all(self, now: Optional[float] = None) -> int:
        """Flush every agent's trajectory memory into its TIB."""
        return sum(agent.flush(now) for agent in self.agents.values())

    def configure_retention(self, max_records: Optional[int] = None,
                            max_bytes: Optional[int] = None) -> None:
        """(Re)configure the hot-tier bounds on every agent's TIB.

        In the worker modes the same cap travels to each host's worker
        as an encoded retention frame, so both sides of the ingest mirror
        age records identically.
        """
        self.retention = RetentionPolicy(max_records=max_records,
                                         max_bytes=max_bytes)
        for agent in self.agents.values():
            agent.configure_retention(max_records=max_records,
                                      max_bytes=max_bytes)
        if self._process_pool is not None:
            for host in self.hosts:
                try:
                    self._process_pool.set_retention(host, max_records,
                                                     max_bytes)
                except AgentServerError:
                    pass  # dead worker: the query path reports it already

    def tier_report(self, from_workers: bool = False) -> Dict[str, int]:
        """Aggregate two-tier stats across the cluster.

        ``from_workers=True`` (worker modes) reads each worker's tier
        stats off a liveness probe instead of the local mirrors - the
        measured worker-side counterpart for cap-verification.
        """
        totals: Dict[str, int] = {}
        if from_workers and self._process_pool is not None:
            for host in self.hosts:
                stats = self._process_pool.tier_stats(host)
                for key, value in stats.items():
                    totals[key] = totals.get(key, 0) + value
            return totals
        for agent in self.agents.values():
            for key, value in agent.tib.tier_stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def run_monitors(self, now: float, threshold: Optional[int] = None,
                     trace: bool = False) -> MonitorSweep:
        """Run one monitoring check on every host; returns raised alarms.

        In serial mode the in-process monitors run directly and
        raise into the alarm bus as they go.  In the worker modes this is
        a *scatter of monitor-tick frames*: every worker runs the check
        host-side, replies with an encoded alarm batch, and the decoded
        alarms are dispatched into the bus in canonical host order - each
        host's as soon as every earlier host's have gone, the same order
        the serial loop produces, so alarm streams are identical across
        modes.  A worker that dies mid-tick surfaces on the returned
        :class:`MonitorSweep` exactly like a dead agent does on a query
        (``partial`` / ``hosts_failed`` / a ``W_HOST_FAILED`` warning).
        The scatter asks each worker group once: one ``MSG_GROUP_BATCH``
        envelope holding one tick entry for the whole shard, answered by
        one alarm batch, and a dead group surfaces as *all* of its hosts
        failed.  ``trace`` records the sweep's stages on the returned
        :class:`MonitorSweep`.
        """
        if self.mode in _WORKER_MODES and self._process_pool is not None:
            return self._run_monitors_group(now, threshold, trace)
        alarms: List[Alarm] = []
        stages: Dict[str, Dict[str, int]] = {}
        started = time.perf_counter() if trace else 0.0
        for agent in self.agents.values():
            if not trace:
                alarms.extend(agent.run_monitor(now, threshold))
                continue
            checked = time.perf_counter()
            alarms.extend(agent.run_monitor(now, threshold))
            stages[agent.host] = {
                "t.check": micros(time.perf_counter() - checked)}
        wall = time.perf_counter() - started if trace else 0.0
        if alarms and self._process_pool is not None:
            # Workers alive but the sweep ran locally (mode flipped off
            # the workers): push the freshly latched state to them so a
            # later wire tick cannot re-raise alarms the bus already has.
            self._seed_worker_monitors()
        return MonitorSweep(alarms, mode=self.mode,
                            warnings=self._drain_warnings(),
                            wall_clock_s=wall, stages=stages)

    def _seed_worker_monitors(self) -> None:
        """Push every agent's current monitor state to its worker: one
        envelope per group, flushed as soon as the group is complete so
        its worker applies the states while the next group's are built."""
        pool = self._process_pool
        for key in pool.group_keys():
            try:
                for host in pool.group_hosts(key):
                    if host in self.agents:
                        pool.seed_monitor(
                            host, self.agents[host].monitor.snapshot())
                pool.flush(key)
            except AgentServerError:
                pass  # dead worker: the query path reports it already

    def _run_monitors_group(self, now: float, threshold: Optional[int],
                            trace: bool) -> MonitorSweep:
        """Scatter one tick entry per worker group, addressed to every host
        of it (:meth:`_scatter_groups`, its envelopes charged on
        :attr:`rpc`); the worker checks its hosts in shard order and
        answers with one alarm batch, which the pool splits by host.  Each
        host's alarms go to the bus once every earlier host's have gone,
        so the stream is byte-identical to the serial sweep; a failed
        group - dead, or answering with an ingest error latched anywhere
        in its shard, when it ran no check - expands to all of its member
        hosts in ``hosts_failed``."""
        pool = self._process_pool
        tick = [(wire.EVERY_HOST,
                 wire.encode_monitor_tick(now, threshold, trace))]
        sink = _AlarmCollector(self, latch=True, order=self.hosts)

        def consume(exchange: Exchange, deadline: Optional[float]):
            try:
                _per_host, reply_bytes, _sent = pool.group_monitor_tick(
                    exchange, deadline, on_hosts=sink.land)
            except DeadlineExceeded:
                # The worker latched its flows already: its late reply
                # must still reach the bus - the alert channel is
                # asynchronous, the sweep is not.
                self._consume_late(lambda: pool.group_monitor_tick(
                    exchange, on_hosts=sink.park))
                raise
            return {}, reply_bytes  # the alarms went to the bus already

        plan, gather = self._scatter_groups(
            {key: tick for key in pool.group_keys()}, consume, trace)
        charge_legs(plan, gather.reports, self.rpc)
        alarms = sink.dispatch()
        hosts_failed = [host for key in gather.hosts_failed
                        for host in pool.group_hosts(key)]
        return MonitorSweep(alarms, mode=self.mode, partial=gather.partial,
                            hosts_failed=hosts_failed,
                            warnings=(tuple(gather.warnings)
                                      + self._drain_warnings()),
                            traffic_bytes=gather.traffic_bytes,
                            wall_clock_s=gather.wall_s,
                            stages=self._stages(gather))

    def _scatter_groups(self, leaves: Dict[str, List[Tuple[str, bytes]]],
                        consume, trace: bool = False,
                        asked: Optional[Dict[str, List[str]]] = None
                        ) -> Tuple[PlanNode, GatherResult]:
        """The worker modes' scatter: split-phase, on the calling thread.

        ``leaves`` maps each plan leaf - a group key - to its envelope
        entries, in plan order (``asked``: the hosts a query's leaf asks,
        each of which needs an agent).  Every leaf's envelope is written
        first (:meth:`GroupAgentPool.send`; one that cannot be sent keeps
        the error for its first attempt); then the plan runs on
        :attr:`executor`, whose work for a leaf is ``consume(exchange,
        deadline)`` -> ``({name: value}, reply envelope bytes)``, so
        replies are consumed in plan order while later groups still
        answer.  Timeouts, retries (a retry re-sends) and supervision are
        the executor's: a leaf waits at most ``timeout_s`` from the
        scatter's start, then fails as ``W_HOST_TIMEOUT`` (``consume``
        re-raises :class:`~repro.core.executor.DeadlineExceeded` after
        handing the open exchange to :meth:`_consume_late`), and a failed
        leaf yields one ``W_HOST_FAILED`` naming its key.
        ``HostReport.exec_s`` is each exchange's send until its reply
        landed, not the calling thread's wait, so a reply that landed in
        time passes the executor's after-the-fact check too.

        Returns the plan - its legs the measured envelope lengths (the
        request at correlation id 1) - and its unpriced gather (a sweep
        charges it on :attr:`rpc`, a query's fetch does not), whose
        ``value`` merges every answered leaf's ``{name: value}`` and whose
        ``wall_s`` covers both phases.  ``trace`` traces every exchange,
        and each leaf's report gets its winning exchange's stages.
        """
        pool = self._process_pool
        started = time.perf_counter()
        timeout = self.executor.timeout_s
        deadline = None if timeout is None else started + timeout

        def send(key: str):
            """The leaf's exchange, or the error its attempt raises."""
            for host in (asked or {}).get(key, ()):
                if host not in self.agents:
                    return KeyError(f"no agent running on {host}")
            try:
                return pool.send(key, leaves[key], trace=trace)
            except AgentServerError as error:
                return error

        sent = {key: send(key) for key in leaves}
        answered: Dict[str, Exchange] = {}

        def work(key: str):
            exchange = sent.pop(key, None) or send(key)
            if isinstance(exchange, Exception):
                raise exchange
            value, reply_bytes = consume(exchange, deadline)
            answered[key] = exchange
            return value, reply_bytes, exchange.exec_s

        plan = PlanNode(host=None, children=[
            PlanNode(host=key,
                     request_parts=(wire.group_batch_len(1, entries),))
            for key, entries in leaves.items()])
        gather = self.executor.run(
            plan, work,
            lambda values: ({host: item for value in values
                             for host, item in value[0].items()}, 0, 0),
            response_bytes=lambda value: value[1],
            exec_seconds=lambda value: value[2])
        gather.wall_s = time.perf_counter() - started
        gather.value = {} if gather.value is None else gather.value[0]
        for key, exchange in answered.items():
            if exchange.stages is not None:
                gather.reports[key].stages = exchange.stages
        return plan, gather

    @staticmethod
    def _consume_late(consume) -> None:
        """Run ``consume`` - the consume step of an exchange its leaf gave
        up on - on a thread of its own, so the late reply still
        surrenders its alarms.  The only thread a worker-mode scatter
        ever starts, and only on this path: one per timed-out leaf.  With
        the pool's default ``reply_timeout_s=None`` nothing else bounds
        its wait, so N back-to-back scatters past one stalled but alive
        group hold at most N of them; each exits when its reply lands or
        when the connection dies (``_GroupConn.close`` wakes every
        pending waiter, so killing the worker ends them all)."""
        def run() -> None:
            try:
                consume()
            except AgentServerError:
                pass  # the worker died meanwhile; its leaf failed already

        threading.Thread(target=run, name="pathdump-late-reply",
                         daemon=True).start()

    # ------------------------------------------------------- distributed query
    def execute_direct(self, query: Query,
                       hosts: Optional[Sequence[str]] = None,
                       trace: bool = False) -> DistributedQueryResult:
        """Direct query: every host answers the controller directly (a
        one-level plan, run by :meth:`_gather`)."""
        targets = self._targets(hosts)
        # Once, all hosts (tracing is a flag bit: the length is the same).
        request = wire.encode_query_request(query, None, trace)
        plan = PlanNode(host=None, children=[
            PlanNode(host=host, request_parts=(len(request),))
            for host in targets])
        gather = self._gather(query, plan, request,
                              (MECHANISM_DIRECT, tuple(targets)), trace)
        # The modelled legs of the slowest answered host (a direct plan is
        # one level deep).
        leg = self.rpc.leg_s
        network = max((leg(report.request_bytes) + leg(report.response_bytes)
                       for report in gather.reports.values() if report.ok),
                      default=0.0)
        return self._result(
            query, MECHANISM_DIRECT, gather, len(targets),
            breakdown={"network": network,
                       "host_execution": gather.max_exec_s,
                       "controller_aggregation": gather.merge_s[None]})

    def execute_multilevel(self, query: Query,
                           hosts: Optional[Sequence[str]] = None,
                           fanout: Sequence[int] = PAPER_TREE_FANOUT,
                           trace: bool = False) -> DistributedQueryResult:
        """Multi-level query along an aggregation tree (the tree mapped
        onto a plan, run by :meth:`_gather`).

        The tree is kept for the next query over the same ``(targets,
        fanout)``, which builds only its plan nodes.  Each edge is priced
        as the paper's query + subtree description; the worker modes ship
        each group the bare query frame and the subtrees it folds.
        """
        targets = self._targets(hosts)
        tree, shape = self._tree, (targets, tuple(fanout))
        if tree is None or (tree.hosts, tree.fanout) != shape:
            self._tree = tree = AggregationTree(targets, fanout=fanout)
        request = wire.encode_query_request(query, None, trace)
        gather = self._gather(query, self._plan_from_tree(tree.root, request),
                              request, (MECHANISM_MULTILEVEL, tree), trace)
        return self._result(
            query, MECHANISM_MULTILEVEL, gather, len(targets),
            breakdown={"tree_depth": float(tree.depth()),
                       "host_execution": gather.max_exec_s,
                       "merge_total": sum(gather.merge_s.values()),
                       "controller_aggregation": gather.merge_s[None]})

    def execute(self, query: Query, hosts: Optional[Sequence[str]] = None,
                mechanism: str = MECHANISM_DIRECT,
                trace: bool = False) -> DistributedQueryResult:
        """Execute a query with the chosen mechanism; ``trace`` records
        its stages on the result (``DistributedQueryResult.stages``)."""
        if mechanism == MECHANISM_DIRECT:
            return self.execute_direct(query, hosts, trace)
        if mechanism == MECHANISM_MULTILEVEL:
            return self.execute_multilevel(query, hosts, trace=trace)
        raise ValueError(f"unknown query mechanism {mechanism!r}")

    # ------------------------------------------------------------- internals
    def _targets(self, hosts: Optional[Sequence[str]]) -> List[str]:
        """A scatter's hosts in order (``None``: all); a host named twice
        would answer, and count its bytes, twice: ``ValueError``."""
        if hosts is None:
            return list(self.hosts)
        targets = list(hosts)
        if len(set(targets)) != len(targets):
            repeated = next(host for index, host in enumerate(targets)
                            if host in targets[:index])
            raise ValueError(f"host {repeated!r} repeated in the scatter")
        return targets

    @staticmethod
    def _plan_from_tree(node: TreeNode, request: bytes) -> PlanNode:
        """Map an aggregation (sub)tree onto a scatter plan.

        Every non-root edge is priced as the paper's one request message
        batching the query and the child's subtree description.
        ``request`` is the bare query frame, encoded once per query; the
        edge's parts are its length and the node's ``spec_len``, so they
        sum to exactly ``len(wire.encode_query_request(query, node.spec))``
        - the priced message, not what the fetch ships (``request``).
        """
        def walk(node: TreeNode) -> PlanNode:
            plan = PlanNode(node.host)
            if node.host is not None:
                plan.request_parts = (len(request), node.spec_len)
            plan.children = list(map(walk, node.children))
            return plan

        return walk(node)

    def _gather(self, query: Query, plan: PlanNode, request: bytes,
                shape: tuple, trace: bool = False) -> GatherResult:
        """Run ``query`` over ``plan`` (flat for direct, the tree for
        multi-level) - the one query path of every mode and both
        mechanisms - and price it.

        In process the fold (:meth:`QueryEngine.fold`) runs ``plan``,
        asking each agent as it reaches the host, under :attr:`executor`'s
        transport, deadline and retries.  When the workers serve the query
        (every built-in; a custom handler registered on the in-process
        agents runs local), ``plan`` is cut along the shards (the cut is
        kept for its mechanism's next plan of the same ``shape``:
        ``(mechanism, the targets or the tree)``),
        :meth:`_fetch` asks each group once for its fold units' partials,
        and :func:`~repro.core.shards.fold_shards` folds the rest and
        rebuilds the full plan's gather from the workers' reports.  Faults
        act per group, the failure domain, in the fetch - drops, delays,
        the deadline and retries hit a group's exchange; a group that
        fails (dead, late, or answering one error frame because a host it
        was asked for failed or had an ingest error latched, as a group
        tick does) is one ``W_HOST_FAILED`` / ``W_HOST_TIMEOUT`` naming its
        key, its hosts in ``hosts_failed`` in plan order, the survivors'
        subtrees still aggregating.  The fold has no transport: it adds
        no fault.

        Either way the full plan is priced: its legs - one request and one
        response per plan host, measured frame lengths - are counted on
        :attr:`rpc`, and ``model_time_s`` is
        :func:`~repro.core.rpc.model_response_time` of the measured
        execution and merge times (the workers' own, in the worker modes),
        so ``traffic_bytes`` and the channel counters are every mode's.  A
        fetched gather's ``wall_s`` covers fetch and fold, its
        ``duplicate_traffic_bytes`` adds the fetch's voided envelopes, and
        its ``max_exec_s`` is the slowest group exchange.  ``trace`` fills
        ``stages``: each host's own in process, each group's exchange and
        worker record in the worker modes, and the fold's under ``None``
        - its wall less the host work it ran.
        """
        host_stages: Dict[str, Dict[str, int]] = {}

        def local(host: str) -> QueryResult:
            agent = self.agents.get(host)
            if agent is None:
                raise KeyError(f"no agent running on {host}")
            if trace:
                host_stages[host] = {}
                return agent.execute_query(query, host_stages[host])
            return agent.execute_query(query)

        fetched = None
        if (self.mode in _WORKER_MODES and self._process_pool is not None
                and query.name in SERVED_QUERIES):
            mechanism, key = shape
            known, cut = self._cuts.get(mechanism, (None, None))
            if known != key:
                cut = cut_plan(plan, self._process_pool.group_of)
                self._cuts[mechanism] = (key, cut)
            fetched = self._fetch(query, request, cut, trace)
            gather, folded = fold_shards(self.engine, query, plan, cut,
                                         fetched)
        else:
            gather = folded = self.engine.fold(query, plan, local,
                                               self.executor)
        charge_legs(plan, gather.reports, self.rpc)
        gather.model_time_s = model_response_time(
            plan, gather.reports, gather.merge_s, self.rpc)
        if trace:
            for host, report in gather.reports.items():
                report.stages = host_stages.get(host, {})
            fold = folded.wall_s - sum(report.exec_s
                                       for report in folded.reports.values())
            gather.stages = self._stages(gather, fetched)
            gather.stages[None] = {"fold": micros(fold)}
        return gather

    @staticmethod
    def _stages(*gathers: Optional[GatherResult]
                ) -> Dict[Optional[str], Dict[str, int]]:
        """Every report's stages in the ``gathers`` given, by reporter."""
        return {name: report.stages for gather in gathers
                if gather is not None
                for name, report in gather.reports.items() if report.stages}

    def _fetch(self, query: Query, request: bytes, cut: ShardCut,
               trace: bool = False) -> GatherResult:
        """Fetch the fold units' partials: through :meth:`_scatter_groups`
        (timeouts, retries and supervision act per group), one envelope per
        group touched holding one shard query - the bare ``request`` and
        the group's units (a host no worker serves is a group of its own,
        failing like a dead agent).  The value is ``{group key: shard
        result}``; piggybacked alarms reach the bus in plan order
        (:class:`_AlarmCollector`), a reply given up on surrendering its
        too."""
        pool = self._process_pool
        leaves = {key: [(wire.EVERY_HOST,
                         wire.encode_shard_query(request, part.encoded))]
                  for key, part in cut.parts.items()}
        sink = _AlarmCollector(self, latch=False, order=cut.hosts)

        def consume(exchange: Exchange, deadline: Optional[float]):
            part = cut.parts[exchange.key]
            ask = functools.partial(pool.group_query, exchange, query,
                                    part.hosts, len(part.units))
            try:
                shard, reply_bytes, _sent = ask(deadline, sink.land)
            except DeadlineExceeded:
                self._consume_late(lambda: ask(on_hosts=sink.park))
                raise
            return {exchange.key: shard}, reply_bytes

        _plan, gather = self._scatter_groups(
            leaves, consume, trace,
            {key: part.hosts for key, part in cut.parts.items()})
        sink.dispatch()
        return gather

    def _result(self, query: Query, mechanism: str, gather: GatherResult,
                host_count: int, breakdown: Dict[str, float]
                ) -> DistributedQueryResult:
        """The query's result from its fold.

        The root accumulator is read for its payload and scan stats only
        (it never travels, so it is never sized).  Nothing gathered - no
        hosts targeted, or every host failed, which ``partial`` tells
        apart - is the canonical empty aggregate, and a single partial
        that reached the root unmerged runs through the merge once, so the
        aggregate has canonical shape.  Pending infrastructure warnings
        (mirror detaches, worker restarts, circuit opens) ride the result,
        so callers see degradation without polling the pool's counters.
        """
        merged = gather.value
        if merged is None or gather.root_merges == 0:
            merged = self.engine.merge(
                query, () if merged is None else (merged,), measure_wire=False)
        return DistributedQueryResult(
            query=query, mechanism=mechanism, payload=merged.payload,
            response_time_s=gather.model_time_s,
            traffic_bytes=gather.traffic_bytes, host_count=host_count,
            breakdown=breakdown, partial=gather.partial,
            hosts_failed=list(gather.hosts_failed),
            warnings=tuple(gather.warnings) + self._drain_warnings(),
            wall_clock_s=gather.wall_s,
            mode=self.mode,
            duplicate_traffic_bytes=gather.duplicate_traffic_bytes,
            scan_stats=dict(merged.scan_stats), stages=gather.stages)

    # ------------------------------------------------------------ accounting
    def total_tib_records(self) -> int:
        """Total records across every agent's TIB (both tiers)."""
        return sum(a.tib.total_record_count() for a in self.agents.values())

    def storage_report(self) -> Dict[str, int]:
        """Aggregate storage footprint across the cluster.

        (Worker-plane health - restarts, re-seed cost, open circuits,
        mirror detaches - is reported by :meth:`recovery_report`.)
        """
        report = {"tib": 0, "tib_archive": 0, "trajectory_memory": 0,
                  "trajectory_cache": 0}
        for agent in self.agents.values():
            footprint = agent.memory_footprint_bytes()
            for key in report:
                report[key] += footprint[key]
        return report

    def recovery_report(self) -> Dict[str, object]:
        """Self-healing counters of the worker plane.

        Mirrors :class:`~repro.core.groupserver.GroupPoolStats`: completed
        restarts and their total re-seed cost, circuits opened (restart
        budget exhausted -> dead-agent semantics), ingest mirrors that
        detached, and undecodable replies - plus which worker groups
        (``open_circuits``, by group key) are currently degraded.  All
        zeros for a healthy (or serial-mode) cluster.
        """
        pool = self._process_pool
        stats = pool.stats if pool is not None else GroupPoolStats()
        supervisor = pool.supervisor if pool is not None else self.supervisor
        return {
            "supervised": supervisor is not None,
            "restarts": stats.restarts,
            "reseed_ms": round(stats.reseed_ms, 3),
            "circuit_open": stats.circuit_open,
            "open_circuits": (supervisor.open_circuits()
                              if supervisor is not None else []),
            "mirror_detaches": stats.mirror_detaches,
            "decode_errors": stats.decode_errors,
            "restart_events": (len(supervisor.events)
                               if supervisor is not None else 0),
        }

    def reset_stats(self) -> None:
        """Zero every per-experiment counter in one place.

        Resets the RPC channel's message/byte counters, the worker pool's
        and an installed transport's counters, each agent's counters
        (vswitch, TIB tier movement and scan routing, archive) and each
        monitor's alert counters/latches, so
        repeated runs against the same cluster can't double-count and a new
        measurement interval re-alerts still-poor flows.  In a worker mode
        every worker monitor runs the same ``reset_stats()`` (one
        payload-less ``MSG_MONITOR_REOPEN`` entry per worker group,
        addressed to every host of it): the operation travels, not its
        result, because the observation mirror already keeps the two
        ledgers identical - so the reset costs a few bytes a group whatever
        the ledgers hold, and the next tick does not queue behind workers
        restoring thousands of flow entries.  It therefore
        no longer re-ships monitor state: fields mutated outside
        ``observe_flow`` after the workers started (unsupported, see
        :meth:`start_agent_servers`) are not healed here.  Call once per
        experiment.
        """
        for agent in self.agents.values():
            agent.reset_stats()
        pool = self._process_pool
        if pool is not None:
            # Written before the traffic counters are zeroed: these
            # frames are reset bookkeeping, not part of the next
            # experiment.
            for key in pool.group_keys():
                try:
                    pool.reopen_monitors(key)
                except AgentServerError:
                    pass  # dead worker: the query path reports it already
            pool.reset_stats()
        self.rpc.stats.reset()
        if self.transport is not None:
            self.transport.reset_stats()
