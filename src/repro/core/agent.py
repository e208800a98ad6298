"""The PathDump end-host agent (the "server stack" of Section 3.2).

One agent runs on every end host and glues together the edge components:

* the :class:`~repro.core.vswitch.EdgeVSwitch` fast path (tag extraction and
  trajectory-memory updates),
* the :class:`~repro.core.trajectory.TrajectoryMemory`, with NetFlow-style
  eviction into the TIB via the
  :class:`~repro.core.trajectory.TrajectoryConstructor`,
* the :class:`~repro.core.tib.Tib` storage and query engine,
* the :class:`~repro.core.monitor.ActiveMonitor` TCP health monitor,
* the host API of Table 1 (``getFlows``, ``getPaths``, ``getCount``,
  ``getDuration``, ``getPoorTCPFlows``, ``Alarm``), answered for *local*
  flows (flows whose destination is this host),
* installed queries, executed periodically or on packet arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core import plan as planlib
from repro.core.alarms import INVALID_TRAJECTORY, Alarm
from repro.core.monitor import ActiveMonitor
from repro.core.query import Query, QueryEngine, QueryResult
from repro.core.tib import (Flow, LinkId, Tib, TimeRange, distinct_flows,
                            distinct_paths, read_spec)
from repro.core.trajectory import (TrajectoryCache, TrajectoryConstructor,
                                   TrajectoryMemory)
from repro.core.vswitch import EdgeVSwitch
from repro.network.packet import FlowId, Packet
from repro.storage.archive import RetentionPolicy
from repro.storage.records import PathFlowRecord
from repro.tracing.reconstruct import PathReconstructor
from repro.topology.graph import Topology
from repro.topology.linkid import LinkIdAssignment


@dataclass
class InstalledQuery:
    """A query installed on this agent by the controller."""

    query: Query
    period: Optional[float]
    last_run: float = float("-inf")
    runs: int = 0
    results: List[QueryResult] = field(default_factory=list)


class PathDumpAgent:
    """The PathDump instance of one end host.

    Args:
        host: the host name.
        topo: the static topology view (ground truth).
        assignment: the fabric-wide link ID assignment.
        alarm_sink: callable receiving alarms (wired to the controller bus).
        reconstructor: optional shared path reconstructor (one per cluster
            avoids recomputing shortest paths per agent).
        cache: optional shared trajectory cache.
        idle_timeout: trajectory-memory idle eviction timeout (seconds).
        retention: optional hot-tier bounds for the TIB; when set the TIB
            runs two-tiered (bounded hot memory, cold archive - see
            :mod:`repro.storage.archive`).
    """

    def __init__(self, host: str, topo: Topology,
                 assignment: LinkIdAssignment,
                 alarm_sink: Optional[Callable[[Alarm], None]] = None,
                 reconstructor: Optional[PathReconstructor] = None,
                 cache: Optional[TrajectoryCache] = None,
                 idle_timeout: float = 5.0,
                 retention: Optional["RetentionPolicy"] = None) -> None:
        self.host = host
        self.topo = topo
        self.alarm_sink = alarm_sink
        self.tib = Tib(host, retention=retention)
        self.trajectory_memory = TrajectoryMemory(idle_timeout=idle_timeout)
        self.constructor = TrajectoryConstructor(
            reconstructor or PathReconstructor(topo, assignment),
            cache=cache, on_invalid=self._on_invalid_trajectory)
        self.vswitch = EdgeVSwitch(host, self.trajectory_memory)
        self.monitor = ActiveMonitor(host, alarm_sink=self._forward_alarm)
        self.engine = QueryEngine()
        self.installed: Dict[str, InstalledQuery] = {}
        self.alarms_raised: List[Alarm] = []
        #: Optional mirror for TIB writes: every batch of records stored in
        #: the local TIB is also handed to this callable.  The cluster's
        #: worker modes use it to stream encoded record batches to the
        #: host's group worker, keeping the worker TIB in sync with
        #: every ingest path (fabric deliveries, flow outcomes, direct
        #: inserts through the agent).
        self.record_sink: Optional[Callable[[Sequence[PathFlowRecord]],
                                            None]] = None

    # --------------------------------------------------------------- ingest
    def on_packet_delivered(self, host: str, packet: Packet,
                            when: float) -> None:
        """Fabric delivery callback: run the packet through the edge stack."""
        if host != self.host:
            raise ValueError(f"packet for {host} delivered to agent "
                             f"{self.host}")
        self.vswitch.receive(packet, when)
        self._export(self.vswitch.drain_evictions())
        self._run_event_driven(when)

    def ingest_path_record(self, record: PathFlowRecord) -> None:
        """Directly insert a finished per-path flow record into the TIB.

        Used by the flow-level traffic simulator, which produces aggregate
        per-path statistics rather than individual packets.  The caller's
        record is copied on insert (never mutated or retained).
        """
        self.tib.add_record(record)
        if self.record_sink is not None:
            self.record_sink((record,))

    def flush(self, now: Optional[float] = None) -> int:
        """Evict trajectory-memory records into the TIB.

        Args:
            now: evict only records idle since ``now``; evict everything when
                omitted (end of an experiment).

        Returns:
            Number of records exported.
        """
        if now is None:
            evicted = self.trajectory_memory.evict_all()
        else:
            evicted = self.trajectory_memory.evict_idle(now)
        return self._export(evicted)

    def _export(self, evicted: Sequence) -> int:
        construct = self.constructor.construct
        constructed = [record for record in map(construct, evicted)
                       if record is not None]
        if not constructed:
            return 0
        sink = self.record_sink
        if sink is None:
            # The constructor built these records solely for this TIB:
            # transfer ownership instead of copy-on-insert (the eviction
            # fast path).
            return self.tib.add_records(constructed, adopt=True)
        # With a mirror attached, the local TIB must be written FIRST and
        # by copy: first, so a supervised worker restart triggered by the
        # mirror delivery re-seeds from local state that already includes
        # this batch (the sink then skips it instead of double-counting);
        # by copy, because adopted records can be merged in place during
        # the add (same-key records within one batch) and the mirror must
        # ship the pre-merge records the worker will re-play identically.
        count = self.tib.add_records(constructed)
        sink(constructed)
        return count

    def _on_invalid_trajectory(self, memory_record, error) -> None:
        """An extracted trajectory is inconsistent with the topology."""
        self.alarm(memory_record.flow_id, INVALID_TRAJECTORY, [],
                   detail=str(error))

    # ------------------------------------------------------------ host API
    def records(self, flow_id: Optional[FlowId] = None,
                link: Optional[LinkId] = None,
                time_range: Optional[TimeRange] = None,
                include_live: bool = False) -> List[PathFlowRecord]:
        """All matching per-path records (TIB plus, optionally, live memory).

        ``include_live`` corresponds to the IPC lookup of the trajectory
        memory that alert-driven debugging uses for the freshest data; the
        live records are filtered with the read's own
        :class:`~repro.storage.records.ScanSpec`.
        """
        results = self.tib.records(flow_id=flow_id, link=link,
                                   time_range=time_range)
        if include_live:
            spec = read_spec(flow_id, link, time_range)
            for memory_record in self.trajectory_memory.live_records():
                if flow_id is not None and memory_record.flow_id != flow_id:
                    continue
                record = self.constructor.construct(memory_record)
                if record is not None and spec.matches(record):
                    results.append(record)
        return results

    def get_flows(self, link: Optional[LinkId] = None,
                  time_range: Optional[TimeRange] = None,
                  include_live: bool = False) -> List[Flow]:
        """``getFlows(linkID, timeRange)`` over local flows."""
        return distinct_flows(self.records(link=link, time_range=time_range,
                                           include_live=include_live))

    def get_paths(self, flow_id: FlowId, link: Optional[LinkId] = None,
                  time_range: Optional[TimeRange] = None,
                  include_live: bool = False) -> List[Tuple[str, ...]]:
        """``getPaths(flowID, linkID, timeRange)``."""
        return distinct_paths(self.records(flow_id=flow_id, link=link,
                                           time_range=time_range,
                                           include_live=include_live))

    def get_count(self, flow: Union[Flow, FlowId],
                  time_range: Optional[TimeRange] = None,
                  include_live: bool = False) -> Tuple[int, int]:
        """``getCount(Flow, timeRange)``: (bytes, packets)."""
        return self._evaluate(planlib.compile_get_count(flow, time_range),
                              flow, time_range, include_live)

    def get_duration(self, flow: Union[Flow, FlowId],
                     time_range: Optional[TimeRange] = None,
                     include_live: bool = False) -> float:
        """``getDuration(Flow, timeRange)``: only the in-window portion of
        each record counts (the plan IR's ``span`` aggregate)."""
        return planlib.span_length(self._evaluate(
            planlib.compile_get_duration(flow, time_range), flow, time_range,
            include_live))

    def _evaluate(self, plan: planlib.Plan, flow: Union[Flow, FlowId],
                  time_range: Optional[TimeRange], include_live: bool) -> Any:
        """The payload of a plan over one flow's records: pushed down into
        the TIB, or evaluated by brute force over the flow's TIB records
        plus the live trajectory memory's."""
        if not include_live:
            return planlib.answer(self.tib, plan)[0]
        flow_id = flow if isinstance(flow, FlowId) else flow[0]
        return planlib.reference_evaluate(
            self.records(flow_id=flow_id, time_range=time_range,
                         include_live=True), plan)

    def get_poor_tcp_flows(self, threshold: Optional[int] = None
                           ) -> List[FlowId]:
        """``getPoorTCPFlows(Threshold)``."""
        return self.monitor.get_poor_tcp_flows(threshold)

    def alarm(self, flow_id: FlowId, reason: str,
              paths: Sequence[Tuple[str, ...]],
              detail: str = "", when: float = 0.0) -> Alarm:
        """``Alarm(flowID, Reason, Paths)``: raise an alarm to the controller."""
        alarm = Alarm(flow_id=flow_id, reason=reason,
                      paths=[tuple(p) for p in paths], host=self.host,
                      time=when, detail=detail)
        self.alarms_raised.append(alarm)
        self._forward_alarm(alarm)
        return alarm

    def _forward_alarm(self, alarm: Alarm) -> None:
        if self.alarm_sink is not None:
            self.alarm_sink(alarm)

    # -------------------------------------------------------------- queries
    def execute_query(self, query: Query,
                      stages: Optional[Dict[str, int]] = None
                      ) -> QueryResult:
        """Execute a query shipped by the controller (``stages``: a traced
        run's record, see :meth:`QueryEngine.execute`)."""
        return self.engine.execute(self, query, stages=stages)

    def install_query(self, query: Query,
                      period: Optional[float] = None) -> None:
        """Install a query for periodic or event-driven execution."""
        self.installed[query.name] = InstalledQuery(
            query=query, period=period if period is not None else query.period)

    def uninstall_query(self, name: str) -> bool:
        """Remove an installed query; returns whether it existed."""
        return self.installed.pop(name, None) is not None

    def run_installed(self, now: float) -> List[QueryResult]:
        """Run installed periodic queries whose period has elapsed."""
        results = []
        for installed in self.installed.values():
            if installed.period is None:
                continue
            if now - installed.last_run + 1e-12 < installed.period:
                continue
            result = self.engine.execute(self, installed.query)
            installed.last_run = now
            installed.runs += 1
            installed.results.append(result)
            results.append(result)
        return results

    def _run_event_driven(self, now: float) -> None:
        """Run event-driven installed queries (no period) on packet arrival."""
        for installed in self.installed.values():
            if installed.period is not None:
                continue
            result = self.engine.execute(self, installed.query)
            installed.last_run = now
            installed.runs += 1
            installed.results.append(result)

    def run_monitor(self, now: float,
                    threshold: Optional[int] = None) -> List[Alarm]:
        """Run one periodic TCP health check."""
        return self.monitor.run_check(now, threshold)

    # ------------------------------------------------------------ accounting
    def reset_stats(self) -> None:
        """Zero this agent's per-experiment counters: the vswitch's, the
        storage engine's instrumentation and the monitor's alert
        counters/latches."""
        self.vswitch.stats.reset()
        self.tib.reset_stats()
        self.monitor.reset_stats()

    def configure_retention(self, max_records: Optional[int] = None,
                            max_bytes: Optional[int] = None) -> None:
        """(Re)configure the TIB's hot-tier bounds (see
        :meth:`repro.core.tib.Tib.configure_retention`)."""
        self.tib.configure_retention(max_records=max_records,
                                     max_bytes=max_bytes)

    def memory_footprint_bytes(self) -> Dict[str, int]:
        """Approximate RAM/disk usage of the agent's components.

        ``tib`` is the hot (in-memory) tier; ``tib_archive`` is the cold
        archive's measured log size (the "disk" tier - 0 when unbounded).
        """
        return {
            "trajectory_memory": self.trajectory_memory.estimated_bytes(),
            "trajectory_cache": self.constructor.cache.estimated_bytes(),
            "tib": self.tib.estimated_bytes(),
            "tib_archive": self.tib.archive_bytes(),
        }
