"""The PathDump controller.

Section 3.3: the controller (i) installs the static trajectory-tracing rules
on the switches when it starts, and (ii) hosts the debugging applications,
which run either *on demand* (the operator issues queries) or *event-driven*
(agents raise alarms, trapped packets arrive from switches).  Queries and
results travel over the controller API (``execute``/``install``/``uninstall``
of Table 1), using the direct or multi-level mechanism.

:class:`PathDumpController` ties those roles together on top of a
:class:`~repro.core.cluster.QueryCluster` and (optionally) a simulated
:class:`~repro.network.simulator.Fabric`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.alarms import Alarm, AlarmBus, LOOP_DETECTED, LONG_PATH
from repro.core.cluster import (MECHANISM_DIRECT, MECHANISM_MULTILEVEL,
                                DistributedQueryResult, QueryCluster)
from repro.core.query import Query
from repro.counters import Counters
from repro.network.packet import FlowId, Packet
from repro.network.simulator import Fabric
from repro.tracing.cherrypick import make_tagger
from repro.tracing.rules import CompiledRules, compile_rules
from repro.tracing.trap import LongPathTrap, TrapVerdict


@dataclass(slots=True)
class ControllerStats(Counters):
    """Counters describing controller activity."""

    queries_executed: int = 0
    queries_installed: int = 0
    alarms_received: int = 0
    packets_trapped: int = 0
    loops_detected: int = 0


class PathDumpController:
    """The central controller.

    Args:
        cluster: the agent cluster (provides the distributed query executor
            and the alarm bus).
        fabric: the simulated fabric; when given, trajectory-tracing rules
            are installed on its switches and trapped packets are handled.
        install_rules: install the static tagging rules at construction time
            (the paper's one-time initialization task).
    """

    def __init__(self, cluster: QueryCluster, fabric: Optional[Fabric] = None,
                 install_rules: bool = True) -> None:
        self.cluster = cluster
        self.fabric = fabric
        self.alarm_bus: AlarmBus = cluster.alarm_bus
        self.stats = ControllerStats()
        self.compiled_rules: Optional[CompiledRules] = None
        self.trap: Optional[LongPathTrap] = None
        self.trap_verdicts: List[TrapVerdict] = []
        self._alarm_handlers: List[Callable[[Alarm], None]] = []
        self.alarm_bus.subscribe(self._on_alarm)
        if fabric is not None:
            self.trap = LongPathTrap(fabric)
            if install_rules:
                self.install_tracing_rules()

    # ----------------------------------------------------------- rule install
    def install_tracing_rules(self) -> CompiledRules:
        """Compile and install the static CherryPick rules on every switch.

        This is the controller's one-time initialization task; the rules are
        never modified afterwards.  The fast-path tagger implementing the
        same policy is installed alongside so the simulator applies the
        sampling on every forwarded packet.
        """
        if self.fabric is None:
            raise RuntimeError("no fabric attached to install rules on")
        topo = self.cluster.topo
        assignment = self.cluster.assignment
        self.compiled_rules = compile_rules(topo, assignment,
                                            self.fabric.switches)
        self.fabric.install_tagger(make_tagger(topo, assignment))
        return self.compiled_rules

    def switch_rule_counts(self) -> Dict[str, int]:
        """Number of tagging rules installed per switch."""
        if self.compiled_rules is None:
            return {}
        return {switch: len(rules)
                for switch, rules in self.compiled_rules.per_switch.items()}

    # ------------------------------------------------------------ controller API
    def execute(self, hosts: Optional[Sequence[str]], query: Query,
                mechanism: str = MECHANISM_DIRECT) -> DistributedQueryResult:
        """``execute(List<HostID>, Query)`` from Table 1."""
        self.stats.queries_executed += 1
        return self.cluster.execute(query, hosts, mechanism)

    def install(self, hosts: Optional[Sequence[str]], query: Query,
                period: Optional[float] = None) -> None:
        """``install(List<HostID>, Query, Period)`` from Table 1."""
        from repro.core import wire
        targets = hosts if hosts is not None else self.cluster.hosts
        frame = wire.encode_query(query)  # encoded once, shipped per host
        for host in targets:
            self.cluster.agent(host).install_query(query, period)
            self.cluster.rpc.send_encoded(frame)
        self.stats.queries_installed += 1

    def uninstall(self, hosts: Optional[Sequence[str]], query_name: str) -> int:
        """``uninstall(List<HostID>, Query)``; returns removal count."""
        targets = hosts if hosts is not None else self.cluster.hosts
        removed = 0
        for host in targets:
            if self.cluster.agent(host).uninstall_query(query_name):
                removed += 1
        return removed

    # -------------------------------------------------------------- alarms
    def on_alarm(self, handler: Callable[[Alarm], None],
                 reason: Optional[str] = None) -> None:
        """Register an event-driven debugging application."""
        self.alarm_bus.subscribe(handler, reason)

    def _on_alarm(self, alarm: Alarm) -> None:
        self.stats.alarms_received += 1

    def alarms(self, reason: Optional[str] = None) -> List[Alarm]:
        """Alarms received so far (optionally filtered by reason)."""
        if reason is None:
            return list(self.alarm_bus.alarms)
        return self.alarm_bus.by_reason(reason)

    # -------------------------------------------------------- trapped packets
    def handle_trapped_packet(self, switch: str, packet: Packet,
                              when: float) -> TrapVerdict:
        """Handle a packet punted by a switch (suspiciously long path).

        Loops raise a ``LOOP_DETECTED`` alarm; non-loop long paths raise a
        ``LONG_PATH`` alarm carrying the observed link IDs so the operator
        (or the path-conformance application) can inspect them.
        """
        if self.trap is None:
            raise RuntimeError("no fabric attached; cannot chase packets")
        self.stats.packets_trapped += 1
        verdict = self.trap.handle_punt(switch, packet, when)
        self.trap_verdicts.append(verdict)
        if verdict.is_loop:
            self.stats.loops_detected += 1
            reason = LOOP_DETECTED
            detail = (f"repeated link id {verdict.repeated_link_id} "
                      f"after {verdict.rounds} round(s)")
        else:
            reason = LONG_PATH
            detail = f"observed link ids {verdict.loop_links}"
        self.alarm_bus.raise_alarm(Alarm(
            flow_id=packet.flow, reason=reason, paths=[], host="controller",
            time=verdict.detection_time, detail=detail))
        return verdict

    def attach_trap_handler(self) -> None:
        """Route fabric punts straight into :meth:`handle_trapped_packet`."""
        if self.fabric is None:
            raise RuntimeError("no fabric attached")
        self.fabric.punt_handler = self.handle_trapped_packet

    # ------------------------------------------------------------ accounting
    #: Sections of the consolidated :meth:`report`, in canonical order.
    REPORT_SECTIONS = ("storage", "tier", "recovery")

    def configure_retention(self, max_records: Optional[int] = None,
                            max_bytes: Optional[int] = None) -> None:
        """Operator knob: bound every host TIB's hot tier (see
        :meth:`repro.core.cluster.QueryCluster.configure_retention`)."""
        self.cluster.configure_retention(max_records=max_records,
                                         max_bytes=max_bytes)

    def report(self, sections: Optional[Sequence[str]] = None,
               from_workers: bool = False) -> Dict[str, Dict]:
        """The operator's one consolidated deployment report.

        Returns a nested dict with one entry per requested section (every
        section when ``sections`` is omitted, in :attr:`REPORT_SECTIONS`
        order):

        * ``"storage"`` - aggregate memory footprint per subsystem
          (:meth:`repro.core.cluster.QueryCluster.storage_report`);
        * ``"tier"`` - two-tier TIB stats, including the cold scan's
          pruning and write-behind counters (``from_workers=True`` reads
          the agent-server workers instead of the local mirrors);
        * ``"recovery"`` - self-healing worker-plane health
          (:meth:`repro.core.cluster.QueryCluster.recovery_report`).

        The single-section accessors (:meth:`storage_report`,
        :meth:`tier_report`, :meth:`recovery_report`) delegate here, so
        new counters land in one place instead of a fourth ad-hoc method.
        """
        if sections is None:
            sections = self.REPORT_SECTIONS
        unknown = [s for s in sections if s not in self.REPORT_SECTIONS]
        if unknown:
            raise ValueError(
                f"unknown report section(s) {unknown!r}; "
                f"expected a subset of {list(self.REPORT_SECTIONS)!r}")
        report: Dict[str, Dict] = {}
        for section in self.REPORT_SECTIONS:
            if section not in sections:
                continue
            if section == "storage":
                report[section] = self.cluster.storage_report()
            elif section == "tier":
                report[section] = self.cluster.tier_report(
                    from_workers=from_workers)
            else:
                report[section] = self.cluster.recovery_report()
        return report

    def storage_report(self) -> Dict[str, int]:
        """Aggregate storage footprint across the deployment (the
        ``"storage"`` section of :meth:`report`)."""
        return self.report(sections=("storage",))["storage"]

    def tier_report(self, from_workers: bool = False) -> Dict[str, int]:
        """Aggregate two-tier TIB stats across the deployment (the
        ``"tier"`` section of :meth:`report`).

        (``from_workers=True`` reads the agent-server workers; a worker
        the supervisor restarted answers with its re-seeded - identical -
        state.  Worker-plane health itself is in
        :meth:`recovery_report`.)
        """
        return self.report(sections=("tier",),
                           from_workers=from_workers)["tier"]

    def recovery_report(self):
        """Operator view of the self-healing agent plane (the
        ``"recovery"`` section of :meth:`report`): worker restarts,
        re-seed cost, open circuits, mirror detaches and decode errors."""
        return self.report(sections=("recovery",))["recovery"]

    def reset_stats(self) -> None:
        """Zero per-experiment counters: controller activity, the RPC
        channel, and every agent's storage-engine instrumentation
        (including the two-tier eviction/promotion and archive counters)."""
        self.stats.reset()
        self.cluster.reset_stats()

    # ------------------------------------------------------------- simulation
    def tick(self, now: float) -> List[Alarm]:
        """Advance periodic work: installed queries and TCP monitors.

        Returns the alarms the monitor sweep raised (a
        :class:`~repro.core.cluster.MonitorSweep`; in process mode the
        sweep is a scatter of tick frames to the agent-server workers and
        carries ``partial``/``hosts_failed`` when a worker died mid-tick).
        """
        alarms = self.cluster.run_monitors(now)
        for agent in self.cluster.agents.values():
            agent.run_installed(now)
        return alarms
