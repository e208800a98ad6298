"""Path conformance checking (Sections 2.3 and 4.1, Figure 4).

The operator expresses a policy over the paths a flow may take - a maximum
path length, switches that must be avoided, or a waypoint that must be
traversed - and installs the corresponding query at the end hosts.  The
agent evaluates the predicate against the trajectories it extracts (either
on every packet arrival or periodically) and raises a ``PC_FAIL`` alarm with
the offending paths.

The Figure 4 experiment: a link failure makes a packet take a 6-hop path
instead of its intended 4-hop shortest path; the destination agent detects
the violation in real time and alerts the controller with the flow key and
trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.alarms import PC_FAIL, Alarm
from repro.core.cluster import QueryCluster
from repro.core.controller import PathDumpController
from repro.core.query import Q_GET_PATHS, Q_PATH_CONFORMANCE, Query
from repro.debug.served import complete
from repro.network.faults import FaultInjector
from repro.network.packet import FlowId
from repro.network.routing import RoutingFabric
from repro.network.simulator import Fabric
from repro.topology.fattree import FatTreeTopology
from repro.transport.tcp import TcpSender
from repro.workloads.arrivals import FlowGenerator, FlowSpec


@dataclass
class ConformancePolicy:
    """An operator policy over packet paths.

    Attributes:
        max_switch_hops: maximum allowed number of switches on a path
            (``None`` disables the length check).  The Section 2.3 example
            uses "path length no more than 6".
        forbidden_switches: switches packets must avoid.
        required_waypoints: switches every path must traverse (waypoint
            routing from Table 2); empty means no waypoint requirement.
    """

    max_switch_hops: Optional[int] = None
    forbidden_switches: Set[str] = field(default_factory=set)
    required_waypoints: Set[str] = field(default_factory=set)

    def violations(self, path: Sequence[str]) -> List[str]:
        """Describe every way ``path`` violates the policy (empty = OK)."""
        switch_path = [n for n in path
                       if not (n.startswith("h-") or n.startswith("vh-"))]
        problems: List[str] = []
        if (self.max_switch_hops is not None
                and len(switch_path) >= self.max_switch_hops):
            problems.append(
                f"path length {len(switch_path)} >= {self.max_switch_hops}")
        bad = self.forbidden_switches.intersection(switch_path)
        if bad:
            problems.append(f"traverses forbidden switch(es) {sorted(bad)}")
        missing = self.required_waypoints.difference(switch_path)
        if self.required_waypoints and missing:
            problems.append(f"misses waypoint(s) {sorted(missing)}")
        return problems

    def conforms(self, path: Sequence[str]) -> bool:
        """Whether ``path`` satisfies the policy."""
        return not self.violations(path)

    def to_query(self, flow_id: Optional[FlowId] = None,
                 period: Optional[float] = None) -> Query:
        """Express the (length/forbidden-switch) policy as an installable query."""
        return Query(Q_PATH_CONFORMANCE,
                     params={"max_hops": self.max_switch_hops,
                             "forbidden": sorted(self.forbidden_switches),
                             "flow_id": flow_id},
                     period=period)


class PathConformanceApp:
    """Controller-side view of the path-conformance application."""

    def __init__(self, controller: PathDumpController,
                 policy: ConformancePolicy) -> None:
        self.controller = controller
        self.policy = policy
        self.violations: List[Alarm] = []
        controller.on_alarm(self._on_alarm, reason=PC_FAIL)

    def install(self, hosts: Optional[Sequence[str]] = None,
                period: Optional[float] = None) -> None:
        """Install the conformance query on the given hosts (all by default)."""
        self.controller.install(hosts, self.policy.to_query(period=period),
                                period=period)

    def _on_alarm(self, alarm: Alarm) -> None:
        self.violations.append(alarm)


@dataclass
class ConformanceExperimentResult:
    """Outcome of the Figure 4 path-conformance experiment."""

    expected_path: Tuple[str, ...]
    actual_path: Tuple[str, ...]
    violation_detected: bool
    alarms: List[Alarm]
    detection_paths: List[Tuple[str, ...]]

    @property
    def detour_hops(self) -> int:
        """Extra links taken compared to the intended shortest path."""
        return len(self.actual_path) - len(self.expected_path)


def run_path_conformance_experiment(*, k: int = 4, seed: int = 0,
                                    max_switch_hops: int = 6,
                                    mode: str = "serial",
                                    retention=None
                                    ) -> ConformanceExperimentResult:
    """Reproduce the Figure 4 scenario on a k-ary fat-tree.

    A flow between two pods is first routed over its 4-hop shortest path;
    then the aggregate-to-ToR link on the destination side fails, the fabric
    fails over onto a longer path, and the destination agent's installed
    conformance query raises a PC_FAIL alarm carrying the offending
    trajectory.  The experiment runs in any cluster ``mode``: the
    event-driven installed query runs controller-side on packet arrival,
    the alarm bus carries the PC_FAIL alert identically, and the detour is
    read from the worker serving the destination in the worker modes.
    """
    topo = FatTreeTopology(k)
    routing = RoutingFabric(topo)
    fabric = Fabric(topo, routing, seed=seed)
    cluster = QueryCluster(topo, fabric=fabric, mode=mode,
                           retention=retention)
    try:
        return _run_conformance(cluster, topo, routing, fabric, seed=seed,
                                max_switch_hops=max_switch_hops)
    finally:
        cluster.close()


def _run_conformance(cluster: QueryCluster, topo: FatTreeTopology,
                     routing: RoutingFabric, fabric: Fabric, *, seed: int,
                     max_switch_hops: int) -> ConformanceExperimentResult:
    from repro.transport.flows import FlowLevelSimulator

    controller = PathDumpController(cluster, fabric)

    src = topo.host_name(0, 0, 0)
    dst = topo.host_name(topo.k - 1, 0, 0)

    policy = ConformancePolicy(max_switch_hops=max_switch_hops)
    app = PathConformanceApp(controller, policy)
    # Event-driven installation at the destination host only (the flow's
    # records are local to it).
    app.install(hosts=[dst], period=None)

    generator = FlowGenerator(topo.hosts, seed=seed)
    path_probe = FlowLevelSimulator(topo, routing, seed=seed)
    injector = FaultInjector(topo, routing, seed=seed)

    # Pick a flow whose ECMP path survives the failover detour: fail the
    # aggregate->ToR link its shortest path uses on the destination side and
    # keep the first candidate flow for which the detour actually reaches the
    # destination (ECMP hashing at the bounce ToR must pick the healthy
    # aggregate; the paper's testbed crafts its failover rules the same way).
    spec: Optional[FlowSpec] = None
    expected: Tuple[str, ...] = ()
    for _ in range(32):
        candidate = generator.single_flow(src, dst, size=40_000)
        injector.clear()
        shortest = tuple(path_probe.ecmp_path(candidate.flow_id))
        injector.fail_link(shortest[-3], shortest[-2])
        try:
            detour = tuple(path_probe.ecmp_path(candidate.flow_id))
        except RuntimeError:
            continue
        if len(detour) > len(shortest):
            spec = candidate
            expected = shortest
            break
    if spec is None:
        raise RuntimeError("could not construct a surviving detour scenario")

    result = TcpSender(fabric, spec).run()
    cluster.flush_all()

    alarms = controller.alarms(PC_FAIL)
    detection_paths = [tuple(p) for alarm in alarms for p in alarm.paths]
    return ConformanceExperimentResult(
        expected_path=expected,
        actual_path=longest_path(cluster, dst, spec.flow_id),
        violation_detected=bool(alarms), alarms=alarms,
        detection_paths=detection_paths)


def longest_path(cluster: QueryCluster, host: str,
                 flow_id: FlowId) -> Tuple[str, ...]:
    """The longest path ``host``'s TIB recorded for the flow, or ``()``."""
    paths = complete(cluster.execute(
        Query(Q_GET_PATHS, {"flow_id": flow_id}), [host]))
    return tuple(max(paths, key=len)) if paths else ()
