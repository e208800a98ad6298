"""Blackhole diagnosis (Section 4.4).

A *silent blackhole* drops every packet crossing one interface without
raising any counter.  With packet spraying, a flow's packets fan out over all
equal-cost paths, so a blackhole makes exactly the affected subflow(s)
disappear: the destination TIB holds per-path records for every path except
the blackholed one(s).

PathDump's diagnosis, driven by the sender's POOR_PERF/timeout alarm:

1. retrieve every TIB record of the flow from the destination agent;
2. compare the observed paths against the expected equal-cost path set (the
   controller knows the topology);
3. the missing path(s) contain the culprit; switches that also appear on
   *observed* (healthy) paths are exonerated, and when several subflows are
   affected the intersection of the missing paths narrows the set further.

The paper's numbers on a 4-ary fat-tree: an aggregate-core blackhole leaves
3 candidate switches (instead of the 10 switches on all four paths); a
ToR-aggregate blackhole in the source pod affects two subflows whose joined
paths share 4 switches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.alarms import BLACKHOLE_SUSPECTED, POOR_PERF, Alarm
from repro.core.cluster import QueryCluster
from repro.network.faults import FaultInjector
from repro.network.packet import FlowId
from repro.network.routing import POLICY_SPRAY, RoutingFabric
from repro.topology.fattree import FatTreeTopology
from repro.topology.graph import Topology
from repro.transport.flows import FlowLevelSimulator
from repro.workloads.arrivals import FlowGenerator
from repro.workloads.websearch import web_search_cdf


@dataclass
class BlackholeDiagnosis:
    """Result of diagnosing one suspected blackhole.

    Attributes:
        flow_id: the affected flow.
        expected_paths: equal-cost paths the sprayed flow should have used.
        observed_paths: paths recorded in the destination TIB.
        missing_paths: expected paths with no TIB record (the impacted
            subflows).
        candidate_switches: switches shared by every missing path (the
            "common switches" the paper reports for multi-subflow cases).
        prioritized_switches: candidates that do not appear on any observed
            path - the strongest suspects, checked first.
        search_space_reduction: ratio of total switches on all expected paths
            to the prioritized candidate count.
    """

    flow_id: FlowId
    expected_paths: List[Tuple[str, ...]] = field(default_factory=list)
    observed_paths: List[Tuple[str, ...]] = field(default_factory=list)
    missing_paths: List[Tuple[str, ...]] = field(default_factory=list)
    candidate_switches: Set[str] = field(default_factory=set)
    prioritized_switches: Set[str] = field(default_factory=set)

    @property
    def impacted_subflows(self) -> int:
        """Number of subflows whose packets never arrived."""
        return len(self.missing_paths)

    @property
    def total_switches_on_paths(self) -> int:
        """Total distinct switches across all expected paths."""
        switches: Set[str] = set()
        for path in self.expected_paths:
            switches.update(_switches_only(path))
        return len(switches)

    @property
    def search_space_reduction(self) -> float:
        """How much smaller the suspect set is than the full path set."""
        if not self.prioritized_switches:
            return 1.0
        return self.total_switches_on_paths / len(self.prioritized_switches)


def _switches_only(path: Sequence[str]) -> List[str]:
    """Drop the end hosts from a path."""
    return [n for n in path if not (n.startswith("h-")
                                    or n.startswith("vh-"))]


class BlackholeDiagnoser:
    """Controller application narrowing down silent blackholes.

    Args:
        cluster: the agent cluster (for destination TIB queries).
        topo: the topology (for the expected equal-cost path set).
    """

    def __init__(self, cluster: QueryCluster, topo: Topology) -> None:
        self.cluster = cluster
        self.topo = topo
        self.diagnoses: List[BlackholeDiagnosis] = []

    def on_alarm(self, alarm: Alarm) -> Optional[BlackholeDiagnosis]:
        """Handle a POOR_PERF alarm by checking for missing subflows."""
        if alarm.reason != POOR_PERF:
            return None
        return self.diagnose(alarm.flow_id)

    def diagnose(self, flow_id: FlowId) -> BlackholeDiagnosis:
        """Diagnose one flow: compare expected vs observed subflow paths."""
        expected = [tuple(p) for p in self.topo.all_shortest_paths(
            flow_id.src_ip, flow_id.dst_ip)]
        agent = self.cluster.agents.get(flow_id.dst_ip)
        observed = []
        if agent is not None:
            observed = [tuple(p) for p in agent.get_paths(flow_id,
                                                          include_live=True)]
        observed_set = set(observed)
        missing = [p for p in expected if p not in observed_set]

        diagnosis = BlackholeDiagnosis(flow_id=flow_id,
                                       expected_paths=expected,
                                       observed_paths=observed,
                                       missing_paths=missing)
        if missing:
            common: Set[str] = set(_switches_only(missing[0]))
            for path in missing[1:]:
                common &= set(_switches_only(path))
            observed_switches: Set[str] = set()
            for path in observed:
                observed_switches.update(_switches_only(path))
            diagnosis.candidate_switches = common
            diagnosis.prioritized_switches = common - observed_switches
            agent_src = self.cluster.agents.get(flow_id.src_ip)
            if agent_src is not None:
                agent_src.alarm(flow_id, BLACKHOLE_SUSPECTED,
                                missing,
                                detail=f"candidates="
                                       f"{sorted(diagnosis.prioritized_switches)}")
        self.diagnoses.append(diagnosis)
        return diagnosis


@dataclass
class BlackholeExperimentResult:
    """Outcome of one Section 4.4 scenario."""

    scenario: str
    diagnosis: BlackholeDiagnosis
    blackholed_interface: Tuple[str, str]
    alarm_raised: bool

    @property
    def culprit_covered(self) -> bool:
        """Whether the blackholed interface's switches are in the candidates."""
        return bool(set(self.blackholed_interface)
                    & self.diagnosis.candidate_switches)


def run_blackhole_experiment(*, scenario: str = "agg-core", k: int = 4,
                             flow_size: int = 100_000, seed: int = 0,
                             background_flows: int = 200,
                             mode: str = "serial",
                             retention=None
                             ) -> BlackholeExperimentResult:
    """Reproduce the Section 4.4 blackhole scenarios.

    Args:
        scenario: ``"agg-core"`` (blackhole on an aggregate-core link) or
            ``"tor-agg"`` (blackhole on a ToR-aggregate link in the source
            pod).
        k: fat-tree arity.
        flow_size: size of the sprayed probe flow (the paper uses 100 KB).
        seed: RNG seed.
        background_flows: number of background web-search flows creating
            noise in the TIBs.
        mode: cluster execution mode; in the ``"process"`` and
            ``"socket"`` worker modes the sender's POOR_PERF alarm is
            raised by the agent-server worker's monitor and travels over
            the wire protocol before the diagnoser sees it.
        retention: optional hot-tier bounds for every TIB (two-tier mode);
            the diagnosis is tier-transparent - queries span the archive,
            so a capped deployment reaches the same verdict.
    """
    if scenario not in ("agg-core", "tor-agg"):
        raise ValueError("scenario must be 'agg-core' or 'tor-agg'")
    topo = FatTreeTopology(k)
    routing = RoutingFabric(topo, policy=POLICY_SPRAY)
    cluster = QueryCluster(topo, mode=mode, retention=retention)
    try:
        return _run_blackhole(cluster, topo, routing, scenario=scenario,
                              flow_size=flow_size, seed=seed,
                              background_flows=background_flows)
    finally:
        cluster.close()


def _run_blackhole(cluster: QueryCluster, topo: FatTreeTopology,
                   routing: RoutingFabric, *, scenario: str, flow_size: int,
                   seed: int, background_flows: int
                   ) -> BlackholeExperimentResult:
    injector = FaultInjector(topo, routing, seed=seed)
    simulator = FlowLevelSimulator(topo, routing, seed=seed + 1)

    src = topo.host_name(0, 0, 0)
    dst = topo.host_name(2, 0, 0)
    src_tor = topo.tor_of(src)
    src_agg = topo.agg_name(0, 0)

    if scenario == "agg-core":
        core = sorted(topo.cores_for_agg(src_agg))[0]
        blackholed = (src_agg, core)
    else:
        blackholed = (src_tor, src_agg)
    injector.blackhole(*blackholed)

    # Background traffic (noise), as in the paper.
    generator = FlowGenerator(topo.hosts, size_cdf=web_search_cdf(),
                              seed=seed + 2)
    background = generator.poisson_all_to_all(duration=1.0, load=0.2,
                                              link_capacity_bps=1e9)
    background = background[:background_flows]
    cluster.ingest_flow_outcomes(simulator.simulate(background))

    # The probe flow, sprayed over all equal-cost paths.
    probe = generator.single_flow(src, dst, size=flow_size)
    outcome = simulator.simulate_flow(probe, policy=POLICY_SPRAY)
    cluster.ingest_flow_outcomes([outcome])

    # The sender's monitor raises the alarm (timeout on the dead subflow);
    # the diagnoser reacts to it.
    diagnoser = BlackholeDiagnoser(cluster, topo)
    cluster.alarm_bus.subscribe(diagnoser.on_alarm, reason=POOR_PERF)
    alarms = cluster.run_monitors(now=1.0)
    alarm_raised = any(a.flow_id == probe.flow_id for a in alarms)
    probe_diagnoses = [d for d in diagnoser.diagnoses
                       if d.flow_id == probe.flow_id]
    diagnosis = (probe_diagnoses[-1] if probe_diagnoses
                 else diagnoser.diagnose(probe.flow_id))
    return BlackholeExperimentResult(scenario=scenario, diagnosis=diagnosis,
                                     blackholed_interface=blackholed,
                                     alarm_raised=alarm_raised)
