"""TCP performance anomaly diagnosis: outcast and incast (Section 4.6,
Figure 10).

The scenario: 15 TCP senders transmit to a single receiver for 10 seconds.
One sender (f1) is close to the receiver and its packets arrive at the
receiver's ToR on their own input port; the other 14 flows arrive bunched on
the uplink port(s).  Taildrop "port blackout" starves f1 - the *TCP outcast*
problem - even though fair sharing should, if anything, favour it.

PathDump's diagnosis is entirely edge-based:

1. the senders' monitors raise POOR_PERF alerts (every 200 ms check);
2. once the controller sees at least 10 alerts from different sources to the
   same destination, it asks that destination's agent for per-sender byte
   counts and paths;
3. it reconstructs per-sender throughput (Figure 10a) and the path tree with
   per-input-port flow counts (Figure 10b);
4. the signature "the flow entering alone on one port is the slowest by a
   large margin" identifies the outcast; many flows all slow together with no
   port asymmetry is classified as incast.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.stats import jains_fairness
from repro.core.alarms import POOR_PERF, Alarm
from repro.core.cluster import QueryCluster
from repro.core.plan import Plan, Project
from repro.core.query import Q_PLAN, Query
from repro.debug.served import complete
from repro.network.packet import FlowId
from repro.storage.records import PathFlowRecord, parse_flow_key
from repro.topology.fattree import FatTreeTopology
from repro.transport.contention import (ContendingFlow, ContentionResult,
                                        simulate_incast,
                                        simulate_port_blackout)
from repro.workloads.arrivals import FlowGenerator

#: Minimum number of distinct-source alerts towards one destination before
#: the diagnosis application starts working (the paper uses 10).
MIN_ALERTS_FOR_DIAGNOSIS = 10

#: The rows a diagnosis reads off the receiver's TIB.
_LISTING = Query(Q_PLAN, {"plan": Plan(ops=(
    Project(("flow", "path", "stime", "etime", "bytes")),))})

#: Verdicts.
VERDICT_OUTCAST = "outcast"
VERDICT_INCAST = "incast"
VERDICT_UNKNOWN = "unknown"


@dataclass
class PathTreeNode:
    """Per-input-branch flow count at the contention switch (Figure 10b)."""

    branch: str
    flow_count: int
    flows: List[FlowId] = field(default_factory=list)


@dataclass
class AnomalyDiagnosis:
    """Result of one outcast/incast diagnosis.

    Attributes:
        receiver: the common destination host.
        verdict: ``outcast``, ``incast`` or ``unknown``.
        per_sender_throughput_bps: sender host -> achieved throughput.
        victim: the starved sender (for outcast).
        path_tree: per-branch flow counts at the receiver's ToR.
        fairness_index: Jain's fairness index over the throughputs.
        alerts_seen: number of POOR_PERF alerts that triggered the diagnosis.
    """

    receiver: str
    verdict: str
    per_sender_throughput_bps: Dict[str, float] = field(default_factory=dict)
    victim: Optional[str] = None
    path_tree: List[PathTreeNode] = field(default_factory=list)
    fairness_index: float = 1.0
    alerts_seen: int = 0


class TcpAnomalyDiagnoser:
    """Controller application diagnosing outcast/incast from alerts + TIB."""

    def __init__(self, cluster: QueryCluster,
                 min_alerts: int = MIN_ALERTS_FOR_DIAGNOSIS) -> None:
        self.cluster = cluster
        self.min_alerts = min_alerts
        self._alerts_by_destination: Dict[str, Set[str]] = defaultdict(set)
        self.diagnoses: List[AnomalyDiagnosis] = []

    # ------------------------------------------------------------ event path
    def on_alarm(self, alarm: Alarm) -> Optional[AnomalyDiagnosis]:
        """Collect POOR_PERF alerts; diagnose once enough sources complain."""
        if alarm.reason != POOR_PERF:
            return None
        dst = alarm.flow_id.dst_ip
        self._alerts_by_destination[dst].add(alarm.flow_id.src_ip)
        if len(self._alerts_by_destination[dst]) < self.min_alerts:
            return None
        diagnosis = self.diagnose(dst)
        self.diagnoses.append(diagnosis)
        return diagnosis

    # ------------------------------------------------------------- diagnosis
    def diagnose(self, receiver: str,
                 duration_s: float = 10.0) -> AnomalyDiagnosis:
        """Diagnose the anomaly at ``receiver`` from its TIB contents."""
        throughput: Dict[str, float] = {}
        branch_flows: Dict[str, List[FlowId]] = defaultdict(list)
        # One listing of the receiver's TIB; the engine keeps exactly one
        # record per (flow, path), so each row already carries the pair's
        # getCount/getDuration aggregates.
        rows = complete(self.cluster.execute(_LISTING, [receiver]))
        for key, path, stime, etime, nbytes in rows:
            flow_id = parse_flow_key(key)
            if flow_id.dst_ip != receiver:
                continue
            duration = (etime - stime) or duration_s
            throughput[flow_id.src_ip] = max(
                throughput.get(flow_id.src_ip, 0.0),
                nbytes * 8.0 / max(duration, 1e-6))
            # The branch is the node the packet came from when it reached the
            # receiver's ToR: a host for rack-local senders, an aggregate
            # switch for remote ones.
            if len(path) >= 3:
                branch = path[-3]
            else:
                branch = path[0]
            branch_flows[branch].append(flow_id)

        tree = [PathTreeNode(branch=branch, flow_count=len(flows),
                             flows=flows)
                for branch, flows in sorted(branch_flows.items())]
        alerts = len(self._alerts_by_destination.get(receiver, ()))
        diagnosis = AnomalyDiagnosis(
            receiver=receiver, verdict=VERDICT_UNKNOWN,
            per_sender_throughput_bps=throughput, path_tree=tree,
            fairness_index=(jains_fairness(list(throughput.values()))
                            if throughput else 1.0),
            alerts_seen=alerts)
        if not throughput:
            return diagnosis

        victim = min(throughput, key=throughput.get)
        others = [v for s, v in throughput.items() if s != victim]
        victim_rate = throughput[victim]
        mean_others = sum(others) / len(others) if others else victim_rate

        # Outcast signature: the slowest sender is far below the rest AND it
        # is the one whose packets enter the contention switch on the
        # minority input branch.
        minority_branch = min(tree, key=lambda n: n.flow_count) if tree else None
        victim_on_minority = bool(
            minority_branch
            and any(f.src_ip == victim for f in minority_branch.flows))
        if others and victim_rate < 0.5 * mean_others and victim_on_minority:
            diagnosis.verdict = VERDICT_OUTCAST
            diagnosis.victim = victim
        elif diagnosis.fairness_index > 0.8 and len(throughput) >= 8:
            diagnosis.verdict = VERDICT_INCAST
        return diagnosis


@dataclass
class OutcastExperimentResult:
    """Outcome of the Figure 10 experiment."""

    diagnosis: AnomalyDiagnosis
    throughputs_mbps: Dict[str, float]
    expected_victim: str
    detection_correct: bool


def run_outcast_experiment(*, k: int = 4, senders: int = 15,
                           duration_s: float = 10.0, seed: int = 0,
                           capacity_bps: float = 1e9, mode: str = "serial",
                           retention=None
                           ) -> OutcastExperimentResult:
    """Reproduce the TCP outcast scenario of Figure 10.

    One rack-local sender (arriving on its own input port of the receiver's
    ToR) competes with ``senders - 1`` remote senders arriving via the ToR
    uplinks.  The port-blackout contention model produces per-flow
    throughputs and retransmission streaks; TIB records and monitor alerts
    are derived from them, and the diagnosis application runs exactly as it
    would in production - over the alarm bus in every cluster ``mode``
    (in the ``process`` and ``socket`` worker modes the monitors run
    host-side in the agent-server workers, the alerts arrive over the wire
    and the diagnosis reads the receiver's TIB from its worker).
    """
    topo = FatTreeTopology(k)
    cluster = QueryCluster(topo, mode=mode, retention=retention)
    try:
        return _run_outcast(cluster, topo, senders=senders,
                            duration_s=duration_s, seed=seed,
                            capacity_bps=capacity_bps)
    finally:
        cluster.close()


def _ingest(cluster: QueryCluster, receiver: str,
            contending: List[ContendingFlow], results: List[ContentionResult],
            duration_s: float) -> None:
    """Feed the contention outcome into the receiver's TIB and the
    senders' monitors."""
    for flow, result in zip(contending, results):
        cluster.agent(receiver).ingest_path_record(PathFlowRecord(
            flow_id=flow.flow_id, path=flow.path, stime=0.0,
            etime=duration_s, bytes=result.bytes_delivered,
            pkts=max(1, result.bytes_delivered // 1460)))
        cluster.agent(flow.flow_id.src_ip).monitor.observe_flow(
            flow.flow_id, retransmissions=result.retransmissions,
            consecutive=result.max_consecutive_retransmissions,
            bytes_sent=result.bytes_delivered, when=duration_s)


def _run_outcast(cluster: QueryCluster, topo: FatTreeTopology, *,
                 senders: int, duration_s: float, seed: int,
                 capacity_bps: float) -> OutcastExperimentResult:
    receiver = topo.host_name(2, 0, 0)
    local_sender = topo.host_name(2, 0, 1)
    remote_candidates = [h for h in topo.hosts
                         if topo.node(h).pod != 2]
    remote_senders = remote_candidates[:senders - 1]

    generator = FlowGenerator(topo.hosts, seed=seed)
    specs = generator.many_to_one([local_sender] + remote_senders, receiver,
                                  size=50_000_000)

    contending: List[ContendingFlow] = []
    for spec in specs:
        path = tuple(topo.shortest_path(spec.src, receiver))
        group = "local-port" if spec.src == local_sender else "uplink-port"
        contending.append(ContendingFlow(flow_id=spec.flow_id,
                                         input_port_group=group,
                                         path=path))
    results = simulate_port_blackout(contending, capacity_bps, duration_s,
                                     seed=seed)

    _ingest(cluster, receiver, contending, results, duration_s)
    diagnoser = TcpAnomalyDiagnoser(cluster)
    cluster.alarm_bus.subscribe(diagnoser.on_alarm, reason=POOR_PERF)
    # Every sender whose flow keeps retransmitting raises an alert during the
    # periodic check (threshold 1 retransmission streak, as in the paper's
    # "repeatedly retransmit" query).  In the worker modes this is a scatter
    # of monitor-tick frames; the alerts come back over the wire.
    cluster.run_monitors(duration_s, threshold=1)

    if diagnoser.diagnoses:
        diagnosis = diagnoser.diagnoses[-1]
    else:
        diagnosis = diagnoser.diagnose(receiver, duration_s=duration_s)
    throughputs = {sender: rate / 1e6 for sender, rate in
                   diagnosis.per_sender_throughput_bps.items()}
    correct = (diagnosis.verdict == VERDICT_OUTCAST
               and diagnosis.victim == local_sender)
    return OutcastExperimentResult(diagnosis=diagnosis,
                                   throughputs_mbps=throughputs,
                                   expected_victim=local_sender,
                                   detection_correct=correct)


def run_incast_experiment(*, k: int = 4, senders: int = 20,
                          duration_s: float = 5.0, seed: int = 0,
                          capacity_bps: float = 1e9,
                          mode: str = "serial") -> AnomalyDiagnosis:
    """A many-to-one incast scenario classified by the same diagnoser."""
    topo = FatTreeTopology(k)
    cluster = QueryCluster(topo, mode=mode)
    try:
        receiver = topo.host_name(0, 0, 0)
        sender_hosts = [h for h in topo.hosts if h != receiver][:senders]
        generator = FlowGenerator(topo.hosts, seed=seed)
        specs = generator.many_to_one(sender_hosts, receiver, size=1_000_000)

        contending = [ContendingFlow(flow_id=s.flow_id,
                                     input_port_group="uplink",
                                     path=tuple(topo.shortest_path(s.src,
                                                                   receiver)))
                      for s in specs]
        results = simulate_incast(contending, capacity_bps, duration_s,
                                  seed=seed)
        _ingest(cluster, receiver, contending, results, duration_s)
        diagnoser = TcpAnomalyDiagnoser(cluster)
        return diagnoser.diagnose(receiver, duration_s=duration_s)
    finally:
        cluster.close()
