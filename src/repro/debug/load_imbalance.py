"""Load imbalance diagnosis (Section 4.2, Figures 5 and 6).

Two scenarios from the paper:

* **ECMP with a poor hash** - the aggregation switch of pod 1 pushes every
  flow larger than 1 MB onto one uplink and everything smaller onto the
  other.  The operator observes a high *imbalance rate* between the two
  links (Figure 5b) and uses a multi-level flow-size-distribution query over
  all TIBs to discover that the flow size distributions of the two links are
  "sharply divided around 1 MB" (Figure 5c), revealing the root cause.

* **Packet spraying** - a single large flow is sprayed over the four
  equal-cost paths; comparing the per-path byte counts recorded at the
  destination TIB immediately shows whether spraying is balanced
  (Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import Cdf, imbalance_rate
from repro.core.cluster import (MECHANISM_MULTILEVEL, DistributedQueryResult,
                                QueryCluster)
from repro.core.plan import AGG_SUM, Aggregate, Filter, Plan
from repro.core.query import Q_FLOW_SIZE_DISTRIBUTION, Q_PLAN, Query
from repro.debug.served import complete
from repro.network.packet import FlowId, Packet
from repro.network.routing import POLICY_SPRAY, RoutingFabric
from repro.storage.records import flow_key
from repro.topology.fattree import FatTreeTopology
from repro.transport.flows import FlowLevelSimulator
from repro.workloads.arrivals import FlowGenerator
from repro.workloads.websearch import web_search_cdf

#: The flow-size threshold of the Figure 5 scenario (1 MB).
SIZE_SPLIT_THRESHOLD = 1_000_000


@dataclass
class EcmpImbalanceResult:
    """Everything the Figure 5 benchmark reports.

    Attributes:
        imbalance_rates: per-measurement-interval imbalance rate (percent)
            between the two monitored uplinks (Figure 5b's CDF input).
        link_flow_sizes: link label -> flow sizes (bytes) observed on it,
            reconstructed from the distributed flow-size-distribution query
            (Figure 5c's CDF input).
        query_result: the multi-level query result used for the diagnosis.
        monitored_links: the two (switch, core) uplinks being compared.
        flows_simulated: number of generated flows.
    """

    imbalance_rates: List[float] = field(default_factory=list)
    link_flow_sizes: Dict[str, List[int]] = field(default_factory=dict)
    query_result: Optional[DistributedQueryResult] = None
    monitored_links: List[Tuple[str, str]] = field(default_factory=list)
    flows_simulated: int = 0

    def imbalance_cdf(self) -> Cdf:
        """The Figure 5(b) CDF."""
        return Cdf(self.imbalance_rates)

    def split_quality(self) -> float:
        """Fraction of flows landing on the link their size class predicts.

        Close to 1.0 confirms the "sharply divided around 1 MB" diagnosis.
        """
        total = 0
        correct = 0
        if len(self.link_flow_sizes) != 2:
            return 0.0
        # Identify which link carries the large flows by mean size.
        means = {label: (sum(sizes) / len(sizes) if sizes else 0.0)
                 for label, sizes in self.link_flow_sizes.items()}
        big_link = max(means, key=means.get)
        small_link = min(means, key=means.get)
        for label, sizes in self.link_flow_sizes.items():
            for size in sizes:
                total += 1
                if size >= SIZE_SPLIT_THRESHOLD and label == big_link:
                    correct += 1
                elif size < SIZE_SPLIT_THRESHOLD and label == small_link:
                    correct += 1
        return correct / total if total else 0.0


def run_ecmp_imbalance_experiment(*, k: int = 4, flow_count: int = 2000,
                                  duration_s: float = 600.0,
                                  interval_s: float = 5.0, seed: int = 0,
                                  binsize: int = 10_000
                                  ) -> EcmpImbalanceResult:
    """Reproduce the ECMP load-imbalance scenario of Figure 5.

    Web-search flows from pod 1 to the other pods; the pod-1 aggregation
    switch ``SAgg`` deterministically maps flows >= 1 MB to uplink 1 and the
    rest to uplink 2.  The per-interval byte loads of the two uplinks give
    the imbalance-rate CDF; a multi-level flow-size-distribution query over
    every TIB gives the per-link flow-size CDFs.
    """
    topo = FatTreeTopology(k)
    routing = RoutingFabric(topo)
    cluster = QueryCluster(topo)

    # Traffic: pod 1 -> all other pods (the paper's scenario).
    src_hosts = topo.hosts_in_pod(1)
    dst_hosts = [h for h in topo.hosts if topo.node(h).pod != 1]
    generator = FlowGenerator(topo.hosts, size_cdf=web_search_cdf(),
                              seed=seed)
    flows = generator.pod_to_other_pods(src_hosts, dst_hosts, flow_count,
                                        duration_s)
    flow_sizes = {flow.flow_id: flow.size for flow in flows}

    # The poorly load-balancing aggregation switch and its two core uplinks.
    sagg = topo.agg_name(1, 0)
    uplinks = sorted(topo.cores_for_agg(sagg))[:2]
    link_big, link_small = (sagg, uplinks[0]), (sagg, uplinks[1])

    def size_biased_selector(packet: Packet,
                             candidates: Sequence[str]) -> str:
        """Flows >= 1 MB to uplink 0, smaller flows to uplink 1."""
        size = flow_sizes.get(packet.flow, 0)
        preferred = uplinks[0] if size >= SIZE_SPLIT_THRESHOLD else uplinks[1]
        if preferred in candidates:
            return preferred
        return sorted(candidates)[0]

    routing.install_custom_selector(sagg, size_biased_selector)
    # Force traffic from pod-1 ToRs through SAgg so the biased switch sees it.
    for tor in topo.tors_in_pod(1):
        routing.install_custom_selector(
            tor, lambda packet, candidates, sagg=sagg: (
                sagg if sagg in candidates else sorted(candidates)[0]))

    simulator = FlowLevelSimulator(topo, routing, seed=seed + 1)
    outcomes = simulator.simulate(flows)
    cluster.ingest_flow_outcomes(outcomes)

    result = EcmpImbalanceResult(monitored_links=[link_big, link_small],
                                 flows_simulated=len(flows))

    # Figure 5(b): per-interval imbalance rate between the two uplinks.
    intervals = int(duration_s / interval_s)
    loads = {link_big: [0.0] * intervals, link_small: [0.0] * intervals}
    for outcome, flow in zip(outcomes, flows):
        bucket = min(intervals - 1, int(flow.start_time / interval_s))
        for delivery in outcome.deliveries:
            for link in (link_big, link_small):
                if _path_uses(delivery.path, link):
                    loads[link][bucket] += delivery.bytes_delivered
    for index in range(intervals):
        pair = [loads[link_big][index], loads[link_small][index]]
        if sum(pair) == 0:
            continue
        result.imbalance_rates.append(imbalance_rate(pair))

    # Figure 5(c): multi-level flow-size-distribution query over all TIBs.
    query = Query(Q_FLOW_SIZE_DISTRIBUTION,
                  params={"links": [link_big, link_small],
                          "binsize": binsize})
    query_result = cluster.execute(query, mechanism=MECHANISM_MULTILEVEL)
    result.query_result = query_result
    sizes: Dict[str, List[int]] = {}
    for (label, bucket), count in query_result.payload.items():
        sizes.setdefault(label, []).extend(
            [int((bucket + 0.5) * binsize)] * count)
    result.link_flow_sizes = sizes
    return result


def _path_uses(path: Sequence[str], link: Tuple[str, str]) -> bool:
    """Whether a node path traverses the (undirected) link."""
    pairs = set(zip(path, path[1:]))
    return link in pairs or (link[1], link[0]) in pairs


@dataclass
class SprayingResult:
    """Per-path traffic split of a sprayed flow (Figure 6)."""

    per_path_bytes: Dict[Tuple[str, ...], int] = field(default_factory=dict)
    balanced: bool = True
    imbalance_rate_pct: float = 0.0
    flow_size: int = 0

    def sorted_series(self) -> List[Tuple[str, int]]:
        """(path label, bytes) pairs sorted by path label."""
        return [("->".join(p[1:-1]), b)
                for p, b in sorted(self.per_path_bytes.items())]


def run_packet_spraying_experiment(*, k: int = 4, flow_size: int = 100_000_000,
                                   imbalanced: bool = False, seed: int = 0,
                                   bias: float = 0.55) -> SprayingResult:
    """Reproduce the packet-spraying scenario of Figure 6.

    A single ``flow_size`` flow is sprayed across the equal-cost paths
    between two hosts in different pods.  In the imbalanced case the spraying
    at the source ToR is biased so one path receives ``bias`` of the packets.
    The per-path byte counts are read back from the destination TIB, exactly
    as the operator would.
    """
    topo = FatTreeTopology(k)
    routing = RoutingFabric(topo, policy=POLICY_SPRAY)
    cluster = QueryCluster(topo)

    src = topo.host_name(0, 0, 0)
    dst = topo.host_name(1, 1, 0)
    generator = FlowGenerator(topo.hosts, seed=seed)
    spec = generator.single_flow(src, dst, size=flow_size)

    simulator = FlowLevelSimulator(topo, routing, seed=seed + 1)
    weights = None
    if imbalanced:
        # Deliberately steer `bias` of the packets onto one path (the paper
        # configures its switches to overload "Path 3").
        path_count = len(simulator.equal_cost_paths(src, dst))
        remaining = (1.0 - bias) / max(1, path_count - 1)
        weights = [remaining] * path_count
        weights[min(2, path_count - 1)] = bias
    outcome = simulator.simulate_flow(spec, policy=POLICY_SPRAY,
                                      spray_weights=weights)
    cluster.ingest_flow_outcomes([outcome])

    per_path = per_path_bytes(cluster, dst, spec.flow_id)
    values = list(per_path.values())
    rate = imbalance_rate(values) if values else 0.0
    return SprayingResult(per_path_bytes=per_path,
                          balanced=rate < 25.0,
                          imbalance_rate_pct=rate,
                          flow_size=flow_size)


def per_path_bytes(cluster: QueryCluster, host: str,
                   flow_id: FlowId) -> Dict[Tuple[str, ...], int]:
    """Bytes per path of one flow, read back from ``host``'s TIB (the
    flow-indexed records, not a full getFlows scan)."""
    plan = Plan(ops=(Filter(flow_keys=(flow_key(flow_id),)),
                     Aggregate(func=AGG_SUM, fields=("bytes",), by=("path",))))
    return complete(cluster.execute(Query(Q_PLAN, {"plan": plan}), [host]))
