"""Traffic measurement applications (Section 2.3 and Table 2).

PathDump's TIBs double as a distributed measurement substrate.  This module
implements the measurement queries the paper lists:

* **top-k flows** across any subset of end hosts (the Section 2.3 example and
  the Figure 12 workload);
* **heavy hitters** - flows exceeding a byte threshold;
* **traffic matrix** between ToR switch pairs (Table 2, "traffic volume
  between all switch pairs");
* **congested link diagnosis** - the flows traversing a given link, ranked by
  bytes, which is what an operator needs to decide what to re-route;
* **DDoS diagnosis** - per-destination fan-in (number of distinct sources and
  total bytes), flagging destinations with an abnormally large fan-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.cluster import (MECHANISM_MULTILEVEL, DistributedQueryResult,
                                QueryCluster)
from repro.core.plan import AGG_SUM, Aggregate, Filter, Plan
from repro.core.query import Q_PLAN, Q_TOP_K_FLOWS, Q_TRAFFIC_MATRIX, Query
from repro.core.tib import LinkId, TimeRange, normalise_time_range
from repro.debug.served import complete
from repro.network.packet import FlowId
from repro.storage.records import parse_flow_key
from repro.workloads.traffic_matrix import TrafficMatrix


@dataclass
class TopFlow:
    """One entry of a top-k / heavy-hitter report."""

    flow_id: FlowId
    bytes: int


def top_k_flows(cluster: QueryCluster, k: int = 1000,
                hosts: Optional[Sequence[str]] = None,
                link: Optional[LinkId] = None,
                time_range: Optional[TimeRange] = None,
                mechanism: str = MECHANISM_MULTILEVEL
                ) -> Tuple[List[TopFlow], DistributedQueryResult]:
    """The global top-k flows by byte count across the chosen hosts.

    Returns both the decoded flow list and the raw distributed-query result
    (whose response time / traffic figures the Figure 12 benchmark reports).
    """
    query = Query(Q_TOP_K_FLOWS, params={"k": k, "link": link,
                                         "time_range": time_range})
    result = cluster.execute(query, hosts, mechanism)
    flows = [TopFlow(flow_id=parse_flow_key(key), bytes=nbytes)
             for nbytes, key in result.payload]
    return flows, result


def heavy_hitters(cluster: QueryCluster, threshold_bytes: int,
                  hosts: Optional[Sequence[str]] = None,
                  time_range: Optional[TimeRange] = None) -> List[TopFlow]:
    """Flows larger than ``threshold_bytes`` anywhere in the cluster."""
    totals = complete(cluster.execute(_flow_bytes(time_range), hosts))
    return sorted(
        (TopFlow(flow_id=parse_flow_key(key), bytes=nbytes)
         for key, nbytes in totals.items() if nbytes >= threshold_bytes),
        key=lambda t: -t.bytes)


def _flow_bytes(time_range: Optional[TimeRange]) -> Query:
    """Bytes per flow key of the records overlapping ``time_range`` (a
    reversed range raises ``ValueError`` here, not as a partial read)."""
    start, end = normalise_time_range(time_range)
    return Query(Q_PLAN, {"plan": Plan(ops=(
        Filter(start=start, end=end),
        Aggregate(func=AGG_SUM, fields=("bytes",), by=("flow",))))})


def traffic_matrix(cluster: QueryCluster,
                   hosts: Optional[Sequence[str]] = None,
                   time_range: Optional[TimeRange] = None,
                   mechanism: str = MECHANISM_MULTILEVEL
                   ) -> Tuple[TrafficMatrix, DistributedQueryResult]:
    """Rack-to-rack traffic matrix assembled from the distributed TIBs."""
    query = Query(Q_TRAFFIC_MATRIX, params={"time_range": time_range})
    result = cluster.execute(query, hosts, mechanism)
    matrix = TrafficMatrix()
    for (src_tor, dst_tor), nbytes in result.payload.items():
        matrix.add(src_tor, dst_tor, nbytes)
    return matrix, result


def congested_link_flows(cluster: QueryCluster, link: LinkId,
                         hosts: Optional[Sequence[str]] = None,
                         time_range: Optional[TimeRange] = None,
                         top: int = 20) -> List[TopFlow]:
    """Flows traversing ``link`` ranked by bytes (congested-link diagnosis).

    An operator uses this to decide which flows to re-route away from a hot
    link (Table 2, "Find flows using a congested link").
    """
    normalise_time_range(time_range)  # a reversed range: ValueError
    flows, result = top_k_flows(cluster, k=top, hosts=hosts, link=link,
                                time_range=time_range)
    complete(result)
    return flows


@dataclass
class FanInReport:
    """Per-destination fan-in used by the DDoS diagnosis application."""

    destination: str
    distinct_sources: int
    total_bytes: int
    suspicious: bool


def ddos_fan_in(cluster: QueryCluster, source_threshold: int = 10,
                hosts: Optional[Sequence[str]] = None,
                time_range: Optional[TimeRange] = None) -> List[FanInReport]:
    """Per-destination distinct-source counts (DDoS diagnosis, Table 2).

    Only what a destination itself recorded counts towards its fan-in, so
    each destination is asked alone.
    """
    targets = hosts if hosts is not None else cluster.hosts
    query = _flow_bytes(time_range)
    reports: List[FanInReport] = []
    for host in targets:
        sources = set()
        total = 0
        for key, nbytes in complete(cluster.execute(query, [host])).items():
            flow_id = parse_flow_key(key)
            if flow_id.dst_ip != host:
                continue
            sources.add(flow_id.src_ip)
            total += nbytes
        reports.append(FanInReport(
            destination=host, distinct_sources=len(sources),
            total_bytes=total,
            suspicious=len(sources) >= source_threshold))
    return sorted(reports, key=lambda r: -r.distinct_sources)
