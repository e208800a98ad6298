"""Routing and load balancing for the simulated fabric.

Datacenter fabrics give every pair of hosts many equal-cost paths; which one
a packet takes is decided hop by hop by the load-balancing scheme.  PathDump
is explicitly agnostic to that scheme (Section 2.3, "independent of the
underlying scheme used for load balancing"), and the paper's experiments use
both of the common ones:

* **ECMP** - the egress is chosen by hashing the 5-tuple, so all packets of a
  flow follow one path;
* **packet spraying** [Dixit et al.] - the egress is chosen per packet
  (randomly or round-robin), so a flow's packets spread over all equal-cost
  paths.

This module computes per-switch routing tables (next-hop candidate sets per
destination host) from the topology and implements the selection policies,
including the hooks the evaluation scenarios need:

* a per-switch *custom selector* (used to model the biased ECMP hash of
  Figure 5 and the biased spraying of Figure 6),
* a *failover* path when every shortest-path next hop is unreachable (used in
  the Figure 4 path-conformance experiment).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.network.packet import FlowId, Packet
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.graph import Topology

#: Selection policies.
POLICY_ECMP = "ecmp"
POLICY_SPRAY = "spray"

#: A custom selector receives (packet, candidate next hops) and returns one.
CustomSelector = Callable[[Packet, Sequence[str]], str]


def flow_hash(flow: FlowId, salt: str = "") -> int:
    """Deterministic hash of a 5-tuple (stable across processes).

    Python's builtin ``hash`` is randomised per process, which would make
    experiments irreproducible; use a truncated MD5 instead.
    """
    key = f"{flow.src_ip}|{flow.dst_ip}|{flow.src_port}|{flow.dst_port}|" \
          f"{flow.protocol}|{salt}"
    digest = hashlib.md5(key.encode("utf-8")).hexdigest()
    return int(digest[:8], 16)


@dataclass
class SwitchRoutingTable:
    """Forwarding state of one switch.

    Attributes:
        switch: the switch name.
        next_hops: destination host -> list of equal-cost next-hop nodes.
        failover_hops: destination host -> ordered fallback next hops used
            when every entry of ``next_hops`` is unreachable (link failed).
        policy: ``"ecmp"`` or ``"spray"``.
        custom_selector: optional override of the selection function for this
            switch (evaluation scenarios install these).
        misconfigured_next_hop: destination host -> forced next hop,
            modelling an operator/controller misconfiguration (routing-loop
            experiments).  Takes precedence over everything else.
        spray_counters: per-destination round-robin counters (packet spraying
            with round-robin selection).
    """

    switch: str
    next_hops: Dict[str, List[str]] = field(default_factory=dict)
    failover_hops: Dict[str, List[str]] = field(default_factory=dict)
    policy: str = POLICY_ECMP
    custom_selector: Optional[CustomSelector] = None
    misconfigured_next_hop: Dict[str, str] = field(default_factory=dict)
    spray_counters: Dict[str, int] = field(default_factory=dict)

    def candidates(self, dst_host: str) -> List[str]:
        """Equal-cost next hops toward ``dst_host`` (may be empty)."""
        return self.next_hops.get(dst_host, [])

    def select(self, packet: Packet, dst_host: str, rng: random.Random,
               is_link_usable: Callable[[str, str], bool]) -> Optional[str]:
        """Choose the next hop for ``packet`` toward ``dst_host``.

        Args:
            packet: the packet being forwarded.
            dst_host: its destination host.
            rng: random source (for spraying).
            is_link_usable: predicate telling whether the directed link from
                this switch to a candidate is usable (not failed).  Links
                with silent faults (random drops, blackholes) *are* usable -
                that is what makes those faults hard to debug.

        Returns:
            The chosen next-hop node name, or ``None`` when no usable next
            hop exists (the packet is then dropped).
        """
        # 1. Misconfiguration wins: this is how routing loops are created.
        forced = self.misconfigured_next_hop.get(dst_host)
        if forced is not None:
            return forced

        usable = [n for n in self.candidates(dst_host)
                  if is_link_usable(self.switch, n)]
        if usable:
            if self.custom_selector is not None:
                return self.custom_selector(packet, usable)
            if self.policy == POLICY_SPRAY:
                return self._spray(dst_host, usable, rng)
            return self._ecmp(packet.flow, usable)

        # 2. Failover: every shortest-path next hop is down; detour.
        for hop in self.failover_hops.get(dst_host, []):
            if is_link_usable(self.switch, hop):
                return hop
        return None

    def _ecmp(self, flow: FlowId, usable: Sequence[str]) -> str:
        """Hash-based selection: all packets of a flow take the same hop."""
        return usable[flow_hash(flow, salt=self.switch) % len(usable)]

    def _spray(self, dst_host: str, usable: Sequence[str],
               rng: random.Random) -> str:
        """Per-packet selection; uniform random spraying."""
        return usable[rng.randrange(len(usable))]

    def rule_count(self) -> int:
        """Approximate number of forwarding rules this table represents."""
        return sum(1 for _ in self.next_hops) + len(self.misconfigured_next_hop)


class RoutingFabric:
    """Routing tables for every switch of a topology.

    Args:
        topo: the topology.
        policy: default load-balancing policy for all switches.
    """

    def __init__(self, topo: "Topology", policy: str = POLICY_ECMP) -> None:
        if policy not in (POLICY_ECMP, POLICY_SPRAY):
            raise ValueError(f"unknown policy {policy!r}")
        self.topo = topo
        self.policy = policy
        self.tables: Dict[str, SwitchRoutingTable] = {}
        self._build()

    def _build(self) -> None:
        """Populate next-hop and failover candidate sets for every switch."""
        graph = self.topo.graph
        hosts = self.topo.hosts
        # Distances from every node to every host, computed per host for
        # clarity (topologies used in the experiments are small).
        dist_to_host: Dict[str, Dict[str, int]] = {}
        for host in hosts:
            dist_to_host[host] = nx.single_source_shortest_path_length(
                graph, host)
        for switch in self.topo.switches:
            table = SwitchRoutingTable(switch=switch, policy=self.policy)
            for host in hosts:
                dists = dist_to_host[host]
                if switch not in dists:
                    continue
                my_dist = dists[switch]
                neighbors = self.topo.neighbors(switch)
                nexts = sorted(n for n in neighbors
                               if dists.get(n, float("inf")) == my_dist - 1)
                table.next_hops[host] = nexts
                # Failover: neighbors that still lead to the host but over a
                # longer path, ordered by resulting path length, preferring
                # lower-tier neighbors (ToRs before aggregates before cores),
                # which mirrors the "bounce through a sibling rack" behaviour
                # of simple local failover schemes.  Hosts are never valid
                # detours unless they are the destination.
                tier_rank = {"edge": 0, "aggregate": 1, "core": 2}
                detours = [(dists.get(n, float("inf")),
                            tier_rank.get(self.topo.node(n).role, 3), n)
                           for n in neighbors
                           if n not in nexts and n != host
                           and not self.topo.node(n).is_host
                           and dists.get(n, float("inf")) < float("inf")]
                table.failover_hops[host] = [n for _, _, n in sorted(detours)]
            self.tables[switch] = table

    # ---------------------------------------------------------------- access
    def table(self, switch: str) -> SwitchRoutingTable:
        """Routing table of ``switch``."""
        return self.tables[switch]

    def install_custom_selector(self, switch: str,
                                selector: CustomSelector) -> None:
        """Install a per-switch custom egress selector (scenario hook)."""
        self.tables[switch].custom_selector = selector

    def clear_custom_selectors(self) -> None:
        """Remove all custom selectors."""
        for table in self.tables.values():
            table.custom_selector = None

    def misconfigure(self, switch: str, dst_host: str, next_hop: str) -> None:
        """Force ``switch`` to send traffic for ``dst_host`` to ``next_hop``."""
        if next_hop not in self.topo.neighbors(switch):
            raise ValueError(f"{next_hop} is not adjacent to {switch}")
        self.tables[switch].misconfigured_next_hop[dst_host] = next_hop

    def clear_misconfigurations(self) -> None:
        """Remove every forced next hop."""
        for table in self.tables.values():
            table.misconfigured_next_hop.clear()

    def total_rule_count(self) -> int:
        """Total forwarding rules across the fabric (resource accounting)."""
        return sum(t.rule_count() for t in self.tables.values())

    def equal_cost_paths(self, src_host: str, dst_host: str) -> List[List[str]]:
        """All equal-cost (shortest) host-to-host paths, sorted."""
        return self.topo.all_shortest_paths(src_host, dst_host)
