"""k-ary fat-tree topology builder.

The fat-tree is the topology used for every testbed experiment in the paper
(a 4-ary fat-tree for the debugging applications, and the CherryPick encoding
supports fat-trees up to 72-port switches).  The standard construction for an
even ``k``:

* ``k`` pods, each with ``k/2`` edge (ToR) switches and ``k/2`` aggregation
  switches forming a complete bipartite graph inside the pod;
* ``(k/2)^2`` core switches; core switch ``(g, i)`` - group ``g`` in
  ``0..k/2-1``, index ``i`` in ``0..k/2-1`` - connects to the aggregation
  switch with index ``g`` in every pod;
* each edge switch hosts ``k/2`` servers.

Naming scheme (stable and parseable, used throughout tests and examples):

* hosts:      ``h-<pod>-<edge>-<i>``
* edge:       ``tor-<pod>-<i>``
* aggregate:  ``agg-<pod>-<i>``
* core:       ``core-<g>-<i>``
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.topology.graph import (ROLE_AGGREGATE, ROLE_CORE, ROLE_EDGE,
                                  Topology)


class FatTreeTopology(Topology):
    """A ``k``-ary fat-tree with ``k^3/4`` hosts.

    Args:
        k: switch port count; must be even and >= 2.
        hosts_per_edge: number of servers attached to each ToR; defaults to
            the canonical ``k/2``.  The query-scalability experiments use a
            reduced host count to keep simulation tractable while preserving
            the switching structure.
    """

    def __init__(self, k: int = 4, hosts_per_edge: Optional[int] = None,
                 name: Optional[str] = None) -> None:
        if k < 2 or k % 2 != 0:
            raise ValueError("fat-tree arity k must be an even integer >= 2")
        super().__init__(name or f"fattree-k{k}")
        self.k = k
        self.half = k // 2
        self.hosts_per_edge = self.half if hosts_per_edge is None else hosts_per_edge
        if self.hosts_per_edge < 1:
            raise ValueError("hosts_per_edge must be >= 1")
        self._build()

    # ---------------------------------------------------------------- build
    def _build(self) -> None:
        k, half = self.k, self.half
        # Core switches: (k/2)^2, organised in k/2 groups of k/2.
        for g in range(half):
            for i in range(half):
                self.add_switch(self.core_name(g, i), ROLE_CORE,
                                pod=None, index=g * half + i)
        # Pods.
        for pod in range(k):
            for a in range(half):
                self.add_switch(self.agg_name(pod, a), ROLE_AGGREGATE,
                                pod=pod, index=a)
            for e in range(half):
                self.add_switch(self.tor_name(pod, e), ROLE_EDGE,
                                pod=pod, index=e)
            # Intra-pod complete bipartite edge<->aggregate mesh.
            for e in range(half):
                for a in range(half):
                    self.add_link(self.tor_name(pod, e), self.agg_name(pod, a))
            # Hosts.
            for e in range(half):
                for h in range(self.hosts_per_edge):
                    host = self.host_name(pod, e, h)
                    self.add_host(host, pod=pod, index=h)
                    self.add_link(host, self.tor_name(pod, e))
        # Aggregation <-> core: aggregation switch a of every pod connects to
        # all core switches in group a.
        for pod in range(k):
            for a in range(half):
                for i in range(half):
                    self.add_link(self.agg_name(pod, a), self.core_name(a, i))

    # --------------------------------------------------------------- naming
    @staticmethod
    def host_name(pod: int, edge: int, index: int) -> str:
        """Canonical host name."""
        return f"h-{pod}-{edge}-{index}"

    @staticmethod
    def tor_name(pod: int, index: int) -> str:
        """Canonical ToR (edge) switch name."""
        return f"tor-{pod}-{index}"

    @staticmethod
    def agg_name(pod: int, index: int) -> str:
        """Canonical aggregation switch name."""
        return f"agg-{pod}-{index}"

    @staticmethod
    def core_name(group: int, index: int) -> str:
        """Canonical core switch name."""
        return f"core-{group}-{index}"

    # -------------------------------------------------------------- helpers
    def pods(self) -> List[int]:
        """All pod indices."""
        return list(range(self.k))

    def hosts_in_pod(self, pod: int) -> List[str]:
        """Hosts located in ``pod``."""
        return [h for h in self.hosts if self.node(h).pod == pod]

    def tors_in_pod(self, pod: int) -> List[str]:
        """ToR switches of ``pod``."""
        return [s for s in self.edge_switches() if self.node(s).pod == pod]

    def cores_for_agg(self, agg: str) -> List[str]:
        """Core switches adjacent to aggregation switch ``agg``."""
        return [n for n in self.neighbors(agg)
                if self.node(n).role == ROLE_CORE]

    def agg_in_pod_for_core(self, core: str, pod: int) -> str:
        """The unique aggregation switch of ``pod`` adjacent to ``core``.

        This uniqueness ("there is only a single route to destination from
        the core switch") is the structural property CherryPick exploits to
        reconstruct 4-hop paths from a single sampled aggregate-core link.
        """
        candidates = [n for n in self.neighbors(core)
                      if self.node(n).role == ROLE_AGGREGATE
                      and self.node(n).pod == pod]
        if len(candidates) != 1:
            raise ValueError(
                f"expected exactly one aggregation switch of pod {pod} "
                f"adjacent to {core}, found {candidates}")
        return candidates[0]

    def expected_shortest_hops(self, src_host: str, dst_host: str) -> int:
        """Number of switch-to-switch style hops on the shortest path.

        Same ToR: 2 (host-tor-host is 2 links); same pod: 4; across pods: 6
        links which the paper describes as a "4-hop" switch path (ToR, agg,
        core, agg, ToR traversal).  We return the number of *links*.
        """
        src_tor = self.tor_of(src_host)
        dst_tor = self.tor_of(dst_host)
        if src_tor == dst_tor:
            return 2
        if self.node(src_tor).pod == self.node(dst_tor).pod:
            return 4
        return 6

    def describe(self) -> Dict[str, int]:
        """Summary including the arity."""
        info = super().describe()
        info["k"] = self.k
        return info
