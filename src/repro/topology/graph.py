"""Datacenter topology model.

PathDump's edge stack keeps a *static view of the datacenter network
topology* (Section 2.2): the ground truth against which extracted packet
trajectories are validated and from which end-to-end paths are reconstructed
out of sampled link IDs.  This module provides that view.

A :class:`Topology` wraps a :class:`networkx.Graph` whose nodes carry a
:class:`NodeInfo` record (role, pod, index) and maintains a
:class:`~repro.network.link.LinkRegistry` with one directed
:class:`~repro.network.link.Link` per direction of every cable.  Concrete
builders live in :mod:`repro.topology.fattree` and :mod:`repro.topology.vl2`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.network.link import Link, LinkRegistry

#: Node roles used across the repository.
ROLE_HOST = "host"
ROLE_EDGE = "edge"          # ToR switches
ROLE_AGGREGATE = "aggregate"
ROLE_CORE = "core"

SWITCH_ROLES = (ROLE_EDGE, ROLE_AGGREGATE, ROLE_CORE)


@dataclass(frozen=True)
class NodeInfo:
    """Static attributes of a topology node.

    Attributes:
        name: unique node name, also used as its address.
        role: one of ``host``, ``edge``, ``aggregate``, ``core``.
        pod: pod index for pod-structured topologies (``None`` for core
            switches and for topologies without pods).
        index: position of the node within its role/pod group.
    """

    name: str
    role: str
    pod: Optional[int] = None
    index: int = 0

    @property
    def is_switch(self) -> bool:
        """``True`` for any non-host node."""
        return self.role in SWITCH_ROLES

    @property
    def is_host(self) -> bool:
        """``True`` for end hosts."""
        return self.role == ROLE_HOST


class Topology:
    """A datacenter topology: typed nodes, directed links and helpers.

    The class is deliberately generic; structured topologies (fat-tree, VL2)
    subclass it to add structure-specific helpers that CherryPick's sampling
    rules rely on (pod membership, uplink enumeration, etc.).
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self.graph = nx.Graph()
        self.links = LinkRegistry()
        self._nodes: Dict[str, NodeInfo] = {}

    # ------------------------------------------------------------ population
    def add_node(self, info: NodeInfo) -> NodeInfo:
        """Add a node; raises on duplicates."""
        if info.name in self._nodes:
            raise ValueError(f"duplicate node {info.name}")
        self._nodes[info.name] = info
        self.graph.add_node(info.name, info=info)
        return info

    def add_host(self, name: str, pod: Optional[int] = None,
                 index: int = 0) -> NodeInfo:
        """Add an end host."""
        return self.add_node(NodeInfo(name, ROLE_HOST, pod, index))

    def add_switch(self, name: str, role: str, pod: Optional[int] = None,
                   index: int = 0) -> NodeInfo:
        """Add a switch with the given role."""
        if role not in SWITCH_ROLES:
            raise ValueError(f"unknown switch role {role!r}")
        return self.add_node(NodeInfo(name, role, pod, index))

    def add_link(self, a: str, b: str, **link_kwargs) -> Tuple[Link, Link]:
        """Connect ``a`` and ``b`` with a cable (two directed links)."""
        for node in (a, b):
            if node not in self._nodes:
                raise KeyError(f"unknown node {node}")
        self.graph.add_edge(a, b)
        return self.links.add_bidirectional(a, b, **link_kwargs)

    # --------------------------------------------------------------- queries
    def node(self, name: str) -> NodeInfo:
        """Return the :class:`NodeInfo` for ``name``."""
        return self._nodes[name]

    def has_node(self, name: str) -> bool:
        """``True`` when ``name`` is a node of the topology."""
        return name in self._nodes

    def nodes(self, role: Optional[str] = None) -> List[str]:
        """Return node names, optionally filtered by role, sorted."""
        if role is None:
            return sorted(self._nodes)
        return sorted(n for n, i in self._nodes.items() if i.role == role)

    @property
    def hosts(self) -> List[str]:
        """All host names, sorted."""
        return self.nodes(ROLE_HOST)

    @property
    def switches(self) -> List[str]:
        """All switch names (any role), sorted."""
        return sorted(n for n, i in self._nodes.items() if i.is_switch)

    def edge_switches(self) -> List[str]:
        """All ToR/edge switch names."""
        return self.nodes(ROLE_EDGE)

    def aggregate_switches(self) -> List[str]:
        """All aggregation switch names."""
        return self.nodes(ROLE_AGGREGATE)

    def core_switches(self) -> List[str]:
        """All core switch names."""
        return self.nodes(ROLE_CORE)

    def neighbors(self, name: str) -> List[str]:
        """Neighbors of ``name``, sorted for determinism."""
        return sorted(self.graph.neighbors(name))

    def switch_neighbors(self, name: str) -> List[str]:
        """Neighboring switches of ``name`` (hosts excluded)."""
        return [n for n in self.neighbors(name) if self.node(n).is_switch]

    def host_neighbors(self, name: str) -> List[str]:
        """Neighboring hosts of ``name``."""
        return [n for n in self.neighbors(name) if self.node(n).is_host]

    def tor_of(self, host: str) -> str:
        """Return the ToR (edge) switch a host is attached to."""
        info = self.node(host)
        if not info.is_host:
            raise ValueError(f"{host} is not a host")
        tors = [n for n in self.neighbors(host)
                if self.node(n).role == ROLE_EDGE]
        if len(tors) != 1:
            raise ValueError(f"host {host} has {len(tors)} ToR switches")
        return tors[0]

    def hosts_under(self, switch: str) -> List[str]:
        """Hosts directly attached to ``switch``."""
        return self.host_neighbors(switch)

    def pod_of(self, name: str) -> Optional[int]:
        """Pod index of ``name`` (``None`` for core or pod-less nodes)."""
        return self.node(name).pod

    # ----------------------------------------------------------------- paths
    def shortest_path(self, src: str, dst: str) -> List[str]:
        """Return one shortest path (list of node names) from src to dst."""
        return nx.shortest_path(self.graph, src, dst)

    def all_shortest_paths(self, src: str, dst: str) -> List[List[str]]:
        """Return every shortest path between ``src`` and ``dst``, sorted."""
        return sorted(nx.all_shortest_paths(self.graph, src, dst))

    def shortest_path_length(self, src: str, dst: str) -> int:
        """Number of hops on the shortest path between two nodes."""
        return nx.shortest_path_length(self.graph, src, dst)

    def path_links(self, path: Sequence[str]) -> List[Tuple[str, str]]:
        """Return the directed links (endpoint pairs) along ``path``."""
        return [(path[i], path[i + 1]) for i in range(len(path) - 1)]

    def is_valid_path(self, path: Sequence[str]) -> bool:
        """Check that ``path`` only uses links present in the topology.

        This is the "ground truth" check PathDump applies to extracted
        trajectories to detect switches inserting bogus identifiers
        (Section 2.4).
        """
        if not path:
            return False
        for node in path:
            if node not in self._nodes:
                return False
        for u, v in self.path_links(path):
            if not self.graph.has_edge(u, v):
                return False
        return True

    # --------------------------------------------------------------- volumes
    def switch_links(self) -> List[Link]:
        """All directed links whose *both* endpoints are switches."""
        return [l for l in self.links
                if self.node(l.src).is_switch and self.node(l.dst).is_switch]

    def describe(self) -> Dict[str, int]:
        """Return a summary of node/link counts, useful for reports."""
        return {
            "hosts": len(self.hosts),
            "edge_switches": len(self.edge_switches()),
            "aggregate_switches": len(self.aggregate_switches()),
            "core_switches": len(self.core_switches()),
            "directed_links": len(self.links),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        d = self.describe()
        return (f"Topology({self.name}: {d['hosts']} hosts, "
                f"{d['edge_switches']}+{d['aggregate_switches']}"
                f"+{d['core_switches']} switches)")
