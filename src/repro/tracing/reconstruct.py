"""End-to-end path reconstruction from sampled link identifiers.

The destination's edge stack receives a packet carrying a handful of sampled
link IDs (one VLAN tag for a shortest fat-tree path, two for a deviated one,
DSCP plus two tags on VL2).  Before the record enters the Trajectory
Information Base the link IDs must be converted back into the full switch
path ("the module maps link IDs to a series of switches by referring to a
physical topology, and builds an end-to-end path", Section 3.2).

The reconstruction problem: find the shortest path from the source host to
the destination host that traverses the sampled links *in order*.  Because
link identifiers are reused across pods, each sample may resolve to several
candidate cables; the source/destination pods narrow the candidates and the
search picks the combination yielding the minimum-hop consistent path.

The algorithm is a small dynamic program over "waypoint cables":

1. resolve each sample to candidate cables;
2. for every candidate sequence (the product is tiny once pod constraints
   apply), stitch shortest sub-paths source -> cable_1 -> ... -> cable_n ->
   destination, trying both orientations of every cable;
3. return the overall minimum-hop stitched path.

For shortest paths on a fat-tree the result is exact and unique; for deviated
paths the result is guaranteed to be a valid topology path consistent with
every sample, which is the property the debugging applications rely on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import networkx as nx

from repro.topology.graph import Topology
from repro.topology.linkid import LinkIdAssignment

Cable = FrozenSet[str]


class ReconstructionError(ValueError):
    """Raised when no topology path is consistent with the samples.

    This is itself a debugging signal: it means some switch inserted a link
    identifier that cannot appear on any feasible trajectory (Section 2.4).
    """


@dataclass
class ReconstructedPath:
    """Result of a reconstruction.

    Attributes:
        path: node names from source host to destination host inclusive.
        sampled_cables: the cables chosen for each sample, in order.
        exact: ``True`` when the path is the unique shortest consistent path
            (always the case for non-deviated fat-tree paths).
    """

    path: List[str]
    sampled_cables: List[Cable]
    exact: bool

    @property
    def switch_path(self) -> List[str]:
        """The path restricted to switches (drop the end hosts)."""
        return self.path[1:-1]


class PathReconstructor:
    """Reconstructs end-to-end paths from CherryPick samples.

    Args:
        topo: the static topology view held by the edge device.
        assignment: the link ID assignment (shared fabric-wide).
        max_candidate_combinations: safety bound on the candidate product
            explored; reconstruction aborts beyond it (never reached for the
            structured topologies the encoding supports).
    """

    def __init__(self, topo: Topology, assignment: LinkIdAssignment,
                 max_candidate_combinations: int = 4096) -> None:
        self.topo = topo
        self.assignment = assignment
        self.max_candidate_combinations = max_candidate_combinations
        self._sp_cache: Dict[Tuple[str, str], Optional[List[str]]] = {}

    # ----------------------------------------------------------------- public
    def reconstruct(self, src_host: str, dst_host: str,
                    samples: Sequence[int]) -> ReconstructedPath:
        """Reconstruct the path of a packet from ``src_host`` to ``dst_host``.

        Args:
            src_host: source host (from the packet's source address).
            dst_host: destination host (the host performing reconstruction).
            samples: link identifiers in traversal (recording) order.

        Returns:
            The reconstructed path.

        Raises:
            ReconstructionError: when the samples are inconsistent with the
                topology (no feasible path exists).
        """
        if not self.topo.has_node(src_host) or not self.topo.has_node(dst_host):
            raise ReconstructionError("unknown source or destination host")
        if not samples:
            path = self._shortest(src_host, dst_host)
            if path is None:
                raise ReconstructionError(
                    f"no path between {src_host} and {dst_host}")
            return ReconstructedPath(path=path, sampled_cables=[], exact=True)

        candidate_sets = self._resolve_samples(src_host, dst_host, samples)
        combo_count = 1
        for cands in candidate_sets:
            combo_count *= len(cands)
            if combo_count > self.max_candidate_combinations:
                raise ReconstructionError("candidate explosion during "
                                          "reconstruction")

        best: Optional[Tuple[List[str], List[Cable]]] = None
        for combo in itertools.product(*candidate_sets):
            stitched = self._stitch(src_host, dst_host, list(combo))
            if stitched is None:
                continue
            if best is None or len(stitched) < len(best[0]):
                best = (stitched, list(combo))
        if best is None:
            raise ReconstructionError(
                f"samples {list(samples)} are not consistent with the "
                f"topology for {src_host} -> {dst_host}")
        path, cables = best
        exact = combo_count == 1 and len(samples) <= 1
        return ReconstructedPath(path=path, sampled_cables=cables, exact=exact)

    def validate_against_topology(self, path: Sequence[str]) -> bool:
        """Check a reconstructed path against the ground-truth topology."""
        return self.topo.is_valid_path(list(path))

    # --------------------------------------------------------------- internal
    def _resolve_samples(self, src_host: str, dst_host: str,
                         samples: Sequence[int]) -> List[List[Cable]]:
        """Resolve each sample to its candidate cables (pod-constrained)."""
        src_pod = self.topo.node(src_host).pod
        dst_pod = self.topo.node(dst_host).pod
        candidate_sets: List[List[Cable]] = []
        for sample in samples:
            candidates = self.assignment.resolve(
                sample, pods=(src_pod, dst_pod), topo=self.topo)
            if not candidates:
                raise ReconstructionError(
                    f"link id {sample} does not exist in the topology")
            candidate_sets.append(sorted(candidates, key=sorted))
        return candidate_sets

    def _shortest(self, a: str, b: str) -> Optional[List[str]]:
        """Cached shortest path between two nodes (``None`` if disconnected)."""
        key = (a, b)
        if key not in self._sp_cache:
            try:
                self._sp_cache[key] = nx.shortest_path(self.topo.graph, a, b)
            except nx.NetworkXNoPath:
                self._sp_cache[key] = None
        cached = self._sp_cache[key]
        return None if cached is None else list(cached)

    def _stitch(self, src: str, dst: str,
                cables: List[Cable]) -> Optional[List[str]]:
        """Stitch shortest sub-paths through the cables in order.

        Each cable may be traversed in either orientation; the method keeps,
        per reachable cable exit node, the shortest prefix path ending there
        and having traversed all cables so far.
        """
        # frontier: exit node -> best path from src ending at that node.
        frontier: Dict[str, List[str]] = {src: [src]}
        for cbl in cables:
            endpoints = sorted(cbl)
            if len(endpoints) != 2:
                return None
            new_frontier: Dict[str, List[str]] = {}
            for entry, exit_ in (endpoints, list(reversed(endpoints))):
                for node, prefix in frontier.items():
                    to_entry = self._shortest(node, entry)
                    if to_entry is None:
                        continue
                    candidate = prefix + to_entry[1:] + [exit_]
                    if not self.topo.graph.has_edge(entry, exit_):
                        continue
                    if (exit_ not in new_frontier
                            or len(candidate) < len(new_frontier[exit_])):
                        new_frontier[exit_] = candidate
            if not new_frontier:
                return None
            frontier = new_frontier
        best: Optional[List[str]] = None
        for node, prefix in frontier.items():
            tail = self._shortest(node, dst)
            if tail is None:
                continue
            candidate = prefix + tail[1:]
            if best is None or len(candidate) < len(best):
                best = candidate
        return best
