"""Traffic-matrix helpers.

One of the measurement applications the paper lists (Table 2, "Get traffic
volume between all switch pairs") is traffic-matrix construction from TIB
data.  This module provides the matrix data structure used both by the
measurement application (:mod:`repro.debug.measurement`) and by the workload
generator when a scenario needs a prescribed communication pattern.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


@dataclass
class TrafficMatrix:
    """A (source, destination) -> bytes matrix over arbitrary node keys.

    Keys are usually host names (host-level matrix) or ToR switch names
    (rack-level matrix, the paper's "traffic volume between all switch
    pairs").
    """

    bytes_between: Dict[Tuple[str, str], int] = field(
        default_factory=lambda: defaultdict(int))

    def add(self, src: str, dst: str, nbytes: int) -> None:
        """Accumulate ``nbytes`` of traffic from ``src`` to ``dst``."""
        if nbytes < 0:
            raise ValueError("traffic volume cannot be negative")
        self.bytes_between[(src, dst)] += nbytes

    def get(self, src: str, dst: str) -> int:
        """Bytes sent from ``src`` to ``dst``."""
        return self.bytes_between.get((src, dst), 0)

    def total_bytes(self) -> int:
        """Total bytes across all pairs."""
        return sum(self.bytes_between.values())

    def sources(self) -> List[str]:
        """All source keys, sorted."""
        return sorted({s for s, _ in self.bytes_between})

    def destinations(self) -> List[str]:
        """All destination keys, sorted."""
        return sorted({d for _, d in self.bytes_between})

    def row(self, src: str) -> Dict[str, int]:
        """Traffic from ``src`` to every destination."""
        return {d: v for (s, d), v in self.bytes_between.items() if s == src}

    def column(self, dst: str) -> Dict[str, int]:
        """Traffic from every source to ``dst``."""
        return {s: v for (s, d), v in self.bytes_between.items() if d == dst}

    def merge(self, other: "TrafficMatrix") -> "TrafficMatrix":
        """Return a new matrix combining this one with ``other``.

        Used by the controller when aggregating per-host matrices collected
        from the distributed TIBs.
        """
        merged = TrafficMatrix()
        for (s, d), v in self.bytes_between.items():
            merged.add(s, d, v)
        for (s, d), v in other.bytes_between.items():
            merged.add(s, d, v)
        return merged

    def aggregate_by(self, key_of: Mapping[str, str]) -> "TrafficMatrix":
        """Re-aggregate the matrix under a coarser key (e.g. host -> ToR)."""
        coarse = TrafficMatrix()
        for (s, d), v in self.bytes_between.items():
            coarse.add(key_of.get(s, s), key_of.get(d, d), v)
        return coarse


def matrix_from_flows(flows: Iterable, key: str = "host") -> TrafficMatrix:
    """Build a traffic matrix from :class:`~repro.workloads.arrivals.FlowSpec`s.

    Args:
        flows: flow specs.
        key: ``"host"`` for a host-level matrix (the only key the specs can
            provide on their own).

    Returns:
        The matrix of offered bytes.
    """
    if key != "host":
        raise ValueError("flow specs only support host-level matrices; use "
                         "TrafficMatrix.aggregate_by for coarser keys")
    matrix = TrafficMatrix()
    for flow in flows:
        matrix.add(flow.src, flow.dst, flow.size)
    return matrix
