"""Links and ports of the simulated fabric.

A :class:`Link` is a *directed* adjacency between two nodes (switch or host).
Each physical cable is modelled as two directed links, one per direction,
because faults in real networks (a failing transceiver, a blackholed
interface) are frequently unidirectional and the paper's silent-drop
experiments configure individual *interfaces* as faulty.

Links also carry the per-direction fault state used throughout the
evaluation:

* ``drop_probability`` - silent random packet drops (Section 4.3),
* ``blackhole`` - drop everything silently (Section 4.4),
* ``failed`` - an administratively/physically down link that routing must
  avoid (Section 4.1's failover scenario).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.counters import Counters

#: Directed link endpoints expressed as node names.
Endpoints = Tuple[str, str]

#: Default per-hop latency: propagation plus switching delay, in seconds.
DEFAULT_LATENCY_S = 25e-6

#: Default link capacity in bits per second (10 GbE access links).
DEFAULT_CAPACITY_BPS = 10e9


@dataclass(slots=True)
class LinkStats(Counters):
    """Per-link counters used by the evaluation and the tests."""

    tx_packets: int = 0
    tx_bytes: int = 0
    dropped_random: int = 0
    dropped_blackhole: int = 0
    dropped_failed: int = 0


@dataclass
class Link:
    """A directed link ``src -> dst`` with capacity, latency and fault state.

    Attributes:
        src: transmitting node name.
        dst: receiving node name.
        capacity_bps: nominal capacity in bits per second.
        latency_s: one-way latency in seconds (propagation + switching).
        global_id: CherryPick global link identifier (assigned by
            :mod:`repro.topology.linkid`); ``None`` for host-facing links,
            which are never sampled.
        drop_probability: probability that a packet is *silently* dropped.
            Silent means the interface does not update its discard counters;
            the simulator still tracks the drops for ground truth.
        blackhole: drop every packet silently.
        failed: the link is down; routing should avoid it and any packet
            forwarded over it is dropped (and counted as ``dropped_failed``).
    """

    src: str
    dst: str
    capacity_bps: float = DEFAULT_CAPACITY_BPS
    latency_s: float = DEFAULT_LATENCY_S
    global_id: Optional[int] = None
    drop_probability: float = 0.0
    blackhole: bool = False
    failed: bool = False
    stats: LinkStats = field(default_factory=LinkStats)

    @property
    def endpoints(self) -> Endpoints:
        """The ``(src, dst)`` node pair."""
        return (self.src, self.dst)

    @property
    def healthy(self) -> bool:
        """``True`` when the link has no fault configured."""
        return (not self.failed and not self.blackhole
                and self.drop_probability == 0.0)

    def transmit(self, wire_bytes: int, rng: random.Random) -> Tuple[bool, str]:
        """Attempt to transmit a packet of ``wire_bytes`` over the link.

        Args:
            wire_bytes: on-the-wire size of the packet.
            rng: random source used for the silent-drop coin flip, supplied
                by the simulator so experiments are reproducible.

        Returns:
            ``(delivered, reason)`` where ``reason`` is one of ``"ok"``,
            ``"failed"``, ``"blackhole"`` or ``"random_drop"``.
        """
        if self.failed:
            self.stats.dropped_failed += 1
            return False, "failed"
        if self.blackhole:
            self.stats.dropped_blackhole += 1
            return False, "blackhole"
        if self.drop_probability > 0.0 and rng.random() < self.drop_probability:
            self.stats.dropped_random += 1
            return False, "random_drop"
        self.stats.tx_packets += 1
        self.stats.tx_bytes += wire_bytes
        return True, "ok"

    def serialization_delay(self, wire_bytes: int) -> float:
        """Time to serialize ``wire_bytes`` onto the link, in seconds."""
        return wire_bytes * 8.0 / self.capacity_bps

    def clear_faults(self) -> None:
        """Remove all fault state from the link."""
        self.drop_probability = 0.0
        self.blackhole = False
        self.failed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        flags = []
        if self.failed:
            flags.append("failed")
        if self.blackhole:
            flags.append("blackhole")
        if self.drop_probability:
            flags.append(f"drop={self.drop_probability}")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return f"Link({self.src}->{self.dst}, id={self.global_id}{suffix})"


class LinkRegistry:
    """Container mapping directed endpoint pairs to :class:`Link` objects.

    The registry is shared by the topology, the routing layer and the
    simulator; it is the single source of truth for link state.
    """

    def __init__(self) -> None:
        self._links: Dict[Endpoints, Link] = {}

    def add(self, link: Link) -> Link:
        """Register ``link``; both directions must be added separately."""
        key = link.endpoints
        if key in self._links:
            raise ValueError(f"duplicate link {key}")
        self._links[key] = link
        return link

    def add_bidirectional(self, a: str, b: str, **kwargs) -> Tuple[Link, Link]:
        """Create and register both directions of a cable between ``a``/``b``."""
        fwd = self.add(Link(a, b, **kwargs))
        rev = self.add(Link(b, a, **kwargs))
        return fwd, rev

    def get(self, src: str, dst: str) -> Link:
        """Return the directed link ``src -> dst`` (KeyError if absent)."""
        return self._links[(src, dst)]

    def maybe_get(self, src: str, dst: str) -> Optional[Link]:
        """Return the directed link or ``None`` when it does not exist."""
        return self._links.get((src, dst))

    def __contains__(self, endpoints: Endpoints) -> bool:
        return endpoints in self._links

    def __iter__(self):
        return iter(self._links.values())

    def __len__(self) -> int:
        return len(self._links)

    def reset_stats(self) -> None:
        """Reset statistics on every link."""
        for link in self._links.values():
            link.stats.reset()

    def clear_faults(self) -> None:
        """Remove fault state from every link."""
        for link in self._links.values():
            link.clear_faults()
