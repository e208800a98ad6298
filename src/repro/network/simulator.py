"""The fabric simulator: clock, event scheduler and hop-by-hop forwarding.

The simulator ties together the topology, the routing tables, the switches
and the links, and walks packets hop by hop from the source host to either

* the destination host (where the PathDump edge stack takes over),
* a drop (link failure, silent drop, blackhole, TTL expiry, no route), or
* a punt to the controller (the long-path / routing-loop trap).

Time is simulated: the clock advances as the caller schedules work through
the :class:`EventScheduler`, and each forwarded packet accumulates per-hop
latency so that controller-visible delays (e.g. the ~47 ms routing-loop
detection time of Section 4.5) have a concrete meaning.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.network.link import Link
from repro.network.packet import Packet
from repro.network.switch import (STEP_DELIVER, STEP_DROP_NO_ROUTE,
                                  STEP_DROP_TTL, STEP_FORWARD, STEP_PUNT,
                                  Switch, build_switches)
from repro.network.routing import RoutingFabric
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.graph import Topology

#: Forwarding outcomes.
OUTCOME_DELIVERED = "delivered"
OUTCOME_DROPPED = "dropped"
OUTCOME_PUNTED = "punted"

#: Extra processing latency charged per switch hop (seconds), on top of link
#: latency; roughly a store-and-forward plus pipeline delay.
SWITCH_LATENCY_S = 5e-6

#: Latency of the switch -> controller punt channel (seconds).  The paper's
#: loop-detection latency (~47 ms for a 4-hop loop) is dominated by this
#: control-channel and controller software path, not by data-plane hops.
PUNT_CHANNEL_LATENCY_S = 15e-3


class SimClock:
    """A simple monotonically advancing simulated clock (seconds)."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Advance the clock by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise ValueError("cannot advance the clock backwards")
        self._now += delta
        return self._now

    def advance_to(self, when: float) -> float:
        """Advance the clock to ``when`` (no-op if already past it)."""
        if when > self._now:
            self._now = when
        return self._now


class EventScheduler:
    """A heap-based discrete event scheduler driving flow-level activity.

    Events are ``(time, callback)`` pairs; callbacks may schedule further
    events.  The scheduler shares a :class:`SimClock` with the fabric so
    packet latencies and flow-level timers observe the same notion of time.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock or SimClock()
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    def schedule(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at absolute time ``when``."""
        if when < self.clock.now:
            raise ValueError(f"cannot schedule in the past ({when} < "
                             f"{self.clock.now})")
        heapq.heappush(self._heap, (when, next(self._counter), callback))

    def schedule_after(self, delay: float,
                       callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        self.schedule(self.clock.now + delay, callback)

    def schedule_periodic(self, period: float, callback: Callable[[], None],
                          until: Optional[float] = None) -> None:
        """Schedule ``callback`` every ``period`` seconds (optionally bounded)."""
        def tick() -> None:
            callback()
            next_time = self.clock.now + period
            if until is None or next_time <= until:
                self.schedule(next_time, tick)

        self.schedule_after(period, tick)

    @property
    def pending(self) -> int:
        """Number of events not yet executed."""
        return len(self._heap)

    def run_until(self, end_time: float) -> int:
        """Run all events scheduled up to ``end_time``; return count executed."""
        executed = 0
        while self._heap and self._heap[0][0] <= end_time:
            when, _, callback = heapq.heappop(self._heap)
            self.clock.advance_to(when)
            callback()
            executed += 1
        self.clock.advance_to(end_time)
        return executed

    def run_all(self, max_events: int = 10_000_000) -> int:
        """Run every pending event; guard against runaway schedules."""
        executed = 0
        while self._heap:
            if executed >= max_events:
                raise RuntimeError("event budget exceeded")
            when, _, callback = heapq.heappop(self._heap)
            self.clock.advance_to(when)
            callback()
            executed += 1
        return executed


@dataclass
class ForwardingResult:
    """Outcome of injecting one packet into the fabric.

    Attributes:
        outcome: one of ``delivered``, ``dropped``, ``punted``.
        packet: the packet in its final state (tags as accumulated).
        hops: the ground-truth node sequence actually visited, starting at
            the source host (or injection switch) and ending at the final
            node reached.
        latency: accumulated one-way latency in seconds.
        delivered_to: destination host (when delivered).
        drop_link: the directed link on which the packet was lost.
        drop_reason: ``failed``/``blackhole``/``random_drop``/``ttl_expired``
            /``no_route``.
        punt_switch: switch that punted the packet to the controller.
        punt_reason: why it was punted.
    """

    outcome: str
    packet: Packet
    hops: List[str]
    latency: float
    delivered_to: Optional[str] = None
    drop_link: Optional[Tuple[str, str]] = None
    drop_reason: Optional[str] = None
    punt_switch: Optional[str] = None
    punt_reason: Optional[str] = None

    @property
    def delivered(self) -> bool:
        """``True`` when the packet reached its destination host."""
        return self.outcome == OUTCOME_DELIVERED

    @property
    def switch_path(self) -> List[str]:
        """The switches visited, in order (hosts excluded)."""
        return [n for n in self.hops if not n.startswith(("h-", "vh-"))]


#: Callback invoked when a packet is delivered to a host:
#: (host, packet, arrival_time) -> None.
DeliveryHandler = Callable[[str, Packet, float], None]

#: Callback invoked when a switch punts a packet to the controller:
#: (switch, packet, time) -> None.
PuntHandler = Callable[[str, Packet, float], None]


class Fabric:
    """The simulated datacenter fabric.

    Args:
        topo: the topology.
        routing: routing tables (defaults to ECMP over the topology).
        seed: RNG seed for per-packet randomness (spraying, silent drops).
        max_parsable_vlan_tags: ASIC VLAN parsing limit for all switches.
    """

    def __init__(self, topo: "Topology", routing: Optional[RoutingFabric] = None,
                 seed: int = 0, max_parsable_vlan_tags: int = 2) -> None:
        self.topo = topo
        self.routing = routing or RoutingFabric(topo)
        self.rng = random.Random(seed)
        self.clock = SimClock()
        self.scheduler = EventScheduler(self.clock)
        self.switches: Dict[str, Switch] = build_switches(
            topo, self.routing, max_parsable_vlan_tags)
        self.delivery_handlers: Dict[str, DeliveryHandler] = {}
        self.punt_handler: Optional[PuntHandler] = None
        self._host_set = set(topo.hosts)
        #: hard cap on hops walked per packet, protecting against unbounded
        #: loops when the trap is disabled (e.g. in unit tests).
        self.max_hops = 64

    # ------------------------------------------------------------- plumbing
    def is_host(self, node: str) -> bool:
        """``True`` when ``node`` is an end host."""
        return node in self._host_set

    def is_link_usable(self, a: str, b: str) -> bool:
        """``True`` when the directed link a->b exists and is not failed.

        Silently faulty links (random drops, blackholes) are considered
        usable: the routing plane cannot see those faults, which is what
        makes them interesting debugging targets.
        """
        link = self.topo.links.maybe_get(a, b)
        return link is not None and not link.failed

    def register_delivery_handler(self, host: str,
                                  handler: DeliveryHandler) -> None:
        """Attach an edge-stack delivery callback to ``host``."""
        self.delivery_handlers[host] = handler

    def install_tagger(self, tagger) -> None:
        """Install the same tagging callback on every switch."""
        for switch in self.switches.values():
            switch.tagger = tagger

    # ------------------------------------------------------------ injection
    def inject(self, packet: Packet, src_host: Optional[str] = None,
               at_time: Optional[float] = None) -> ForwardingResult:
        """Send ``packet`` from its source host through the fabric.

        Args:
            packet: the packet; its flow's ``src_ip``/``dst_ip`` name hosts.
            src_host: source host (defaults to ``packet.flow.src_ip``).
            at_time: injection time; defaults to the current simulated time.

        Returns:
            A :class:`ForwardingResult` describing what happened.
        """
        src = src_host or packet.flow.src_ip
        if src not in self._host_set:
            raise ValueError(f"{src} is not a host")
        start = self.clock.now if at_time is None else at_time
        packet.timestamp = start
        tor = self.topo.tor_of(src)
        # First hop: host -> ToR link.
        result = self._transmit(packet, src, tor, [src], 0.0, start)
        if result is not None:
            return result
        return self._walk(packet, current=tor, prev=src, hops=[src, tor],
                          latency=self._hop_latency(src, tor, packet),
                          start=start)

    def forward_from(self, switch: str, packet: Packet, prev: Optional[str],
                     at_time: Optional[float] = None) -> ForwardingResult:
        """Inject ``packet`` directly at ``switch`` (controller re-injection).

        Used by the routing-loop debugger: after inspecting a punted packet
        the controller strips its tags and sends it back to the switch that
        punted it (Section 4.5, "detecting loops of any size").
        """
        start = self.clock.now if at_time is None else at_time
        return self._walk(packet, current=switch, prev=prev,
                          hops=[switch], latency=0.0, start=start)

    # ------------------------------------------------------------ internals
    def _hop_latency(self, a: str, b: str, packet: Packet) -> float:
        link = self.topo.links.get(a, b)
        return (link.latency_s + link.serialization_delay(packet.wire_size)
                + SWITCH_LATENCY_S)

    def _transmit(self, packet: Packet, a: str, b: str, hops: List[str],
                  latency: float, start: float) -> Optional[ForwardingResult]:
        """Attempt transmission over a->b; return a drop result or ``None``."""
        link = self.topo.links.get(a, b)
        delivered, reason = link.transmit(packet.wire_size, self.rng)
        if delivered:
            return None
        return ForwardingResult(
            outcome=OUTCOME_DROPPED, packet=packet, hops=list(hops),
            latency=latency, drop_link=(a, b), drop_reason=reason)

    def _walk(self, packet: Packet, current: str, prev: Optional[str],
              hops: List[str], latency: float, start: float
              ) -> ForwardingResult:
        dst_host = packet.flow.dst_ip
        for _ in range(self.max_hops):
            switch = self.switches[current]
            decision = switch.process(
                packet, prev, dst_host, self.rng,
                is_link_usable=self.is_link_usable, is_host=self.is_host)

            if decision.action == STEP_PUNT:
                punt_latency = latency + PUNT_CHANNEL_LATENCY_S
                result = ForwardingResult(
                    outcome=OUTCOME_PUNTED, packet=packet, hops=list(hops),
                    latency=punt_latency, punt_switch=current,
                    punt_reason=decision.punt_reason)
                if self.punt_handler is not None:
                    self.punt_handler(current, packet, start + punt_latency)
                return result

            if decision.action == STEP_DROP_TTL:
                return ForwardingResult(
                    outcome=OUTCOME_DROPPED, packet=packet, hops=list(hops),
                    latency=latency, drop_reason="ttl_expired")

            if decision.action == STEP_DROP_NO_ROUTE:
                return ForwardingResult(
                    outcome=OUTCOME_DROPPED, packet=packet, hops=list(hops),
                    latency=latency, drop_reason="no_route")

            next_node = decision.next_node
            drop = self._transmit(packet, current, next_node, hops, latency,
                                  start)
            if drop is not None:
                return drop
            latency += self._hop_latency(current, next_node, packet)
            hops.append(next_node)

            if decision.action == STEP_DELIVER:
                arrival = start + latency
                handler = self.delivery_handlers.get(next_node)
                if handler is not None:
                    handler(next_node, packet, arrival)
                return ForwardingResult(
                    outcome=OUTCOME_DELIVERED, packet=packet, hops=list(hops),
                    latency=latency, delivered_to=next_node)

            prev, current = current, next_node

        return ForwardingResult(
            outcome=OUTCOME_DROPPED, packet=packet, hops=list(hops),
            latency=latency, drop_reason="max_hops_exceeded")
