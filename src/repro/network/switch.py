"""Switch model.

A PathDump switch is intentionally boring: it forwards packets using its
normal routing state and, "in addition to its usual operations, checks for a
condition before forwarding a packet; if the condition is met, the switch
embeds its identifier into the packet header" (Section 1).  The only other
behaviour the system relies on is a hardware artifact: the ASIC parses at
most two VLAN tags, so a packet carrying three or more tags misses the
forwarding rules and is punted to the controller - which is exactly how
suspiciously long paths and routing loops surface (Sections 3.1, 4.5).

The :class:`Switch` class combines:

* a port map (port number <-> adjacent node),
* a reference to its :class:`~repro.network.routing.SwitchRoutingTable`,
* a :class:`~repro.network.flowtable.FlowTablePipeline` holding the static
  CherryPick tagging rules (installed once by the controller),
* an optional fast-path *tagger* callback used by the simulator to apply the
  same tagging decision without a full rule lookup (the rules remain the
  ground truth and are exercised by the tests),
* a *header corruptor* hook modelling a faulty/malicious switch that writes
  an incorrect identifier (Section 2.4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.counters import Counters
from repro.network.flowtable import FlowTablePipeline
from repro.network.packet import Packet
from repro.network.routing import SwitchRoutingTable

#: Result codes for a single switch forwarding step.
STEP_FORWARD = "forward"
STEP_DELIVER = "deliver"
STEP_PUNT = "punt"
STEP_DROP_NO_ROUTE = "no_route"
STEP_DROP_TTL = "ttl_expired"

#: A tagger mutates the packet as it is forwarded from ``in_node`` out to
#: ``out_node`` through ``switch`` (pushing VLAN tags / setting DSCP).
Tagger = Callable[[str, Optional[str], str, Packet], None]

#: A header corruptor may arbitrarily rewrite the trajectory state of a
#: packet as it leaves the switch; returns True when it modified the packet.
HeaderCorruptor = Callable[[str, Packet], bool]


@dataclass(slots=True)
class SwitchCounters(Counters):
    """Per-switch counters (used in overhead accounting and tests)."""

    forwarded: int = 0
    punted: int = 0
    dropped_no_route: int = 0
    tags_pushed: int = 0


@dataclass
class StepDecision:
    """Outcome of processing one packet at one switch.

    Attributes:
        action: one of the ``STEP_*`` constants.
        next_node: node the packet is forwarded to (for ``forward`` and
            ``deliver``).
        punt_reason: free-form reason when ``action == "punt"``.
    """

    action: str
    next_node: Optional[str] = None
    punt_reason: str = ""


class Switch:
    """A commodity SDN switch.

    Args:
        name: switch name (also its identifier in trajectories).
        routing: the switch's routing table.
        neighbors: adjacent node names, in deterministic order; port numbers
            are assigned from 1 following this order.
        max_parsable_vlan_tags: ASIC limit on VLAN tags parsed at line rate.
    """

    def __init__(self, name: str, routing: SwitchRoutingTable,
                 neighbors: List[str],
                 max_parsable_vlan_tags: int = 2) -> None:
        self.name = name
        self.routing = routing
        self.ports: Dict[int, str] = {i + 1: n for i, n in enumerate(neighbors)}
        self.port_of: Dict[str, int] = {n: p for p, n in self.ports.items()}
        self.pipeline = FlowTablePipeline(
            num_tables=2, max_parsable_vlan_tags=max_parsable_vlan_tags)
        self.max_parsable_vlan_tags = max_parsable_vlan_tags
        self.tagger: Optional[Tagger] = None
        self.header_corruptor: Optional[HeaderCorruptor] = None
        self.counters = SwitchCounters()

    # -------------------------------------------------------------- plumbing
    @property
    def rule_count(self) -> int:
        """Number of static tagging rules installed on this switch."""
        return self.pipeline.rule_count

    # ------------------------------------------------------------ forwarding
    def process(self, packet: Packet, in_node: Optional[str],
                dst_host: str, rng: random.Random,
                is_link_usable: Callable[[str, str], bool],
                is_host: Callable[[str], bool]) -> StepDecision:
        """Process ``packet`` arriving from ``in_node`` toward ``dst_host``.

        The processing order mirrors the hardware behaviour the paper relies
        on:

        1. If the packet carries more VLAN tags than the ASIC can parse, the
           IP forwarding lookup misses and the packet is punted to the
           controller ("instant trap of suspiciously long path").
        2. TTL is decremented; expiry drops the packet.
        3. The routing table selects an egress (misconfigurations first, then
           ECMP/spraying/custom selection, then failover).
        4. The CherryPick tagging decision runs for the chosen egress.
        5. A faulty switch may corrupt the trajectory header on the way out.

        Returns:
            A :class:`StepDecision`.  The caller (the fabric simulator) is
            responsible for actually transmitting over the link, so that
            link-level faults remain in one place.
        """
        if packet.vlan_count > self.max_parsable_vlan_tags:
            self.counters.punted += 1
            return StepDecision(STEP_PUNT,
                                punt_reason="vlan_parse_limit_exceeded")

        if not packet.decrement_ttl():
            return StepDecision(STEP_DROP_TTL)

        next_node = self.routing.select(packet, dst_host, rng, is_link_usable)
        if next_node is None:
            self.counters.dropped_no_route += 1
            return StepDecision(STEP_DROP_NO_ROUTE)

        before = packet.vlan_count + (0 if packet.dscp is None else 1)
        if self.tagger is not None:
            self.tagger(self.name, in_node, next_node, packet)
        after = packet.vlan_count + (0 if packet.dscp is None else 1)
        if after > before:
            self.counters.tags_pushed += after - before

        if self.header_corruptor is not None:
            self.header_corruptor(self.name, packet)

        self.counters.forwarded += 1
        if is_host(next_node):
            return StepDecision(STEP_DELIVER, next_node=next_node)
        return StepDecision(STEP_FORWARD, next_node=next_node)


def build_switches(topo, routing_fabric,
                   max_parsable_vlan_tags: int = 2) -> Dict[str, Switch]:
    """Instantiate a :class:`Switch` for every switch node of a topology.

    Args:
        topo: a :class:`~repro.topology.graph.Topology`.
        routing_fabric: a :class:`~repro.network.routing.RoutingFabric` built
            for the same topology.
        max_parsable_vlan_tags: ASIC parsing limit applied to all switches.

    Returns:
        Mapping from switch name to its :class:`Switch` instance.
    """
    switches: Dict[str, Switch] = {}
    for name in topo.switches:
        switches[name] = Switch(
            name=name,
            routing=routing_fabric.table(name),
            neighbors=topo.neighbors(name),
            max_parsable_vlan_tags=max_parsable_vlan_tags)
    return switches
