"""OpenFlow-style match/action flow tables.

PathDump's only in-network requirement is that switches carry *static* rules
which, based on the ingress port and the current tag state of a packet,
append a link identifier (``push_vlan``) or set the DSCP field before
forwarding.  The controller installs these rules once at start-up and never
touches them again (Section 3.3 of the paper).

This module provides a faithful, self-contained model of that rule machinery:

* :class:`Match` - ternary match over the header fields PathDump cares about
  (ingress port, VLAN tag count, outermost VLAN ID, DSCP presence, IP
  destination prefix, protocol).
* :class:`Action` subclasses - ``PushVlan``, ``PopVlan``, ``SetDscp``,
  ``Output``, ``GotoTable``, ``PuntToController`` and ``Drop``.
* :class:`FlowTable` / :class:`FlowTablePipeline` - priority-ordered rule
  tables chained in a pipeline (OpenFlow 1.3 style, which the paper requires
  for multi-table support).

The pipeline is deliberately small but complete enough that CherryPick's rule
sets (see :mod:`repro.tracing.rules`) compile directly onto it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.network.packet import Packet


# --------------------------------------------------------------------- match
@dataclass(frozen=True)
class Match:
    """A ternary match over packet header fields.

    ``None`` for any field means wildcard.  ``vlan_count`` and
    ``vlan_count_min`` allow matching on the number of tags carried, which is
    how the CherryPick encoding distinguishes "first sample" from "subsequent
    sample" and how the ASIC two-tag parsing limit is expressed.

    Attributes:
        in_port: ingress port number.
        vlan_count: exact number of VLAN tags required.
        vlan_count_min: minimum number of VLAN tags required.
        vlan_count_max: maximum number of VLAN tags allowed.
        outer_vlan: required outermost VLAN ID.
        dscp_set: require DSCP to be set (``True``) or unset (``False``).
        dst_prefix: destination address prefix (simple string prefix match).
        protocol: IP protocol number.
        requires_ip_parse: whether evaluating this match requires the switch
            ASIC to parse beyond the VLAN stack into the IP header.  Matches
            that inspect ``dst_prefix``, ``protocol`` or ``dscp_set`` require
            IP parsing; this is what triggers the rule miss for packets
            carrying three or more tags.
    """

    in_port: Optional[int] = None
    vlan_count: Optional[int] = None
    vlan_count_min: Optional[int] = None
    vlan_count_max: Optional[int] = None
    outer_vlan: Optional[int] = None
    dscp_set: Optional[bool] = None
    dst_prefix: Optional[str] = None
    protocol: Optional[int] = None

    @property
    def requires_ip_parse(self) -> bool:
        """Whether this match needs the ASIC to parse the IP header."""
        return (self.dst_prefix is not None or self.protocol is not None
                or self.dscp_set is not None)

    def matches(self, packet: Packet, in_port: Optional[int]) -> bool:
        """Return ``True`` when ``packet`` arriving on ``in_port`` matches."""
        if self.in_port is not None and in_port != self.in_port:
            return False
        count = packet.vlan_count
        if self.vlan_count is not None and count != self.vlan_count:
            return False
        if self.vlan_count_min is not None and count < self.vlan_count_min:
            return False
        if self.vlan_count_max is not None and count > self.vlan_count_max:
            return False
        if self.outer_vlan is not None and packet.peek_vlan() != self.outer_vlan:
            return False
        if self.dscp_set is not None:
            if self.dscp_set != (packet.dscp is not None):
                return False
        if self.dst_prefix is not None:
            if not packet.flow.dst_ip.startswith(self.dst_prefix):
                return False
        if self.protocol is not None and packet.flow.protocol != self.protocol:
            return False
        return True


# ------------------------------------------------------------------- actions
class Action:
    """Base class for rule actions.  Subclasses mutate or dispose the packet."""

    def apply(self, packet: Packet, context: "ActionContext") -> None:
        """Apply the action to ``packet`` within ``context``."""
        raise NotImplementedError


@dataclass
class ActionContext:
    """Mutable state threaded through action execution for one packet.

    Attributes:
        out_port: egress port selected so far (``None`` until ``Output``).
        punt: whether the packet must be sent to the controller.
        drop: whether the packet must be dropped.
        goto_table: next table to evaluate (``None`` terminates the pipeline).
        ingress_link_id: global ID of the link the packet arrived on, used by
            ``PushVlan`` when configured to record the ingress link.
    """

    out_port: Optional[int] = None
    punt: bool = False
    drop: bool = False
    goto_table: Optional[int] = None
    ingress_link_id: Optional[int] = None


@dataclass
class PushVlan(Action):
    """Push a VLAN tag.

    When ``vid`` is ``None`` the tag carries the *ingress link ID* from the
    action context - this is the common CherryPick case where the rule says
    "record the link this packet came in on".
    """

    vid: Optional[int] = None

    def apply(self, packet: Packet, context: ActionContext) -> None:
        vid = self.vid if self.vid is not None else context.ingress_link_id
        if vid is None:
            raise ValueError("PushVlan with no VID and no ingress link ID")
        packet.push_vlan(vid)


@dataclass
class PopVlan(Action):
    """Pop the outermost VLAN tag."""

    def apply(self, packet: Packet, context: ActionContext) -> None:
        packet.pop_vlan()


@dataclass
class SetDscp(Action):
    """Set the DSCP field.

    As with :class:`PushVlan`, ``value=None`` stores the ingress link ID
    (used by the VL2 encoding where the first sample lands in DSCP).
    """

    value: Optional[int] = None

    def apply(self, packet: Packet, context: ActionContext) -> None:
        value = self.value if self.value is not None else context.ingress_link_id
        if value is None:
            raise ValueError("SetDscp with no value and no ingress link ID")
        packet.set_dscp(value)


@dataclass
class Output(Action):
    """Forward the packet out of ``port``."""

    port: int

    def apply(self, packet: Packet, context: ActionContext) -> None:
        context.out_port = self.port


@dataclass
class GotoTable(Action):
    """Continue matching in a later table of the pipeline."""

    table_id: int

    def apply(self, packet: Packet, context: ActionContext) -> None:
        context.goto_table = self.table_id


@dataclass
class PuntToController(Action):
    """Send the packet to the controller (OpenFlow ``packet-in``)."""

    def apply(self, packet: Packet, context: ActionContext) -> None:
        context.punt = True


@dataclass
class Drop(Action):
    """Silently discard the packet."""

    def apply(self, packet: Packet, context: ActionContext) -> None:
        context.drop = True


# --------------------------------------------------------------------- rules
@dataclass
class Rule:
    """A single flow rule: priority, match and an action list.

    Attributes:
        priority: higher wins; ties broken by insertion order.
        match: the :class:`Match` to evaluate.
        actions: actions applied in order on a match.
        cookie: free-form annotation (useful for debugging rule sets).
    """

    priority: int
    match: Match
    actions: Sequence[Action]
    cookie: str = ""

    #: set by the owning table for stable tie-breaking
    _seq: int = field(default=0, compare=False)


class FlowTable:
    """A single priority-ordered flow table."""

    def __init__(self, table_id: int = 0) -> None:
        self.table_id = table_id
        self._rules: List[Rule] = []
        self._insert_seq = 0

    def add_rule(self, rule: Rule) -> None:
        """Install ``rule``; rules are kept sorted by descending priority."""
        rule._seq = self._insert_seq
        self._insert_seq += 1
        self._rules.append(rule)
        self._rules.sort(key=lambda r: (-r.priority, r._seq))

    def add(self, priority: int, match: Match, actions: Sequence[Action],
            cookie: str = "") -> Rule:
        """Convenience wrapper constructing and installing a rule."""
        rule = Rule(priority=priority, match=match, actions=list(actions),
                    cookie=cookie)
        self.add_rule(rule)
        return rule

    def lookup(self, packet: Packet, in_port: Optional[int]) -> Optional[Rule]:
        """Return the highest-priority matching rule, or ``None`` on miss."""
        for rule in self._rules:
            if rule.match.matches(packet, in_port):
                return rule
        return None

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules)


class FlowTablePipeline:
    """A chain of flow tables evaluated in sequence (OpenFlow 1.3 style).

    The pipeline also enforces the hardware constraint central to PathDump's
    routing-loop trap: a commodity ASIC parses at most
    ``max_parsable_vlan_tags`` VLAN tags at line rate.  When a rule whose
    match requires IP parsing is evaluated against a packet carrying more
    tags than that, the lookup behaves as a *rule miss* and the packet is
    punted to the controller (the paper's Section 3.1 / 4.5 behaviour).
    """

    #: commodity ASICs process packets with up to two VLAN tags (QinQ).
    DEFAULT_MAX_PARSABLE_VLAN_TAGS = 2

    def __init__(self, num_tables: int = 2,
                 max_parsable_vlan_tags: int = DEFAULT_MAX_PARSABLE_VLAN_TAGS
                 ) -> None:
        self.tables: List[FlowTable] = [FlowTable(i) for i in range(num_tables)]
        self.max_parsable_vlan_tags = max_parsable_vlan_tags
        #: counters useful for the overheads evaluation
        self.lookups = 0
        self.misses = 0

    def table(self, table_id: int) -> FlowTable:
        """Return table ``table_id``, growing the pipeline if necessary."""
        while table_id >= len(self.tables):
            self.tables.append(FlowTable(len(self.tables)))
        return self.tables[table_id]

    @property
    def rule_count(self) -> int:
        """Total rules installed across all tables (switch resource usage)."""
        return sum(len(t) for t in self.tables)

    def process(self, packet: Packet, in_port: Optional[int],
                ingress_link_id: Optional[int] = None) -> ActionContext:
        """Run ``packet`` through the pipeline and return the outcome.

        Args:
            packet: the packet (mutated in place by tag actions).
            in_port: ingress port number.
            ingress_link_id: global ID of the ingress link, made available to
                ``PushVlan``/``SetDscp`` actions that record it.

        Returns:
            The final :class:`ActionContext`.  ``punt`` is set both by an
            explicit :class:`PuntToController` action and by the implicit
            ASIC rule-miss on packets carrying too many tags.
        """
        context = ActionContext(ingress_link_id=ingress_link_id)
        table_id = 0
        visited = set()
        while table_id is not None and table_id < len(self.tables):
            if table_id in visited:
                raise RuntimeError(f"pipeline loop at table {table_id}")
            visited.add(table_id)
            table = self.tables[table_id]
            self.lookups += 1
            rule = self._lookup_with_asic_limit(table, packet, in_port, context)
            if rule is None:
                # Table miss: default behaviour is punt to controller, the
                # standard OpenFlow miss action the paper relies on.
                self.misses += 1
                context.punt = True
                return context
            context.goto_table = None
            for action in rule.actions:
                action.apply(packet, context)
                if context.drop or context.punt:
                    return context
            table_id = context.goto_table
        return context

    def _lookup_with_asic_limit(self, table: FlowTable, packet: Packet,
                                in_port: Optional[int],
                                context: ActionContext) -> Optional[Rule]:
        """Lookup honouring the ASIC's VLAN parsing limit.

        Rules whose match requires parsing the IP header cannot be evaluated
        for packets carrying more than ``max_parsable_vlan_tags`` tags; they
        are skipped, typically resulting in a miss (and hence a punt).
        """
        over_limit = packet.vlan_count > self.max_parsable_vlan_tags
        for rule in table:
            if over_limit and rule.match.requires_ip_parse:
                continue
            if rule.match.matches(packet, in_port):
                return rule
        return None
