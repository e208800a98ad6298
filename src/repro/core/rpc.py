"""Controller <-> end-host communication channel model.

The original implementation exchanges query/response messages over a Flask
RESTful service on a dedicated 1 GbE management network.  For the
query-performance experiments (Figures 11 and 12) what matters is the
per-message latency and the bytes moved, so this module models the channel
as:

* a fixed per-message round-trip component (request dispatch, HTTP/TCP
  overheads, Flask handling), plus
* a serialization component proportional to the payload size over the
  management-link bandwidth.

Every message is also counted so experiments can report the total network
traffic a query generated, which is the second metric of Figures 11/12.

The model never runs inside a scatter: :func:`model_response_time` prices
a finished run from the facts it recorded (the plan, the measured bytes of
every leg, per-host ``exec_s`` and per-node ``merge_s``), and
:func:`charge_legs` counts the run's messages on a channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from repro.counters import Counters

if TYPE_CHECKING:  # the executor records what this module prices
    from repro.core.executor import HostReport, PlanNode

#: Default one-way message latency (seconds): LAN RTT plus web-stack
#: (Flask/HTTP) processing.  Calibrated so that a direct query's floor and a
#: 3-4 level aggregation tree land in the same ~0.1-0.2 s range as Fig. 11(a).
DEFAULT_MESSAGE_LATENCY_S = 0.02

#: Default management network bandwidth (1 GbE).
DEFAULT_BANDWIDTH_BPS = 1e9

#: Fixed protocol overhead added to every message (HTTP + TCP + IP headers).
MESSAGE_OVERHEAD_BYTES = 350


@dataclass(slots=True)
class RpcStats(Counters):
    """Aggregate channel statistics."""

    messages: int = 0
    bytes: int = 0


@dataclass
class RpcChannel:
    """A latency/bandwidth model of the management channel.

    Attributes:
        message_latency_s: fixed one-way latency per message.
        bandwidth_bps: serialization bandwidth.
        stats: message/byte counters (shared across all sends on the channel).
    """

    message_latency_s: float = DEFAULT_MESSAGE_LATENCY_S
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    stats: RpcStats = field(default_factory=RpcStats)

    def leg_s(self, payload_bytes: int) -> float:
        """The one-way latency of one message (pure: nothing is counted)."""
        total_bytes = payload_bytes + MESSAGE_OVERHEAD_BYTES
        return self.message_latency_s + total_bytes * 8.0 / self.bandwidth_bps

    def send(self, payload_bytes: int) -> float:
        """Account for one message and return its one-way latency (seconds)."""
        if payload_bytes < 0:
            raise ValueError("payload size cannot be negative")
        self.stats.messages += 1
        self.stats.bytes += payload_bytes + MESSAGE_OVERHEAD_BYTES
        return self.leg_s(payload_bytes)

    def send_encoded(self, frame: bytes) -> float:
        """Account for one message whose payload is a real codec frame.

        The measured-accounting entry point: the payload size is the actual
        length of the :mod:`repro.core.wire` frame, not an estimate.
        """
        return self.send(len(frame))

    def round_trip(self, request_bytes: int, response_bytes: int) -> float:
        """Latency of a request/response exchange."""
        return self.send(request_bytes) + self.send(response_bytes)

    @property
    def total_traffic_bytes(self) -> int:
        """Total bytes moved over the channel so far."""
        return self.stats.bytes


def model_response_time(plan: "PlanNode", reports: Mapping[str, "HostReport"],
                        merge_s: Mapping[Optional[str], float],
                        channel: RpcChannel) -> float:
    """The modelled end-to-end response time of a finished scatter.

    One recursion over the plan tree.  A node's contribution to its parent
    is ``leg(request) + max(children's contributions, own exec_s) +
    merge_s + leg(response)``: its children cannot start before it received
    the query, and its parent cannot merge before the response arrived.
    A leg is priced only when the report records its bytes - a failed host
    has no winning request, and contributes its measured elapsed time
    (``exec_s``) in place of request and execution; a lost response
    contributes nothing.  The root only merges.  ``merge_s`` is keyed by
    node host (``None``: the root); pure - ``channel`` is not counted on.
    """
    leg = channel.leg_s

    def completion(node: "PlanNode") -> float:
        slots = []
        for child in node.children:
            report = reports[child.host]  # type: ignore[index]
            request, response = report.request_bytes, report.response_bytes
            slots.append((0.0 if request is None else leg(request))
                         + completion(child)
                         + (0.0 if response is None else leg(response)))
        if node.host is not None:
            slots.append(reports[node.host].exec_s)
        return max(slots, default=0.0) + merge_s.get(node.host, 0.0)

    return completion(plan)


def charge_legs(plan: "PlanNode", reports: Mapping[str, "HostReport"],
                channel: RpcChannel) -> None:
    """Count a finished scatter's messages on ``channel``: one request per
    attempt at every node the plan sends a request to, and every delivered
    response - summed in one pass and added to ``channel.stats`` once.
    Requests are batched: a query and its subtree description travel to a
    child in one message, paying the per-message overhead once.  A
    negative request part or response size is a ``ValueError``, raised
    before anything is counted."""
    messages = payload = 0
    stack = list(plan.children)
    while stack:
        child = stack.pop()
        stack += child.children
        report = reports[child.host]  # type: ignore[index]
        sent = report.attempts if child.request_parts else 0
        response = report.response_bytes
        if min(child.request_parts, default=0) < 0 or (response or 0) < 0:
            raise ValueError("payload size cannot be negative")
        messages += sent + (response is not None)
        payload += sent * sum(child.request_parts) + (response or 0)
    channel.stats.messages += messages
    channel.stats.bytes += payload + messages * MESSAGE_OVERHEAD_BYTES
