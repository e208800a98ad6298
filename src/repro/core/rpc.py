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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.counters import Counters

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

    def send(self, payload_bytes: int) -> float:
        """Account for one message and return its one-way latency (seconds)."""
        if payload_bytes < 0:
            raise ValueError("payload size cannot be negative")
        total_bytes = payload_bytes + MESSAGE_OVERHEAD_BYTES
        self.stats.messages += 1
        self.stats.bytes += total_bytes
        return self.message_latency_s + total_bytes * 8.0 / self.bandwidth_bps

    def send_batch(self, parts) -> float:
        """Account for one message carrying several logical payloads.

        Request batching: a query and its aggregation-subtree description
        travel to a child in a single message, paying the fixed per-message
        overhead (and latency floor) once instead of once per part.
        """
        total = 0
        for part in parts:
            if part < 0:
                raise ValueError("payload size cannot be negative")
            total += part
        return self.send(total)

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
