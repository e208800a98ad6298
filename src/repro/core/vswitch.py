"""The edge virtual switch: trajectory extraction on the packet fast path.

In the original system this is "about 150 lines of C" added to Open vSwitch
running on DPDK: for every arriving packet it extracts the link-ID samples,
strips them from the header (they are irrelevant to the upper stack), and
creates/updates the per-path flow record in the trajectory memory.  The
Figure 13 evaluation shows the addition costs at most ~4 % forwarding
throughput versus the vanilla vSwitch.

:class:`EdgeVSwitch` is the Python counterpart.  It can run in two modes so
the same benchmark can be reproduced:

* ``pathdump_enabled=True`` - full extraction + trajectory-memory update;
* ``pathdump_enabled=False`` - "vanilla vSwitch": the packet is only counted
  and forwarded to the upper stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.counters import Counters
from repro.network.packet import Packet
from repro.core.trajectory import TrajectoryMemory


@dataclass(slots=True)
class VSwitchStats(Counters):
    """Forwarding-path counters of the edge vswitch."""

    packets: int = 0
    bytes: int = 0
    tagged_packets: int = 0
    samples_extracted: int = 0
    records_terminated: int = 0


class EdgeVSwitch:
    """The per-host edge datapath.

    Args:
        host: the owning end host.
        trajectory_memory: where per-path flow records are maintained.
        pathdump_enabled: when ``False`` the vswitch behaves like the vanilla
            datapath (no extraction, no record updates); used as the baseline
            in the Figure 13 throughput comparison.
        upper_stack: optional callback receiving the stripped packet (models
            delivery to the transport layer / application).
    """

    def __init__(self, host: str, trajectory_memory: TrajectoryMemory,
                 pathdump_enabled: bool = True,
                 upper_stack: Optional[Callable[[Packet, float], None]] = None
                 ) -> None:
        self.host = host
        self.trajectory_memory = trajectory_memory
        self.pathdump_enabled = pathdump_enabled
        self.upper_stack = upper_stack
        self.stats = VSwitchStats()
        #: evicted-by-FIN/RST records produced on the fast path, drained by
        #: the agent and handed to trajectory construction.
        self.pending_evictions: List = []

    def receive(self, packet: Packet, when: float) -> Sequence[int]:
        """Process one arriving packet.

        The PathDump branch is the "150 lines of C" fast path: the sample
        extraction and header strip are inlined (no helper calls, no
        intermediate lists beyond the sample tuple itself) so the per-packet
        added cost over the vanilla datapath stays minimal.

        Returns:
            The extracted samples (empty when PathDump is disabled), mainly
            for tests; the real consumers are the trajectory memory and the
            upper stack callback.
        """
        stats = self.stats
        stats.packets += 1
        stats.bytes += packet.size

        samples: Tuple[int, ...] = ()
        if self.pathdump_enabled:
            # Inlined CherryPickTagger.samples_in_traversal_order: the DSCP
            # sample (if any) was recorded first; VLAN tags were pushed onto
            # the front of the stack, so the stack is read back to front.
            stack = packet.vlan_stack
            dscp = packet.dscp
            if dscp is not None:
                samples = (dscp, *(tag.vid for tag in reversed(stack)))
                stats.tagged_packets += 1
            elif stack:
                samples = tuple(tag.vid for tag in reversed(stack))
                stats.tagged_packets += 1
            stats.samples_extracted += len(samples)
            # Strip trajectory state before the packet goes up the stack.
            packet.vlan_stack = []
            packet.dscp = None
            evicted = self.trajectory_memory.update(
                packet.flow, samples, packet.size, when,
                terminate=packet.flags.terminates_flow)
            if evicted is not None:
                stats.records_terminated += 1
                self.pending_evictions.append(evicted)

        if self.upper_stack is not None:
            self.upper_stack(packet, when)
        return samples

    def drain_evictions(self) -> List:
        """Return and clear the FIN/RST-evicted records."""
        evicted = self.pending_evictions
        self.pending_evictions = []
        return evicted

    def throughput_counters(self) -> Tuple[int, int]:
        """(packets, bytes) processed so far."""
        return self.stats.packets, self.stats.bytes
