"""Active TCP performance monitoring at the end host.

"Servers are a right vantage point to instantly sense the symptoms like TCP
timeouts, high retransmission rates, large RTT and low throughput"
(Section 3.2).  The original system samples ``tcpretrans`` periodically; this
module keeps the equivalent per-flow retransmission ledger, fed by the
transport models, and implements:

* ``getPoorTCPFlows(threshold)`` from the host API - flows whose consecutive
  retransmissions exceed a threshold;
* the periodic monitoring check (default period 200 ms, "default TCP timeout
  value") that raises ``POOR_PERF`` alarms towards the controller.

The monitor participates in the event plane: every ``observe_flow`` call is
normalised into a :class:`TransferObservation` and mirrored to an optional
``observation_sink`` (the cluster's worker modes stream these to the
host's group worker, exactly like TIB writes flow through
``record_sink``), and the full monitor state can be snapshotted/restored so
a freshly started worker begins from the same ledger - including the
per-flow ``alerted`` latches that make alerting at-most-once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.alarms import POOR_PERF, Alarm
from repro.counters import Counters
from repro.network.packet import FlowId

#: Default monitoring period in seconds (the paper's 200 ms).
DEFAULT_MONITOR_PERIOD_S = 0.2

#: Default consecutive-retransmission threshold for "poor" TCP flows.
DEFAULT_POOR_THRESHOLD = 3


class TransferObservation(NamedTuple):
    """One normalised TCP health observation for a flow.

    This is the unit of the event-plane ingest stream: whatever shape the
    transport models hand to :meth:`ActiveMonitor.observe_flow` /
    :meth:`ActiveMonitor.observe_transfer`, the monitor folds it into its
    ledger *and* forwards this canonical tuple to its ``observation_sink``,
    so a mirrored monitor replaying the stream reaches byte-identical
    state.
    """

    flow_id: FlowId
    retransmissions: int
    consecutive: int
    timeouts: int
    bytes_sent: int
    when: float


@dataclass
class TcpFlowStats:
    """Per-flow TCP health statistics maintained by the monitor."""

    flow_id: FlowId
    retransmissions: int = 0
    consecutive_retransmissions: int = 0
    max_consecutive_retransmissions: int = 0
    timeouts: int = 0
    bytes_sent: int = 0
    last_update: float = 0.0
    alerted: bool = False

    def record_retransmissions(self, count: int, consecutive: int,
                               when: float) -> None:
        """Fold a retransmission observation into the statistics."""
        self.retransmissions += count
        self.consecutive_retransmissions = consecutive
        self.max_consecutive_retransmissions = max(
            self.max_consecutive_retransmissions, consecutive)
        self.last_update = when


@dataclass(slots=True)
class MonitorStats(Counters):
    """The monitor's per-experiment counter."""

    #: POOR_PERF alerts raised (or latched from a worker mirror's alarms).
    alerts_raised: int = 0


class MonitorSnapshot(NamedTuple):
    """The full state of one :class:`ActiveMonitor`.

    Shipped over the wire (``MSG_MONITOR_STATE``) when agent-server workers
    start, so the worker's monitor begins exactly where the local one is -
    flows in insertion order (``getPoorTCPFlows`` payload identity depends
    on it) and ``alerted`` latches intact (at-most-once alerting must not
    restart when the monitor moves host-side).

    The same frame re-seeds a worker the supervisor restarts, and the
    latch semantics compose: the local mirror only latches a flow when
    the controller actually dispatches its alarm, so a worker that died
    with undelivered alarms is re-seeded *unlatched* for exactly those
    flows - it re-raises them on the next sweep and the controller's bus
    still sees every alert at most once.
    """

    host: str
    period: float
    poor_threshold: int
    alerts_raised: int
    flows: Tuple[TcpFlowStats, ...]


class ActiveMonitor:
    """The end host's TCP performance monitor.

    Args:
        host: the owning end host.
        alarm_sink: callback receiving :class:`Alarm` objects (the agent
            wires this to the controller's alarm bus; inside an agent-server
            worker it feeds the pending-alarm queue drained over the wire).
        period: monitoring period in seconds.
        poor_threshold: consecutive-retransmission threshold used by the
            periodic check and ``getPoorTCPFlows``'s default.
    """

    def __init__(self, host: str,
                 alarm_sink: Optional[Callable[[Alarm], None]] = None,
                 period: float = DEFAULT_MONITOR_PERIOD_S,
                 poor_threshold: int = DEFAULT_POOR_THRESHOLD) -> None:
        self.host = host
        self.alarm_sink = alarm_sink
        self.period = period
        self.poor_threshold = poor_threshold
        self.flows: Dict[FlowId, TcpFlowStats] = {}
        self.stats = MonitorStats()
        #: Optional mirror for observations: every observation folded into
        #: this monitor is also handed to this callable as a (batched)
        #: sequence of :class:`TransferObservation`.  The cluster's process
        #: mode uses it to stream encoded observation batches to the host's
        #: agent-server worker, keeping the worker monitor in sync with
        #: every ingest path (flow outcomes, TCP results, direct
        #: ``observe_flow`` calls through the agent).
        self.observation_sink: Optional[
            Callable[[Sequence[TransferObservation]], None]] = None

    # ---------------------------------------------------------------- updates
    def observe_flow(self, flow_id: FlowId, *, retransmissions: int = 0,
                     consecutive: int = 0, timeouts: int = 0,
                     bytes_sent: int = 0, when: float = 0.0) -> TcpFlowStats:
        """Record TCP health observations for one locally-originated flow."""
        stats = self.flows.get(flow_id)
        if stats is None:
            stats = TcpFlowStats(flow_id=flow_id)
            self.flows[flow_id] = stats
        stats.record_retransmissions(retransmissions, consecutive, when)
        stats.timeouts += timeouts
        stats.bytes_sent += bytes_sent
        if self.observation_sink is not None:
            self.observation_sink((TransferObservation(
                flow_id, retransmissions, consecutive, timeouts, bytes_sent,
                when),))
        return stats

    def apply_observation(self, observation: TransferObservation
                          ) -> TcpFlowStats:
        """Fold one canonical observation into the ledger (mirror replay)."""
        return self.observe_flow(
            observation.flow_id,
            retransmissions=observation.retransmissions,
            consecutive=observation.consecutive,
            timeouts=observation.timeouts,
            bytes_sent=observation.bytes_sent,
            when=observation.when)

    def observe_transfer(self, result, when: Optional[float] = None) -> None:
        """Convenience hook for transport results.

        Accepts any object exposing ``flow_id``, ``retransmissions``,
        ``max_consecutive_retransmissions``, ``timeouts`` and either
        ``bytes_delivered`` or ``size`` (both transport models qualify).
        """
        bytes_sent = getattr(result, "bytes_delivered", None)
        if bytes_sent is None:
            bytes_sent = getattr(result, "size", 0)
        finish = when
        if finish is None:
            finish = getattr(result, "finish_time", None) or getattr(
                result, "completion_time", None) or 0.0
        self.observe_flow(result.flow_id,
                          retransmissions=result.retransmissions,
                          consecutive=result.max_consecutive_retransmissions,
                          timeouts=result.timeouts,
                          bytes_sent=bytes_sent, when=finish)

    # ---------------------------------------------------------------- queries
    def get_poor_tcp_flows(self, threshold: Optional[int] = None
                           ) -> List[FlowId]:
        """``getPoorTCPFlows(Threshold)`` from the host API."""
        limit = self.poor_threshold if threshold is None else threshold
        return [flow_id for flow_id, stats in self.flows.items()
                if stats.max_consecutive_retransmissions >= limit
                or stats.timeouts > 0]

    def stats_for(self, flow_id: FlowId) -> Optional[TcpFlowStats]:
        """Statistics for one flow (``None`` when unknown)."""
        return self.flows.get(flow_id)

    # ------------------------------------------------------------ periodic run
    def run_check(self, now: float,
                  threshold: Optional[int] = None) -> List[Alarm]:
        """Run one periodic monitoring check and raise POOR_PERF alarms.

        Each poor flow is alerted at most once (the controller pulls the
        paths afterwards; re-alerting the same flow adds nothing).
        """
        alarms: List[Alarm] = []
        for flow_id in self.get_poor_tcp_flows(threshold):
            stats = self.flows[flow_id]
            if stats.alerted:
                continue
            stats.alerted = True
            alarm = Alarm(flow_id=flow_id, reason=POOR_PERF, paths=[],
                          host=self.host, time=now,
                          detail=(f"retx={stats.retransmissions}, "
                                  f"streak={stats.max_consecutive_retransmissions}, "
                                  f"timeouts={stats.timeouts}"))
            alarms.append(alarm)
            self.stats.alerts_raised += 1
            if self.alarm_sink is not None:
                self.alarm_sink(alarm)
        return alarms

    def mark_alerted(self, flow_id: FlowId) -> bool:
        """Latch a flow as already-alerted (and count the alert).

        Used when the alert was raised by this monitor's *mirror* - the
        agent-server worker whose tick produced the alarm - so the local
        ledger stays coherent: a later local check must not re-raise the
        alarm the controller already received over the wire.  Returns
        whether the latch was newly set.
        """
        stats = self.flows.get(flow_id)
        if stats is None or stats.alerted:
            return False
        stats.alerted = True
        self.stats.alerts_raised += 1
        return True

    # ------------------------------------------------------- snapshot/restore
    def snapshot(self) -> MonitorSnapshot:
        """The monitor's full state (flows in insertion order)."""
        return MonitorSnapshot(host=self.host, period=self.period,
                               poor_threshold=self.poor_threshold,
                               alerts_raised=self.stats.alerts_raised,
                               flows=tuple(self.flows.values()))

    def restore(self, snapshot: MonitorSnapshot) -> None:
        """Replace this monitor's state with ``snapshot``.

        Adopts the snapshot's :class:`TcpFlowStats` objects (callers hand
        over freshly decoded ones); flow insertion order is preserved so a
        restored monitor's ``getPoorTCPFlows`` payload is byte-identical to
        the original's.
        """
        self.period = snapshot.period
        self.poor_threshold = snapshot.poor_threshold
        self.stats.alerts_raised = snapshot.alerts_raised
        self.flows = {stats.flow_id: stats for stats in snapshot.flows}

    # ------------------------------------------------------------ accounting
    def reset_stats(self) -> None:
        """Zero the per-experiment alert counters.

        Zeroes :attr:`stats` and clears every flow's ``alerted`` latch, so
        the next measurement interval re-alerts still-poor flows instead of
        inheriting the previous experiment's suppression.  Wired into
        ``cluster.reset_stats()`` alongside the RPC and storage counters.
        """
        self.stats.reset()
        for stats in self.flows.values():
            stats.alerted = False

    def reset(self) -> None:
        """Forget every flow (new measurement interval)."""
        self.flows.clear()
        # The latches died with the flows; the alert counter must not
        # outlive them (it used to leak across resets).
        self.stats.reset()
