"""Per-host serving logic of the agent-server worker plane.

PathDump's central claim is that trajectory queries run *on the end hosts
themselves*.  Pure-Python per-host query work is GIL-bound, so the worker
plane (:mod:`~repro.core.groupserver`) moves the per-host state out of the
controller process entirely.  This module is the part of that plane that
is about *one host*:

* :class:`_HostServer` - one host's worker-side frame switch.  It owns the
  host's :class:`~repro.core.tib.Tib`, a
  :class:`~repro.core.query.QueryEngine` *and* the host's
  :class:`~repro.core.monitor.ActiveMonitor` (through
  :class:`_WorkerAgent`), and maps one :mod:`~repro.core.wire` frame to
  its reply: encoded record batches and transfer-observation batches
  stream in, encoded query(+subtree-spec) requests are answered with
  encoded results, and monitor-tick commands with alarm batches.  No
  pickle crosses the wire on the query path.  A group worker
  (:func:`~repro.core.groupserver.group_server_main`) owns one of these
  per host of its shard.
* The **event plane**: the worker's monitor is the authoritative one in
  the worker modes.  Alarms it raises (periodic checks, alarm-raising
  query handlers like ``path_conformance``) are queued host-side and
  travel to the controller either as the reply to a monitor tick or
  piggybacked on the next query reply - the request/reply protocol's
  rendering of the asynchronous agent -> controller alert channel.
* :class:`AgentServerError` - a worker failed or became unreachable.  The
  scatter-gather executor turns it into the same ``partial=True`` /
  ``hosts_failed`` / ``W_HOST_FAILED`` outcome as a dead in-process agent.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.core import wire
from repro.core.alarms import Alarm
from repro.core.monitor import ActiveMonitor
from repro.core.query import Query, QueryEngine
from repro.core.tib import Tib

#: Queries an agent-server worker can answer: every built-in, including the
#: monitor-backed (``poor_tcp_flows``) and alarm-raising
#: (``path_conformance``) ones - the worker owns the host's monitor and its
#: alarms travel back over the wire.  Only *custom* handlers registered on
#: individual in-process agents fall back local (the worker cannot know
#: them).
SERVED_QUERIES = frozenset(QueryEngine()._handlers)


class AgentServerError(RuntimeError):
    """An agent-server worker failed or became unreachable."""


class _WorkerAgent:
    """The slice of the agent API the query handlers and event plane need.

    Lives inside the worker process; serves everything in
    :data:`SERVED_QUERIES` from the worker-owned :class:`Tib` and
    :class:`ActiveMonitor`.  Alarms raised host-side (periodic checks,
    ``Alarm(...)`` calls from query handlers) are queued on
    ``pending_alarms`` until a reply frame carries them to the controller.
    """

    def __init__(self, host: str) -> None:
        self.host = host
        self.tib = Tib(host)
        self.pending_alarms: List[Alarm] = []
        self.monitor = ActiveMonitor(host,
                                     alarm_sink=self.pending_alarms.append)
        self.alarms_raised: List[Alarm] = []

    # Host API subset (mirrors PathDumpAgent over the TIB + monitor).
    def get_flows(self, link=None, time_range=None):
        return self.tib.get_flows(link, time_range)

    def get_paths(self, flow_id, link=None, time_range=None):
        return self.tib.get_paths(flow_id, link, time_range)

    def get_count(self, flow, time_range=None):
        return self.tib.get_count(flow, time_range)

    def get_duration(self, flow, time_range=None):
        return self.tib.get_duration(flow, time_range)

    def get_poor_tcp_flows(self, threshold=None):
        return self.monitor.get_poor_tcp_flows(threshold)

    def alarm(self, flow_id, reason, paths, detail: str = "",
              when: float = 0.0) -> Alarm:
        """``Alarm(flowID, Reason, Paths)`` - queued for the next reply."""
        alarm = Alarm(flow_id=flow_id, reason=reason,
                      paths=[tuple(p) for p in paths], host=self.host,
                      time=when, detail=detail)
        self.alarms_raised.append(alarm)
        self.pending_alarms.append(alarm)
        return alarm

    def drain_alarms(self) -> Tuple[Alarm, ...]:
        """Take every pending alarm (they leave on the reply being built)."""
        drained = tuple(self.pending_alarms)
        self.pending_alarms.clear()
        return drained


class _RequestMemo:
    """The last query-request frame a worker decoded, and its query.

    A direct query's envelope carries the same request bytes for every
    host of a group, so one remembered entry turns the group's M decodes
    into one.  The hosts then share one :class:`~repro.core.query.Query`
    object, as they do in serial mode - handlers only read it.  Frames
    that differ per host (a multi-level scatter's carry each host's
    subtree spec) simply miss.
    """

    __slots__ = ("_frame", "_query")

    def __init__(self) -> None:
        self._frame: Optional[bytes] = None
        self._query: Optional[Query] = None

    def query(self, frame: bytes) -> Query:
        """The query ``frame`` asks (raises ``WireError`` on a corrupt
        frame, which is then not remembered)."""
        if frame != self._frame:
            self._query, _spec = wire.decode_query_request(frame)
            self._frame = frame
        return self._query


class _HostServer:
    """One host's worker-side frame switch: state + ``frame -> reply``.

    :func:`~repro.core.groupserver.group_server_main` owns one of these
    per host of its shard and routes ``MSG_GROUP_BATCH`` entries to them.
    Record/observation batches, monitor-state seeds and re-opens are
    fire-and-forget (the channel's FIFO ordering guarantees they are
    applied before any later query or tick); an ingest failure is latched
    on ``pending_error`` and reported as the reply to the next request
    instead of being lost.  Alarms raised host-side are queued and leave
    on the next reply that can carry them: a monitor tick's alarm batch,
    or piggybacked on a query result.
    """

    def __init__(self, host: str, requests: _RequestMemo) -> None:
        self.host = host
        self.agent = _WorkerAgent(host)
        self.engine = QueryEngine()
        #: Shared by every host server of the worker process.
        self.requests = requests
        self.pending_error: Optional[str] = None

    def note_error(self, detail: str) -> None:
        """Latch an out-of-band failure (reported on the next request)."""
        self.pending_error = detail

    def serve(self, frame: bytes) -> Optional[bytes]:
        """Serve one frame; returns the reply bytes, or ``None`` for
        fire-and-forget frames (lifecycle frames - shutdown - are the
        caller's business and produce ``None`` here too)."""
        agent = self.agent
        try:
            kind, _reader = wire.open_frame(frame)
        except wire.WireError as error:
            self.pending_error = f"undecodable frame: {error}"
            return None
        if kind == wire.MSG_RECORD_BATCH:
            try:
                agent.tib.add_records(wire.decode_record_batch(frame),
                                      adopt=True)
            except Exception as error:
                self.pending_error = (f"record batch failed: "
                                      f"{type(error).__name__}: {error}")
        elif kind == wire.MSG_OBSERVATION_BATCH:
            try:
                for obs in wire.decode_observation_batch(frame):
                    agent.monitor.apply_observation(obs)
            except Exception as error:
                self.pending_error = (f"observation batch failed: "
                                      f"{type(error).__name__}: {error}")
        elif kind == wire.MSG_MONITOR_STATE:
            try:
                agent.monitor.restore(wire.decode_monitor_state(frame))
            except Exception as error:
                self.pending_error = (f"monitor state failed: "
                                      f"{type(error).__name__}: {error}")
        elif kind == wire.MSG_MONITOR_REOPEN:
            # The cluster's reset_stats(), shipped as the operation: the
            # local agent's monitor just ran the same call on the ledger
            # the observation mirror keeps identical to this one.
            agent.monitor.reset_stats()
        elif kind == wire.MSG_RETENTION:
            # Fire-and-forget, like ingest: the channel's FIFO ordering
            # guarantees the cap is in force before any later record
            # batch, so the worker ages records host-side exactly as
            # the controller's local TIB does.
            try:
                max_records, max_bytes = wire.decode_retention(frame)
                agent.tib.configure_retention(max_records=max_records,
                                              max_bytes=max_bytes)
            except Exception as error:
                self.pending_error = (f"retention config failed: "
                                      f"{type(error).__name__}: {error}")
        elif kind == wire.MSG_QUERY_REQUEST:
            if self.pending_error is not None:
                reply = wire.encode_error(self.pending_error)
                self.pending_error = None
                return reply
            try:
                query = self.requests.query(frame)
                # measure_wire=False: the frame we are about to send IS
                # the measurement (encoding twice would double the
                # serialization cost on the hot path); the client sets
                # wire_bytes = len(frame) on decode.
                result = self.engine.execute(agent, query,
                                             measure_wire=False)
                # Drain *after* executing: alarms the handler raised
                # ride this reply to the controller's bus.
                result.alarms = agent.drain_alarms()
                return wire.encode_result(result)
            except Exception as error:
                return wire.encode_error(f"{type(error).__name__}: {error}")
        elif kind == wire.MSG_MONITOR_TICK:
            if self.pending_error is not None:
                reply = wire.encode_error(self.pending_error)
                self.pending_error = None
                return reply
            try:
                now, threshold = wire.decode_monitor_tick(frame)
                agent.monitor.run_check(now, threshold)
                # The check's alarms landed on the pending queue via
                # the monitor's sink; the reply drains everything
                # pending (including alarms from earlier activity).
                return wire.encode_alarm_batch(agent.drain_alarms())
            except Exception as error:
                return wire.encode_error(f"{type(error).__name__}: {error}")
        elif kind == wire.MSG_MONITOR_PULL:
            if self.pending_error is not None:
                # The snapshot is the mirror's ground truth; serving it
                # while an observation/seed batch silently failed would
                # report state the worker never reached.
                reply = wire.encode_error(self.pending_error)
                self.pending_error = None
                return reply
            return wire.encode_monitor_state(agent.monitor.snapshot())
        elif kind == wire.MSG_PING:
            # A pong doubles as the worker-side flush barrier: any
            # write-behind records staged by earlier ingest frames are
            # forced into the archive log before the tier counters are
            # read, so the reply never describes a torn cold tier.
            agent.tib.flush_archive()
            tiers = agent.tib.tier_stats()
            return wire.encode_pong(
                agent.tib.total_record_count(),
                len(agent.monitor.flows),
                hot_records=tiers["hot_records"],
                hot_bytes=tiers["hot_bytes"],
                cold_records=tiers["cold_records"],
                cold_bytes=tiers["cold_bytes"])
        elif kind == wire.MSG_RESET:
            agent.tib.clear()
            agent.monitor.reset()
            agent.pending_alarms.clear()
            agent.alarms_raised.clear()
            self.pending_error = None  # a reset wipes latched ingest errors
        elif kind == wire.MSG_SLEEP:
            time.sleep(wire.decode_sleep(frame))
        elif kind == wire.MSG_SHUTDOWN:
            pass  # lifecycle frame; handled by the worker's main loop
        else:
            self.pending_error = f"unknown message type {kind}"
        return None
