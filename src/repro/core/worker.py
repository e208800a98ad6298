"""Everything a group worker process runs.

The controller's :class:`~repro.core.groupserver.GroupAgentPool` spawns
one :func:`group_server_main` per worker group.  PathDump's queries run on
the end hosts themselves, so the worker owns its shard's per-host state
(a :class:`_HostServer` per host) and answers over one
:class:`FramedSocket`, the class the controller reads the other end with.
No pickle crosses the wire.
"""

from __future__ import annotations

import socket
import time
from contextlib import contextmanager, suppress
from typing import (Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from repro.core import wire
from repro.core.alarms import Alarm
from repro.core.monitor import ActiveMonitor
from repro.core.query import Query, QueryEngine
from repro.core.tib import Flow, LinkId, TimeRange, Tib
from repro.network.packet import FlowId

#: Queries a group worker can answer: every built-in, including the
#: monitor-backed (``poor_tcp_flows``) and alarm-raising
#: (``path_conformance``) ones - the worker owns the host's monitor and its
#: alarms travel back over the wire.  Only *custom* handlers registered on
#: individual in-process agents fall back local (the worker cannot know
#: them).
SERVED_QUERIES = frozenset(QueryEngine()._handlers)

#: Request frames (answered; a latched ingest failure answers the next one
#: instead).
_REQUESTS = frozenset((wire.MSG_QUERY_REQUEST, wire.MSG_MONITOR_TICK,
                       wire.MSG_MONITOR_PULL))


class EndpointClosed(Exception):
    """The stream ended (EOF or a closed descriptor) on a frame boundary."""


class FramedSocket:
    """Length-delimited framing over one end of a group's stream pair
    (:func:`~repro.core.wire.stream_frame` /
    :class:`~repro.core.wire.StreamFrameReader`).

    ``recv`` raises :class:`~repro.core.wire.WireDecodeError` for a
    malformed stream (oversized/truncated frames, garbage after a valid
    envelope - including the chaos harness's torn close, which leaves the
    reader mid-frame when the stream ends) and :class:`EndpointClosed`
    for a close on a frame boundary.  The stream ends either with EOF or,
    when the peer closed with unread inbound bytes, with its last bytes
    followed by ``ECONNRESET``; both run the reader's mid-frame check.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._reader = wire.StreamFrameReader()
        self._ready: List[bytes] = []

    def recv(self) -> bytes:
        while not self._ready:
            try:
                data = self._sock.recv(1 << 16)
            except OSError as error:
                self._reader.eof()  # raises WireDecodeError mid-frame
                raise EndpointClosed(
                    f"{type(error).__name__}: {error}") from error
            if not data:
                self._reader.eof()  # raises WireDecodeError mid-frame
                raise EndpointClosed("EOF")
            self._ready.extend(self._reader.feed(data))
        return self._ready.pop(0)

    def send(self, frame: bytes) -> None:
        self._sock.sendall(wire.stream_frame(frame))

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class _RequestMemo:
    """The last query-request frame a worker decoded, and its query.

    A direct query's envelope carries the same request bytes for every
    host of a group, so one remembered entry turns the group's M decodes
    into one.  The hosts then share one :class:`~repro.core.query.Query`
    object, as they do in serial mode - handlers only read it.  Frames
    that differ per host (a multi-level scatter's carry each host's
    subtree spec) simply miss.
    """

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last: Optional[Tuple[bytes, Query]] = None

    def query(self, frame: bytes) -> Query:
        """The query ``frame`` asks (raises ``WireError`` on a corrupt
        frame, which is then not remembered)."""
        last = self._last
        if last is None or last[0] != frame:
            query, _spec = wire.decode_query_request(frame)
            self._last = last = (frame, query)
        return last[1]


class _HostServer:
    """One host in a worker: its state, the slice of the agent API the
    query handlers need, and the frame switch ``frame -> reply``.

    :func:`group_server_main` owns one of these per host of its shard and
    routes ``MSG_GROUP_BATCH`` entries to them; each serves everything in
    :data:`SERVED_QUERIES` from its own :class:`Tib` and
    :class:`ActiveMonitor`.  Record/observation batches, monitor-state
    seeds, re-opens and retention caps are fire-and-forget (the stream's
    FIFO ordering guarantees they are applied before any later query or
    tick); an ingest failure is latched on ``pending_error`` and answers
    the next request instead of being lost.  The worker's monitor is the
    authoritative one in the worker modes: alarms raised host-side
    (periodic checks, ``alarm`` calls from query handlers) queue on
    ``pending_alarms`` and leave on the next reply that can carry them: a
    monitor tick's alarm batch, or piggybacked on a query result.
    """

    def __init__(self, host: str, requests: _RequestMemo) -> None:
        self.host = host
        self.tib = Tib(host)
        self.pending_alarms: List[Alarm] = []
        self.monitor = ActiveMonitor(host,
                                     alarm_sink=self.pending_alarms.append)
        self.engine = QueryEngine()
        #: Shared by every host server of the worker process.
        self.requests = requests
        self.pending_error: Optional[str] = None

    # Host API subset (mirrors PathDumpAgent over the TIB + monitor).
    def get_flows(self, link: Optional[LinkId] = None,
                  time_range: Optional[TimeRange] = None) -> List[Flow]:
        return self.tib.get_flows(link, time_range)

    def get_paths(self, flow_id: FlowId, link: Optional[LinkId] = None,
                  time_range: Optional[TimeRange] = None
                  ) -> List[Tuple[str, ...]]:
        return self.tib.get_paths(flow_id, link, time_range)

    def get_count(self, flow: Union[Flow, FlowId],
                  time_range: Optional[TimeRange] = None) -> Tuple[int, int]:
        return self.tib.get_count(flow, time_range)

    def get_duration(self, flow: Union[Flow, FlowId],
                     time_range: Optional[TimeRange] = None) -> float:
        return self.tib.get_duration(flow, time_range)

    def get_poor_tcp_flows(self, threshold: Optional[int] = None
                           ) -> List[FlowId]:
        return self.monitor.get_poor_tcp_flows(threshold)

    def alarm(self, flow_id: FlowId, reason: str,
              paths: Sequence[Tuple[str, ...]], detail: str = "",
              when: float = 0.0) -> Alarm:
        """``Alarm(flowID, Reason, Paths)`` - queued for the next reply."""
        alarm = Alarm(flow_id=flow_id, reason=reason,
                      paths=[tuple(p) for p in paths], host=self.host,
                      time=when, detail=detail)
        self.pending_alarms.append(alarm)
        return alarm

    def drain_alarms(self) -> Tuple[Alarm, ...]:
        """Take every pending alarm (they leave on the reply being built)."""
        drained = tuple(self.pending_alarms)
        self.pending_alarms.clear()
        return drained

    @contextmanager
    def _latching(self, what: str) -> Iterator[None]:
        """Latch a failure of the fire-and-forget step run inside as
        ``pending_error`` (the stream has no reply to carry it now)."""
        try:
            yield
        except Exception as error:
            self.pending_error = (f"{what} failed: "
                                  f"{type(error).__name__}: {error}")

    def serve(self, frame: bytes) -> Optional[bytes]:
        """Serve one frame; returns the reply bytes, or ``None`` for a
        fire-and-forget frame."""
        try:
            kind, _reader = wire.open_frame(frame)
        except wire.WireError as error:
            self.pending_error = f"undecodable frame: {error}"
            return None
        if kind in _REQUESTS:
            if self.pending_error is not None:
                # A request answers the latched failure, not itself:
                # serving it would report state the worker never reached
                # (a monitor snapshot is the mirror's ground truth).
                reply = wire.encode_error(self.pending_error)
                self.pending_error = None
                return reply
            try:
                if kind == wire.MSG_QUERY_REQUEST:
                    query = self.requests.query(frame)
                    # measure_wire=False: the frame we are about to send
                    # IS the measurement (encoding twice would double the
                    # serialization cost on the hot path); the client sets
                    # wire_bytes = len(frame) on decode.
                    result = self.engine.execute(self, query,
                                                 measure_wire=False)
                    # Drain *after* executing: alarms the handler raised
                    # ride this reply to the controller's bus.
                    result.alarms = self.drain_alarms()
                    return wire.encode_result(result)
                if kind == wire.MSG_MONITOR_TICK:
                    now, threshold = wire.decode_monitor_tick(frame)
                    self.monitor.run_check(now, threshold)
                    # The check's alarms landed on the pending queue via
                    # the monitor's sink; the reply drains everything
                    # pending (including alarms from earlier activity).
                    return wire.encode_alarm_batch(self.drain_alarms())
                return wire.encode_monitor_state(self.monitor.snapshot())
            except Exception as error:
                return wire.encode_error(f"{type(error).__name__}: {error}")
        if kind == wire.MSG_RECORD_BATCH:
            with self._latching("record batch"):
                self.tib.add_records(wire.decode_record_batch(frame),
                                     adopt=True)
        elif kind == wire.MSG_OBSERVATION_BATCH:
            with self._latching("observation batch"):
                for obs in wire.decode_observation_batch(frame):
                    self.monitor.apply_observation(obs)
        elif kind == wire.MSG_MONITOR_STATE:
            with self._latching("monitor state"):
                self.monitor.restore(wire.decode_monitor_state(frame))
        elif kind == wire.MSG_MONITOR_REOPEN:
            # The cluster's reset_stats(), shipped as the operation: the
            # local agent's monitor just ran the same call on the ledger
            # the observation mirror keeps identical to this one.
            self.monitor.reset_stats()
        elif kind == wire.MSG_RETENTION:
            # Fire-and-forget, like ingest: the stream's FIFO ordering
            # guarantees the cap is in force before any later record
            # batch, so the worker ages records host-side exactly as
            # the controller's local TIB does.
            with self._latching("retention config"):
                max_records, max_bytes = wire.decode_retention(frame)
                self.tib.configure_retention(max_records=max_records,
                                             max_bytes=max_bytes)
        elif kind == wire.MSG_PING:
            # A pong doubles as the worker-side flush barrier: any
            # write-behind records staged by earlier ingest frames are
            # forced into the archive log before the tier counters are
            # read, so the reply never describes a torn cold tier.
            self.tib.flush_archive()
            tiers = self.tib.tier_stats()
            return wire.encode_pong(
                self.tib.total_record_count(),
                len(self.monitor.flows),
                hot_records=tiers["hot_records"],
                hot_bytes=tiers["hot_bytes"],
                cold_records=tiers["cold_records"],
                cold_bytes=tiers["cold_bytes"])
        elif kind == wire.MSG_RESET:
            self.tib.clear()
            self.monitor.reset()
            self.pending_alarms.clear()
            self.pending_error = None  # a reset wipes latched ingest errors
        elif kind == wire.MSG_SLEEP:
            time.sleep(wire.decode_sleep(frame))
        else:
            self.pending_error = f"unknown message type {kind}"
        return None


def group_server_main(group_id: int, hosts: Sequence[str],
                      sock: socket.socket) -> None:
    """Group worker main loop: serve coalesced envelopes for ``hosts``
    (the shard ``WORKER_GROUP_ID=group_id``) over ``sock``, the child end
    of the stream pair the pool made for this group.

    One process owns every host of its shard - a :class:`_HostServer` per
    host - behind that single connection.  Top-level frames are either
    lifecycle (``MSG_SHUTDOWN``, ``MSG_SLEEP`` for stall injection,
    ``MSG_CLOSE_TORN`` for the chaos harness) or ``MSG_GROUP_BATCH``
    envelopes whose entries are routed to the per-host servers in entry
    order; a correlated envelope (id > 0) is answered with one reply
    envelope echoing the id, one reply frame per entry, in entry order.
    The worker exits when the controller goes away or the stream cannot
    be trusted (a corrupt frame: it dies loudly, as an EOF).
    """
    channel = FramedSocket(sock)
    requests = _RequestMemo()
    servers: Dict[str, _HostServer] = {
        host: _HostServer(host, requests) for host in hosts}
    try:
        while True:
            try:
                frame = channel.recv()
                kind = wire.frame_type(frame)
                if kind == wire.MSG_GROUP_BATCH:
                    cid, entries = wire.decode_group_batch(frame)
            except (EndpointClosed, wire.WireError):
                break
            if kind == wire.MSG_SHUTDOWN:
                break
            if kind == wire.MSG_SLEEP:
                time.sleep(wire.decode_sleep(frame))
                continue
            if kind == wire.MSG_CLOSE_TORN:
                # A length prefix promising a whole ping frame, but only
                # two bytes of it: the controller's reader is left
                # mid-frame and must surface WireDecodeError at EOF, not
                # hang or resync.
                torn = wire.stream_frame(wire.encode_ping())
                with suppress(OSError):
                    sock.sendall(torn[:wire.STREAM_PREFIX_BYTES + 2])
                break
            if kind != wire.MSG_GROUP_BATCH:
                continue  # unknown top-level frames are ignored
            replies: List[Tuple[str, bytes]] = []
            for host, inner in entries:
                server = servers.get(host)
                if server is None:
                    reply: Optional[bytes] = wire.encode_error(
                        f"host {host} is not in group {group_id}")
                else:
                    reply = server.serve(inner)
                if cid:
                    if reply is None:
                        # Correlated envelopes must keep reply cardinality:
                        # a fire-and-forget frame inside one is a protocol
                        # misuse, answered loudly rather than skipped.
                        reply = wire.encode_error(
                            "entry produced no reply")
                    replies.append((host, reply))
            if cid:
                try:
                    channel.send(wire.encode_group_batch(cid, replies))
                except OSError:
                    break
    finally:
        channel.close()
