"""Everything a group worker process runs.

The controller's :class:`~repro.core.groupserver.GroupAgentPool` spawns
one :func:`group_server_main` per worker group.  PathDump's queries run on
the end hosts themselves, so the worker owns its shard's per-host state
(a :class:`_HostServer` per host) and answers over one
:class:`FramedSocket`, the class the controller reads the other end with.
No pickle crosses the wire.

An envelope entry names the host it is for.  A monitor sweep, a re-open
and a query ask every host they name the same question, so each is one
entry for the group (:func:`_serve_every_host`): a sweep's reply is one
alarm batch holding the alarms of every host, in shard order, and a
query's is one shard result - the worker runs each host's partial and
folds the units of the plan that lie in its shard itself
(:func:`_answer_query`), so one partial per unit crosses the wire, not
one per host.

A traced request (its flag bit set) is answered with the worker's stages
in the reply's span tail, whole microseconds on ``perf_counter``: one
record per group - a query's ``t.queue`` (the envelope's arrival until
its entry is served), ``t.decode``, the engine's ``t.compile`` /
``t.hot`` / ``t.cold`` / ``t.fold`` summed over its hosts, ``t.slowest``,
``t.merge`` and the codec's ``t.encode``; a tick's ``t.check`` and
``t.encode``.
"""

from __future__ import annotations

import socket
import time
from contextlib import contextmanager, suppress
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import wire
from repro.core.alarms import Alarm
from repro.core.executor import micros
from repro.core.monitor import ActiveMonitor
from repro.core.query import QueryEngine, QueryResult
from repro.core.tib import Tib
from repro.network.packet import FlowId

#: Queries a group worker can answer: every built-in, including the
#: monitor-backed (``poor_tcp_flows``) and alarm-raising
#: (``path_conformance``) ones - the worker owns the host's monitor and its
#: alarms travel back over the wire.  Only *custom* handlers registered on
#: individual in-process agents fall back local (the worker cannot know
#: them).
SERVED_QUERIES = QueryEngine().names()

#: Request frames (answered; a latched ingest failure answers the next one
#: instead).
_REQUESTS = frozenset((wire.MSG_MONITOR_TICK, wire.MSG_MONITOR_PULL))


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


class _HostServer:
    """One host in a worker: its state (the ``tib``, ``monitor`` and
    ``alarm`` the query handlers read), and the frame switch
    ``frame -> reply``.

    :func:`group_server_main` owns one of these per host of its shard and
    routes ``MSG_GROUP_BATCH`` entries to them; each answers everything in
    :data:`SERVED_QUERIES` (for :func:`_answer_query`) from its own
    :class:`Tib` and :class:`ActiveMonitor`.  Record/observation batches,
    monitor-state seeds, re-opens and retention caps are fire-and-forget
    (the stream's FIFO ordering guarantees they are applied before any
    later query or tick); an ingest failure is latched on
    ``pending_error`` and answers the next request instead of being lost.
    The worker's monitor is the authoritative one in the worker modes:
    alarms raised host-side (periodic checks, ``alarm`` calls from query
    handlers) queue on ``pending_alarms`` and leave on the next reply that
    can carry them: a monitor tick's alarm batch, or a shard result's
    alarm list.
    """

    def __init__(self, host: str) -> None:
        self.host = host
        self.tib = Tib(host)
        self.pending_alarms: List[Alarm] = []
        self.monitor = ActiveMonitor(host,
                                     alarm_sink=self.pending_alarms.append)
        self.engine = QueryEngine()
        self.pending_error: Optional[str] = None

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

    def tick(self, now: float, threshold: Optional[int]) -> Tuple[Alarm, ...]:
        """One periodic check; returns every pending alarm - the check's,
        which land on the pending queue via the monitor's sink, and any
        from earlier activity - for the reply being built."""
        self.monitor.run_check(now, threshold)
        return self.drain_alarms()

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
        """Serve one frame addressed to this host; returns the reply
        bytes, or ``None`` for a fire-and-forget frame."""
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
                if kind == wire.MSG_MONITOR_TICK:
                    return _answer_tick((self,), frame)
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


def _serve_every_host(servers: Dict[str, _HostServer], engine: QueryEngine,
                      frame: bytes, arrived: float) -> Optional[bytes]:
    """Serve one entry addressed to the group
    (:data:`~repro.core.wire.EVERY_HOST`): ``servers`` by host, in shard
    order, and ``arrived`` the envelope's arrival stamp.

    A monitor tick and a shard query first answer an ingest failure
    latched on any host they ask - one error frame naming each latched
    host, those latches cleared, nothing run - as a per-host request
    answers its own: work run beside it would drain alarms, or latch poor
    flows, that the error then fails to carry.  Otherwise a tick runs
    every host's check and one alarm batch carries all of their alarms,
    host by host; a shard query is folded (:func:`_answer_query`).  A
    re-open runs every monitor's ``reset_stats()`` (fire-and-forget).
    Any other frame is answered with an error frame.
    """
    try:
        kind = wire.frame_type(frame)
        if kind == wire.MSG_MONITOR_REOPEN:
            for server in servers.values():
                server.monitor.reset_stats()
            return None
        if kind == wire.MSG_SHARD_QUERY:
            return _answer_query(servers, engine, frame, arrived)
        if kind != wire.MSG_MONITOR_TICK:
            return wire.encode_error(
                f"message type {kind} cannot be addressed to every host")
        shard = tuple(servers.values())
        return _latched(shard) or _answer_tick(shard, frame)
    except Exception as error:
        return wire.encode_error(f"{type(error).__name__}: {error}")


def _latched(servers: Sequence[_HostServer]) -> Optional[bytes]:
    """The error frame naming every ingest failure latched on
    ``servers`` (their latches cleared), or ``None``."""
    latched = [server for server in servers
               if server.pending_error is not None]
    if not latched:
        return None
    detail = "; ".join(f"{server.host}: {server.pending_error}"
                       for server in latched)
    for server in latched:
        server.pending_error = None
    return wire.encode_error(detail)


#: The engine's stages a traced shard query sums over its hosts.
_HOST_STAGES = ("t.compile", "t.hot", "t.cold", "t.fold")


def _answer_query(servers: Dict[str, _HostServer], engine: QueryEngine,
                  frame: bytes, arrived: float) -> bytes:
    """The shard result answering a shard query: each host's partial,
    folded unit by unit with :meth:`~repro.core.query.QueryEngine.fold` -
    the fold the controller runs - and a report per host.

    A host's result is sized with the alarms it drained, as a reply of
    its own would carry them; the alarms then travel once, in the result's
    alarm list.  A host that is a unit alone is sized by encoding it: its
    frame is the unit's partial as well, unless it drained alarms, which
    the partial leaves out.  A host that fails (its handler raised) fails
    the group: one error frame naming it, every alarm drained so far put
    back on its host's queue for the next reply.  Traced, the result's
    span tail is one record for the group: ``t.queue`` (the envelope's
    arrival until this entry is served), ``t.decode``, the engine's
    stages summed over the hosts, ``t.slowest`` (the slowest host's
    execution), ``t.merge`` (every merge of the fold) and the codec's
    ``t.encode``.
    """
    started = time.perf_counter()
    shard = wire.decode_shard_query(frame)
    query, _spec, traced = wire.decode_query_request(shard.request)
    decoded = time.perf_counter()
    asked = []
    for host in shard.hosts:
        server = servers.get(host)
        if server is None:
            return wire.encode_error(f"host {host} is not in this group")
        asked.append(server)
    latched = _latched(asked)
    if latched is not None:
        return latched
    drained: List[Tuple[_HostServer, Tuple[Alarm, ...]]] = []
    stages: Dict[str, int] = {}
    alone = {unit.children[0].host: b"" for unit in shard.units
             if len(unit.children) == 1 and not unit.children[0].children}

    def work(host: str) -> QueryResult:
        server = servers[host]
        run: Optional[Dict[str, int]] = {} if traced else None
        result = server.engine.execute(server, query, measure_wire=False,
                                       stages=run)
        result.alarms = server.drain_alarms()
        drained.append((server, result.alarms))
        if host in alone:
            encoded = wire.encode_result(result)
            result.wire_bytes = len(encoded)
            if not result.alarms:
                alone[host] = encoded
        for key, us in (run or {}).items():
            stages[key] = stages.get(key, 0) + us
        return result

    reports: List[Tuple[str, float, float, int]] = []
    partials: List[Tuple[float, bytes]] = []
    merged = 0.0
    for unit in shard.units:
        gather = engine.fold(query, unit, work)
        if gather.hosts_failed:
            for server, alarms in drained:
                server.pending_alarms[:0] = alarms
            return wire.encode_error("; ".join(
                f"{host}: {gather.reports[host].error}"
                for host in gather.hosts_failed))
        merge_s = gather.merge_s
        reports += [(report.host, report.exec_s, merge_s[report.host],
                     report.response_bytes or 0)
                    for report in gather.reports.values()]
        merged += sum(merge_s.values())
        partial = alone.get(unit.children[0].host)
        if not partial:
            gather.value.alarms = ()  # they travel in the alarm list
            partial = wire.encode_result(gather.value)
        partials.append((merge_s[None], partial))
    alarms = [alarm for _server, raised in drained for alarm in raised]
    if not traced:
        return wire.encode_shard_result(reports, partials, alarms)
    tail = {key: stages.get(key, 0) for key in _HOST_STAGES}
    tail.update({"t.queue": micros(started - arrived),
                 "t.decode": micros(decoded - started),
                 "t.slowest": micros(max(report[1] for report in reports)),
                 "t.merge": micros(merged)})
    return wire.encode_shard_result(reports, partials, alarms, tail)


def _answer_tick(servers: Sequence[_HostServer], frame: bytes) -> bytes:
    """The alarm batch answering a monitor tick: every server's check, in
    order, and - traced - their ``t.check`` (the codec adds
    ``t.encode``)."""
    started = time.perf_counter()
    now, threshold, traced = wire.decode_monitor_tick(frame)
    alarms: List[Alarm] = []
    for server in servers:
        alarms += server.tick(now, threshold)
    stages = ({"t.check": micros(time.perf_counter() - started)}
              if traced else None)
    return wire.encode_alarm_batch(alarms, stages)


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
    order - an entry addressed to :data:`~repro.core.wire.EVERY_HOST` to
    all of them (:func:`_serve_every_host`); a correlated envelope (id >
    0) is answered with one reply envelope echoing the id, one reply frame
    per entry, in entry order, under the host the entry named.  The worker
    exits when the controller goes away or the stream cannot be trusted (a
    corrupt frame: it dies loudly, as an EOF).
    """
    channel = FramedSocket(sock)
    servers: Dict[str, _HostServer] = {host: _HostServer(host)
                                       for host in hosts}
    engine = QueryEngine()
    try:
        while True:
            try:
                frame = channel.recv()
                arrived = time.perf_counter()
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
                if server is not None:
                    reply: Optional[bytes] = server.serve(inner)
                elif host == wire.EVERY_HOST:
                    reply = _serve_every_host(servers, engine, inner, arrived)
                else:
                    reply = wire.encode_error(
                        f"host {host} is not in group {group_id}")
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
