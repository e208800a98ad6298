"""The worker plane's controller side: group-sharded agent servers
behind one connected stream each.

Every worker mode of the cluster runs on this one pool.  One worker
process per host (``mode="process"``) is simply the shape
``group_count=len(hosts)`` - fine for an 8-host testbed, hopeless at the
paper's deployment scale (a 1000-host fat-tree would need a thousand
processes, and the event-plane bench shows most of the wire cost is
per-frame overhead anyway); ``mode="socket"`` picks fewer, larger groups.
Everything a worker process runs lives in :mod:`~repro.core.worker`.

* **Worker groups.** Hosts are sharded into deterministic contiguous
  groups (:func:`shard_hosts`, ``WORKER_GROUP_ID``/``WORKER_GROUP_COUNT``
  style); one worker process owns *M* hosts' TIBs and monitors, so a
  controller drives N processes x M hosts.  The pool keeps one
  :class:`_Group` slot per group: its hosts, its lock, and the
  connection and process currently serving it.
* **One connection per worker, made by the parent.** Spawning a group
  creates one connected ``AF_UNIX`` stream pair and hands the child end
  to the worker as a process argument: no listener, no handshake, and
  nothing a stranger could connect to.  The stream carries
  length-delimited (:class:`~repro.core.worker.FramedSocket`)
  request/reply envelopes tagged by correlation id, multiplexed by
  :class:`_GroupConn`: a scatter sends to every group before it waits on
  the first.
* **Frame coalescing.** Ingest batches, re-seed streams and query
  requests for all hosts of a group pack into a single
  ``MSG_GROUP_BATCH`` envelope: one transport message where naive
  per-host send pays M.  A question asked of the whole shard - a sweep's
  monitor tick, a re-open - is one entry addressed to
  :data:`~repro.core.wire.EVERY_HOST`, not M copies of one frame, and a
  sweep's reply is one alarm batch for the shard, split by host here
  (:meth:`GroupAgentPool.group_monitor_tick`).  Fire-and-forget frames
  wait in the connection's outbox and leave ahead of the next request.
  The inner frames are opaque here, and a plan travels as a parameter of
  an ordinary query request - no group-transport change per new
  question, ever.
* **Dead-agent failure semantics.** A dead/hung/undecodable group
  connection surfaces as :class:`AgentServerError`, which the executor
  reports like a dead in-process agent - for every host of the shard,
  the connection being the failure domain; with a
  :class:`~repro.core.supervisor.Supervisor` attached the group is
  respawned and re-seeded over a fresh connection, and
  :class:`~repro.core.supervisor.ChaosPolicy` injects faults keyed by
  group.

The protocol is machine-agnostic; the spawn plumbing (a stream pair
inherited by a local child) is not.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time
from dataclasses import dataclass
from multiprocessing.process import BaseProcess
from multiprocessing.util import register_after_fork
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core import wire
from repro.core.alarms import Alarm
from repro.core.executor import DeadlineExceeded, micros
from repro.core.monitor import MonitorSnapshot, TransferObservation
from repro.core.query import QueryResult
from repro.core.supervisor import GroupSeed, WorkerSeed
from repro.core.worker import EndpointClosed, FramedSocket, group_server_main
from repro.counters import Counters
from repro.storage.records import PathFlowRecord

#: Default worker-group count when the caller does not choose one.
#: Deterministic (not derived from the machine) so sweeps reproduce.
DEFAULT_GROUP_COUNT = 8

#: Pending outbox bytes that flush without waiting for a request: small
#: enough that the worker applies a burst while the controller is still
#: ingesting it (the next query waits for the tail, not the whole burst)
#: and that no envelope comes near :data:`~repro.core.wire.MAX_FRAME_BYTES`.
OUTBOX_FLUSH_BYTES = 32 << 10

#: Distinguishes "use the pool's reply timeout" from an explicit ``None``.
_UNSET = object()

#: Held from a group's stream pair being made until the parent's copy of
#: the child end is closed: a forked worker inherits every descriptor open
#: in the parent, and one that inherited another group's child end would
#: keep that end alive, so the other worker's death would never reach its
#: reader as EOF.  Module-wide, because every pool forks from this process.
_SPAWN_LOCK = threading.Lock()


def shard_hosts(hosts: Sequence[str],
                group_count: int) -> List[Tuple[str, ...]]:
    """Split ``hosts`` into ``group_count`` deterministic contiguous shards.

    FlakeBench-style ``WORKER_GROUP_ID``/``WORKER_GROUP_COUNT`` sharding:
    group *g* of *N* owns a contiguous block of the host list, balanced to
    within one host (the first ``len(hosts) % N`` groups get the extra).
    Contiguity matters for byte-identity: folding group partials in group
    order visits hosts in exactly the canonical host order, so merges
    associate the same way as a serial scatter.
    """
    if group_count < 1:
        raise ValueError(f"group_count must be >= 1, got {group_count}")
    if group_count > len(hosts):
        group_count = max(1, len(hosts))
    base, extra = divmod(len(hosts), group_count)
    shards: List[Tuple[str, ...]] = []
    start = 0
    for gid in range(group_count):
        size = base + (1 if gid < extra else 0)
        shards.append(tuple(hosts[start:start + size]))
        start += size
    return shards


@dataclass(slots=True)
class GroupPoolStats(Counters):
    """Frame/byte/envelope counters and self-healing telemetry of one
    group pool.

    ``frames_*`` count *logical* per-host frames - a frame is a host
    addressed, so an entry addressed to every host of a group counts once
    per host of it; ``envelopes_*`` count the physical transport messages
    that carried them, so ``frames_sent / envelopes_sent`` is the measured
    coalescing factor.
    The supervision counters, keyed per *group* worker, let callers tell
    "healthy" from "degraded" at a glance: ``restarts``/``reseed_ms`` say
    how often (and how expensively) workers were recovered,
    ``circuit_open`` how many groups exhausted their restart budget and
    fell back to dead-agent semantics, ``mirror_detaches`` how many
    ingest mirrors gave up on an unrecoverable worker, and
    ``decode_errors`` how many replies were corrupt or contradicted their
    request - undecodable, short or long on entries, answered for the
    wrong host (each one also counts as a worker failure).
    ``reconnects`` counts fresh connections made after the initial spawn
    (one per supervised respawn).
    """

    frames_sent: int = 0
    bytes_sent: int = 0
    frames_received: int = 0
    bytes_received: int = 0
    envelopes_sent: int = 0
    envelopes_received: int = 0
    #: Fresh worker connections made after the initial spawn.
    reconnects: int = 0
    #: Supervised restarts that completed (respawn + new connection + re-seed).
    restarts: int = 0
    #: Total milliseconds spent respawning and re-seeding group workers.
    reseed_ms: float = 0.0
    #: Groups whose restart budget was exhausted (circuit opened).
    circuit_open: int = 0
    #: Ingest mirrors that detached after delivery failed unrecoverably.
    mirror_detaches: int = 0
    #: Reply envelopes/streams that failed to decode (protocol desync;
    #: the group worker is killed and, when supervised, restarted).
    decode_errors: int = 0


class _Waiter:
    """One in-flight correlated exchange on a multiplexed connection."""

    __slots__ = ("cid", "event", "replies", "reply_bytes", "landed", "error")

    def __init__(self, cid: int) -> None:
        self.cid = cid
        self.event = threading.Event()
        self.replies: Optional[List[Tuple[str, bytes]]] = None
        self.reply_bytes = 0
        #: ``perf_counter`` stamp the reader thread put on the reply.
        self.landed = 0.0
        self.error: Optional[str] = None


class Exchange:
    """A correlated envelope written to a group worker whose reply has not
    been consumed yet.

    :meth:`GroupAgentPool.send` returns one; the consume step takes it
    (:meth:`GroupAgentPool.group_query`,
    :meth:`GroupAgentPool.group_monitor_tick`).  The reply lands on the
    connection's reader thread whenever the worker answers, whether or not
    anyone is consuming yet.
    """

    __slots__ = ("conn", "hosts", "waiter", "request_bytes", "sent_at",
                 "reseed", "stages")

    def __init__(self, conn: "_GroupConn", hosts: List[str], waiter: _Waiter,
                 request_bytes: int, sent_at: float, reseed: bool,
                 stages: Optional[Dict[str, int]] = None) -> None:
        self.conn = conn
        #: The entries' hosts, in envelope order (``EVERY_HOST`` for an
        #: entry addressed to the whole group).
        self.hosts = hosts
        self.waiter = waiter
        self.request_bytes = request_bytes
        self.sent_at = sent_at
        self.reseed = reseed
        #: A traced exchange's stages, whole microseconds: the controller's
        #: ``send`` / ``wait`` / ``decode`` (and a sweep's ``deliver``),
        #: then a tick's worker stages from its batch's span tail;
        #: ``None`` when untraced.
        self.stages = stages

    @property
    def key(self) -> str:
        return self.conn.key

    @property
    def exec_s(self) -> float:
        """Seconds from the send until the reply landed (the reader
        thread's stamp): how long the exchange took, not how long its
        consumer waited."""
        return self.waiter.landed - self.sent_at


@dataclass(slots=True)
class _Pending:
    """One outbox entry for ``host``: a finished frame (``kind`` is
    ``None``, ``body`` the frame), or an open record/observation batch
    still taking bodies - ``count`` of them concatenated in ``body``,
    framed by :func:`~repro.core.wire.finish_batch` at flush."""

    host: str
    kind: Optional[int]
    count: int
    body: Union[bytes, bytearray]


class _GroupConn:
    """One multiplexed connection to a group worker.

    An exchange has two halves.  *Send* registers a waiter under a fresh
    correlation id and writes the request (:meth:`register`, then
    :meth:`send`); *consume* waits on the waiter later, from whatever
    thread holds the exchange.  A dedicated reader thread demultiplexes
    reply envelopes to their waiters by correlation id and stamps when
    each landed, so any number of exchanges can be in flight on one
    stream - a scatter writes every group's envelope before it waits on
    the first - and replies are drained while the caller is still
    writing, so a large reply never blocks a worker.  All writes
    serialise on ``_send_lock`` (envelopes must not interleave bytes).
    Any stream failure - EOF, an undecodable stream or envelope, a reply
    for an exchange nobody waits on - marks the connection dead and fails
    every pending waiter, so no consumer ever hangs on a lost reply; the
    reader alone gives that verdict.

    **The outbox.**  Fire-and-forget entries (:meth:`post`) queue, in
    order, on the connection's outbox; an ingest batch whose host's newest
    entry is an open batch of the same kind appends its bodies to it.  The
    outbox is written as *one* id-0 envelope ahead of every correlated
    request (:meth:`send`: drain, flush envelope and request go out under
    one hold of ``_send_lock``, so no thread's request can overtake an
    entry whose ``post`` had returned), by itself once it holds
    :data:`OUTBOX_FLUSH_BYTES`, and on a ``send`` with no request
    (``reset_stats``).  FIFO delivery plus the worker's in-order serving
    then give read-your-writes: an exchange issued after a ``post``
    returned is served after that entry was applied.  The outbox dies
    with its connection: ``post`` onto a dead one fails at once, and what
    it still held is dropped, never re-sent (:meth:`drop_outbox`) - a
    supervised restart re-seeds from the local TIB, which already holds
    every buffered write.
    """

    def __init__(self, pool: "GroupAgentPool", key: str,
                 endpoint: FramedSocket, proc: BaseProcess) -> None:
        self._pool = pool
        self.key = key
        self.endpoint = endpoint
        #: The worker this connection was spawned with.
        self.proc = proc
        self.dead: Optional[str] = None  # guarded-by: _lock
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._outbox: List[_Pending] = []  # guarded-by: _send_lock
        self._outbox_bytes = 0  # guarded-by: _send_lock
        #: Each host's newest outbox entry - the one a batch combines into.
        self._newest: Dict[str, _Pending] = {}  # guarded-by: _send_lock
        self._pending: Dict[int, _Waiter] = {}  # guarded-by: _lock
        self._next_cid = 1  # guarded-by: _lock
        self._ended = threading.Event()  # set once ``dead`` is
        self._reader = threading.Thread(
            target=self._read_loop, name=f"pathdump-mux-{key}", daemon=True)
        self._reader.start()

    def register(self) -> _Waiter:
        """Allocate a correlation id and park a waiter on it."""
        with self._lock:
            if self.dead is not None:
                raise AgentServerError(self.dead)
            cid = self._next_cid
            self._next_cid += 1
            waiter = _Waiter(cid)
            self._pending[cid] = waiter
        return waiter

    def post(self, host: str, kind: Optional[int], count: int, body,
             reseed: bool = False) -> None:
        """Queue one entry (:class:`_Pending`; the outbox keeps an open
        batch's ``bytearray``).  Fails at once - a field read, not a
        syscall - when the reader already marked the connection dead.

        So an ingest mirror on a dead worker detaches at the first post
        after the reader's verdict (it has read the stream's end), or at
        the next exchange on this connection - the outbox flush ahead of
        the next request or tick, or the flush a full outbox forces -
        whichever comes first.  A post that lands between the kill and
        the verdict queues like any other and raises nothing."""
        try:
            with self._send_lock:
                with self._lock:
                    dead = self.dead
                if dead is not None:
                    raise AgentServerError(dead)
                newest = self._newest.get(host)
                if kind is not None and newest is not None \
                        and newest.kind == kind:
                    newest.count += count
                    newest.body += body
                else:
                    self._newest[host] = entry = _Pending(host, kind, count,
                                                          body)
                    self._outbox.append(entry)
                self._outbox_bytes += len(body)
                if self._outbox_bytes >= OUTBOX_FLUSH_BYTES:
                    self._flush(reseed)
        except (OSError, ValueError) as error:
            raise self._unreachable(error) from error

    def send(self, envelope: Optional[bytes] = None, frames: int = 0,
             reseed: bool = False) -> None:
        """Write the outbox and then ``envelope`` (a correlated request of
        ``frames`` entries; ``None`` just flushes) under one hold of the
        send lock.  Raises :class:`AgentServerError` on a dead stream."""
        try:
            with self._send_lock:
                self._flush(reseed)
                if envelope is not None:
                    self._write(envelope, frames, reseed)
        except (OSError, ValueError) as error:
            raise self._unreachable(error) from error

    def hang_up(self) -> None:
        """Ask the worker to exit (best effort; the outbox is abandoned)."""
        try:
            with self._send_lock:
                self.endpoint.send(wire.encode_shutdown())
        except (OSError, ValueError):
            pass

    def drop_outbox(self) -> List[str]:
        """Discard whatever the outbox holds; returns the hosts that had
        entries in it, in first-entry order."""
        with self._send_lock:
            # A group-addressed entry (a re-open) mirrors no host's writes.
            hosts = [host for host in self._newest
                     if host != wire.EVERY_HOST]
            self._clear_outbox()
        return hosts

    def _clear_outbox(self) -> None:  # holds: _send_lock
        self._outbox.clear()
        self._newest.clear()
        self._outbox_bytes = 0

    def _flush(self, reseed: bool) -> None:  # holds: _send_lock
        """Write the whole outbox as one id-0 envelope (kept if the write
        fails, so the failure path can tell whose writes were lost)."""
        if not self._outbox:
            return
        entries = [(entry.host, entry.body if entry.kind is None else
                    wire.finish_batch(entry.kind, entry.count, entry.body))
                   for entry in self._outbox]
        self._write(wire.encode_group_batch(0, entries),
                    self._pool._frames(self.key, entries), reseed)
        self._clear_outbox()

    def _write(self, envelope: bytes, frames: int,
               reseed: bool) -> None:  # holds: _send_lock
        """One protocol envelope onto the stream: the chaos hook first
        (it may kill the worker or inject fault frames ahead), then the
        bytes, then the pool's counters."""
        pool = self._pool
        if pool.chaos is not None:
            for extra in pool.chaos.before_send(pool, self.key, envelope,
                                                reseed=reseed):
                try:
                    self.endpoint.send(extra)
                except (OSError, ValueError):
                    pass  # injected fault frames are best-effort
        self.endpoint.send(envelope)
        pool._count_sent(frames, len(envelope))

    def _unreachable(self, error: Exception) -> AgentServerError:
        """A write failed (called with the send lock released), which
        happens only once the stream is gone - the peer closed its end, or
        :meth:`close` closed ours - so the reader is at, or about to
        reach, the end of it too.  The failure is reported after the
        reader's verdict (under the same deadline as any reply): the
        reader alone classifies how a stream ended, so one torn mid-frame
        is counted as the decode error it is whichever thread noticed
        first.  (The ``close`` here only matters past that deadline.)"""
        detail = (f"agent server group {self.key} unreachable: "
                  f"{type(error).__name__}: {error}")
        self._ended.wait(self._pool.reply_timeout_s)
        self.close(detail)
        return AgentServerError(detail)

    def kill(self) -> None:
        """Hard-kill this connection's worker and wait for its death -
        never a fresh one a concurrent restart has already swapped in."""
        self.proc.kill()
        self.proc.join(5.0)

    def close(self, detail: str) -> None:
        """Mark the connection dead with ``detail`` and fail every pending
        waiter (the first call also closes the stream)."""
        with self._lock:
            first = self.dead is None
            if first:
                self.dead = detail
            pending = list(self._pending.values())
            self._pending.clear()
        for waiter in pending:
            waiter.error = detail
            waiter.event.set()
        self._ended.set()
        if first:
            # Exactly once: the reader (stream ended) and a caller
            # (timeout, discard, shutdown) can both get here, and a second
            # close could hit a descriptor number the process has already
            # handed to someone else.
            self.endpoint.close()

    def _read_loop(self) -> None:
        pool = self._pool
        while True:
            try:
                frame = self.endpoint.recv()
            except EndpointClosed as error:
                self.close(f"group worker {self.key} died mid-exchange: "
                           f"{error}")
                return
            except wire.WireError as error:
                pool._count_decode_error()
                self.close(f"group worker {self.key} sent an undecodable "
                           f"stream; worker killed: {error}")
                self.kill()
                return
            pool._count_envelope_received(len(frame))
            if pool.chaos is not None:
                frame = pool.chaos.on_reply(self.key, frame)
            try:
                cid, entries = wire.decode_group_batch(frame)
            except wire.WireError as error:
                pool._count_decode_error()
                self.close(f"group worker {self.key} sent an undecodable "
                           f"reply; worker killed: {error}")
                self.kill()
                return
            pool._count_frames_received(pool._frames(self.key, entries))
            with self._lock:
                waiter = self._pending.pop(cid, None)
                closed = self.dead is not None
            if closed:
                return  # a caller gave the connection up with this in flight
            if waiter is None:
                # A reply nobody is waiting for (a worker never sends id 0,
                # and giving up on an exchange closes the connection): the
                # id was corrupted in flight, and the exchange it belonged
                # to would wait forever.
                pool._count_decode_error()
                self.close(f"group worker {self.key} answered unknown "
                           f"exchange {cid}; worker killed")
                self.kill()
                return
            waiter.replies = entries
            waiter.reply_bytes = len(frame)
            waiter.landed = time.perf_counter()
            waiter.event.set()


class AgentServerError(RuntimeError):
    """A group worker failed or became unreachable.  The scatter-gather
    executor turns it into the same ``partial=True`` / ``hosts_failed`` /
    ``W_HOST_FAILED`` outcome as a dead in-process agent."""


class _Group:
    """One worker group's slot in the pool: its fixed ``key``, ``gid``
    and ``hosts``, its ``lock``, and the ``conn`` serving it (with its
    worker process, ``conn.proc``).

    This class touches ``conn`` only under ``lock`` (:meth:`spawn`
    replaces it, :meth:`discard` ends it); the lock also serialises
    supervision, so concurrent failures of one worker make one restart.
    Code outside the class reads ``conn`` - and ``conn.proc`` - without
    the lock, once per use: kills must not queue behind a restart in
    progress, liveness probes are racy by contract, a stale value is a
    dead connection or process that fails loudly on use, and teardown
    reads them only after the pool latched ``_closed``, which stops
    respawns.
    """

    __slots__ = ("key", "gid", "hosts", "lock", "conn")

    def __init__(self, pool: "GroupAgentPool", gid: int,
                 hosts: Tuple[str, ...]) -> None:
        self.key = f"group-{gid}"
        self.gid = gid
        self.hosts = hosts
        self.lock = threading.Lock()
        self.spawn(pool)

    def spawn(self, pool: "GroupAgentPool") -> None:  # holds: lock
        """Start a worker for this group on a fresh stream pair (from
        ``__init__``, before any concurrency, or after :meth:`discard`)."""
        with _SPAWN_LOCK:
            ours, theirs = socket.socketpair()
            # A forked child closes every parent end it inherited, so a
            # worker sees EOF once the controller is gone, however it went.
            register_after_fork(ours, socket.socket.close)
            try:
                process = multiprocessing.Process(
                    target=group_server_main,
                    args=(self.gid, self.hosts, theirs),
                    name=f"pathdump-{self.key}", daemon=True)
                process.start()
            except BaseException:
                ours.close()
                raise
            finally:
                theirs.close()
        conn = _GroupConn(pool, self.key, FramedSocket(ours), process)
        self.conn = conn  # guarded-by: lock

    def discard(self) -> None:  # holds: lock
        """Close the connection and kill the worker (no replacement)."""
        self.conn.close(f"group worker {self.key} discarded")
        self.conn.kill()


class GroupAgentPool:
    """N group-worker processes x M hosts each, behind one connected
    stream apiece.

    The controller-side handle of the worker plane: a per-host client
    API (``add_records``/``query``/``monitor_tick``/...) for the
    cluster's ingest mirrors and single-host probes, plus the coalesced
    group API (``group_monitor_tick``/``group_query``/
    ``group_ping_state``) that packs one envelope per *group* instead of
    one frame per *host* - every query scatter, direct or multi-level,
    goes through ``group_query``.  ``group_monitor_tick`` and
    ``group_query`` are consume steps: a scatter calls :meth:`send` for
    every group first and then consumes each returned exchange, so all
    envelopes leave before the first wait.

    Args:
        hosts: hosts to serve, in canonical (scatter) order.
        group_count: worker-group count (defaults to
            :data:`DEFAULT_GROUP_COUNT`, capped at ``len(hosts)``);
            sharding is :func:`shard_hosts`.  Each group's worker is
            spawned (the platform's default start method) on one
            ``socket.socketpair()``; the pool creates no filesystem entry
            and runs no accept loop.
        reply_timeout_s: optional deadline for a group's reply envelope;
            a timed-out group worker is killed (the multiplexed stream
            cannot be resynchronised) and, when supervised, restarted.
        supervisor: optional :class:`~repro.core.supervisor.Supervisor`;
            failures are keyed by *group key* (``group-N``), and restart
            recovery re-seeds every host of the group over a fresh
            connection.
        chaos: optional :class:`~repro.core.supervisor.ChaosPolicy`,
            likewise keyed by group key.
    """

    def __init__(self, hosts: Sequence[str],
                 group_count: Optional[int] = None,
                 reply_timeout_s: Optional[float] = None,
                 supervisor=None, chaos=None) -> None:
        if not hosts:
            raise ValueError("GroupAgentPool needs at least one host")
        self.reply_timeout_s = reply_timeout_s
        self.supervisor = supervisor
        self.chaos = chaos
        self.stats = GroupPoolStats()  # guarded-by: _stats_lock
        self._stats_lock = threading.Lock()
        #: Cluster hook ``(host, detail)``: writes for ``host`` were still
        #: in the outbox of a connection that died and was not recovered.
        self.mirror_lost = None
        self._closed = False
        self.groups = shard_hosts(list(hosts), group_count
                                  or DEFAULT_GROUP_COUNT)
        self.group_count = len(self.groups)
        #: One slot per worker group, by key and by each of its hosts;
        #: neither map changes once construction is done.
        self._slots: Dict[str, _Group] = {}
        self._slot_of_host: Dict[str, _Group] = {}
        try:
            for gid, shard in enumerate(self.groups):
                slot = _Group(self, gid, shard)
                self._slots[slot.key] = slot
                self._slot_of_host.update((host, slot) for host in shard)
        except BaseException:
            self.shutdown()
            raise

    # ------------------------------------------------------------------- API
    @property
    def hosts(self) -> List[str]:
        """Every host this pool serves, in canonical (shard) order."""
        # Shards are fixed at construction, so the snapshot is stable.
        return [host for shard in self.groups for host in shard]

    def group_keys(self) -> List[str]:
        """The group worker keys (``group-0`` ... ``group-N-1``)."""
        return list(self._slots)

    def group_hosts(self, key: str) -> Tuple[str, ...]:
        """The hosts group ``key`` owns, in canonical order."""
        slot = self._slots.get(key)
        if slot is None:
            raise AgentServerError(f"no agent server group {key}")
        return slot.hosts

    def _slot(self, name: str) -> _Group:
        """The slot of the group serving ``name`` (a host or a group key)."""
        slot = self._slot_of_host.get(name) or self._slots.get(name)
        if slot is None:
            raise AgentServerError(f"no agent server for {name}")
        return slot

    def runs(self, targets: Sequence[str]) -> List[Tuple[str, List[str]]]:
        """``targets`` as ``(group key, hosts)`` runs of consecutive
        same-group hosts (shards are contiguous: one run per group for the
        canonical host order); a coalesced scatter gathers a group's runs
        into its one envelope.  A target no worker serves is a run of its
        own under its own name, which fails when asked, like any dead
        agent."""
        runs: List[Tuple[str, List[str]]] = []
        for host in targets:
            slot = self._slot_of_host.get(host)
            key = host if slot is None else slot.key
            if runs and runs[-1][0] == key:
                runs[-1][1].append(host)
            else:
                runs.append((key, [host]))
        return runs

    # ------------------------------------------------------- per-host client
    def add_records(self, host: str,
                    records: Sequence[PathFlowRecord]) -> int:
        """Mirror a record batch to ``host``'s group worker: encoded now
        (the caller may mutate its records afterwards), queued on the
        group connection's outbox, written ahead of the next request on
        that connection or when the outbox fills (:class:`_GroupConn`).
        What "returned" guarantees: every query, tick or probe issued
        after this call returned is served after these records were
        applied.  Returns the encoded bytes queued; raises
        :class:`AgentServerError` when the connection is already known
        dead (or a triggered flush fails)."""
        return self._post_batch(host, records, wire.MSG_RECORD_BATCH,
                                wire.append_record)

    def add_observations(self, host: str,
                         observations: Sequence[TransferObservation]) -> int:
        """Mirror a transfer-observation batch to ``host``'s group worker;
        deferred and combined exactly like :meth:`add_records`."""
        return self._post_batch(host, observations,
                                wire.MSG_OBSERVATION_BATCH,
                                wire.append_observation)

    def set_retention(self, host: str, max_records: Optional[int],
                      max_bytes: Optional[int]) -> None:
        """Configure ``host``'s hot-tier bounds (fire-and-forget; outbox
        and stream are FIFO, so the cap is in force before later ingest)."""
        self._post(host, wire.encode_retention(max_records, max_bytes))

    def seed_monitor(self, host: str, snapshot: MonitorSnapshot) -> None:
        """Replace ``host``'s worker monitor state (fire-and-forget)."""
        self._post(host, wire.encode_monitor_state(snapshot))

    def reopen_monitors(self, key: str) -> None:
        """Make every worker monitor of group ``key`` run ``reset_stats()``
        - alert counters zeroed, every latch cleared: one fire-and-forget
        entry addressed to every host, written at once, so the worker
        applies it before the next tick is asked."""
        conn = self._conn_for(key)
        try:
            conn.post(wire.EVERY_HOST, None, 1, wire.encode_monitor_reopen())
            conn.send()
        except AgentServerError as error:
            raise self._worker_failed(conn, str(error)) from error

    def seed_host(self, host: str, seed: WorkerSeed,
                  reseed: bool = False) -> None:
        """Queue ``host``'s state the way the startup sync and a restart
        re-seed both ship it: retention cap first (in force before the
        snapshot streams in, so the worker ages records into its own cold
        archive), records, monitor state."""
        if seed.retention is not None:
            self._post(host, wire.encode_retention(*seed.retention),
                       reseed=reseed)
        self._post_batch(host, seed.records or (), wire.MSG_RECORD_BATCH,
                         wire.append_record, reseed)
        if seed.monitor is not None:
            self._post(host, wire.encode_monitor_state(seed.monitor),
                       reseed=reseed)

    def flush(self, key: str) -> None:
        """Write group ``key``'s outbox now (monitor re-seeds and
        re-opens: the worker starts applying them at once, and
        ``reset_stats`` charges them to the interval that ends, not the
        one that starts)."""
        conn = self._conn_for(key)
        try:
            conn.send()
        except AgentServerError as error:
            raise self._worker_failed(conn, str(error)) from error

    def query(self, host: str, query) -> QueryResult:
        """Run ``query`` on ``host`` alone via its group's multiplexed
        connection (a single-host probe; scatters use
        :meth:`group_query`); returns the host's partial result, its
        ``wire_bytes`` the measured inner reply frame length.  Alarms the
        worker had pending ride the reply on ``result.alarms`` - the
        caller is responsible for dispatching them to the alarm bus."""
        conn, reply = self._ask(host, wire.encode_query_request(query, None))
        return self._checked_decode(conn, reply, wire.decode_result, query)

    def monitor_tick(self, host: str, now: float,
                     threshold: Optional[int] = None
                     ) -> Tuple[List[Alarm], int]:
        """Run one monitor check on ``host`` alone (a single-host probe; a
        sweep asks each group once, :meth:`group_monitor_tick`).  Returns
        ``(alarms, inner reply frame bytes)``."""
        conn, reply = self._ask(host, wire.encode_monitor_tick(now, threshold))
        return (self._checked_decode(conn, reply, wire.decode_alarm_batch),
                len(reply))

    def monitor_state(self, host: str) -> MonitorSnapshot:
        """Pull ``host``'s worker monitor-state snapshot."""
        conn, reply = self._ask(host, wire.encode_monitor_pull())
        return self._checked_decode(conn, reply, wire.decode_monitor_state)

    def ping(self, host: str) -> int:
        """Probe ``host``'s worker; returns its TIB record count."""
        return self.ping_state(host)[0]

    def ping_state(self, host: str) -> Tuple[int, int]:
        """Probe ``host``'s worker: ``(TIB records, monitor flows)``."""
        conn, reply = self._ask(host, wire.encode_ping())
        return self._checked_decode(conn, reply, wire.decode_pong)[:2]

    def tier_stats(self, host: str) -> Dict[str, int]:
        """Pull ``host``'s two-tier stats off a liveness probe."""
        conn, reply = self._ask(host, wire.encode_ping())
        (total, monitor_flows, hot_records, hot_bytes, cold_records,
         cold_bytes) = self._checked_decode(conn, reply, wire.decode_pong)
        return {"total_records": total, "monitor_flows": monitor_flows,
                "hot_records": hot_records, "hot_bytes": hot_bytes,
                "cold_records": cold_records, "cold_bytes": cold_bytes}

    def reset(self, host: str) -> None:
        """Clear ``host``'s worker state (TIB, monitor, pending alarms)."""
        self._post(host, wire.encode_reset())

    def stall(self, host: str, seconds: float) -> None:
        """Make ``host``'s *group worker* sleep before serving its next
        entry (debug/test) - the whole connection stalls, which is the
        point: this is the stalled-socket fault."""
        self._post(host, wire.encode_sleep(seconds))

    def kill(self, name: str) -> None:
        """Hard-kill the group worker serving ``name`` and wait for its
        death, so the next exchange on its connection deterministically
        sees the EOF (failure injection, and the verdict on a desynced
        worker); every host of the group dies with it."""
        self._slot(name).conn.kill()

    def alive(self, name: str) -> bool:
        """Whether the group worker serving ``name`` is running."""
        return self._slot(name).conn.proc.is_alive()

    def healthy(self, name: str) -> bool:
        """Whether ``name``'s group worker is serving: process alive and
        (when supervised) its restart circuit still closed."""
        slot = self._slot_of_host.get(name) or self._slots.get(name)
        if slot is None or self.supervisor is not None and \
                self.supervisor.circuit_open(slot.key):
            return False
        return slot.conn.proc.is_alive()

    # ---------------------------------------------------------- group client
    def send(self, key: str, entries: Sequence[Tuple[str, bytes]],
             reseed: bool = False, trace: bool = False) -> Exchange:
        """The send half of a correlated exchange with ``key``'s worker:
        register a waiter, then encode the envelope with its correlation
        id, flush the outbox and write both under the connection's send
        lock.  Returns without waiting; the reply lands on the
        connection's reader thread, and the caller consumes it later
        (:meth:`group_query`, :meth:`group_monitor_tick`, or
        :meth:`_consume` for raw frames).  ``reseed`` marks the supervisor's
        own re-seed traffic: its failures do not recurse into supervision.
        ``trace`` gives the exchange a stage record, its ``send`` first.
        Raises :class:`AgentServerError` on a dead connection."""
        conn = self._conn_for(key)
        sent_at = time.perf_counter()
        try:
            # Registering fails when the connection already died (EOF
            # noticed by the reader with no exchange in flight); surfaced
            # like a fresh failure so supervision still kicks in.
            waiter = conn.register()
            envelope = wire.encode_group_batch(waiter.cid, entries)
            conn.send(envelope, self._frames(conn.key, entries), reseed)
        except AgentServerError as error:
            raise self._worker_failed(conn, str(error), reseed) from error
        stages = ({"send": micros(time.perf_counter() - sent_at)}
                  if trace else None)
        return Exchange(conn, [host for host, _frame in entries], waiter,
                        len(envelope), sent_at, reseed, stages)

    def group_monitor_tick(self, exchange: Exchange,
                           deadline: Optional[float] = None,
                           on_host=None
                           ) -> Tuple[List[Tuple[str, List[Alarm]]],
                                      int, int]:
        """The consume step of one monitor sweep over a group: ``exchange``
        is the one tick entry :meth:`send` wrote, addressed to
        :data:`~repro.core.wire.EVERY_HOST`, and its reply one alarm batch
        holding every member host's alarms in shard order.  Returns
        ``(per-host (host, alarms) in shard order, reply envelope bytes,
        request envelope bytes)``.

        ``deadline`` (a ``perf_counter`` stamp) bounds the wait: past it,
        :class:`~repro.core.executor.DeadlineExceeded` is raised and the
        exchange stays open, so a later call can still consume its reply.
        ``on_host(host, alarms)`` is called once per member host, in shard
        order, empty batches included, after the batch is decoded and
        split by ``alarm.host``.  An alarm naming a host outside the shard,
        or out of shard order, is a desync that condemns the group, like
        an undecodable reply.  A traced exchange adds ``decode`` (the
        batch's, and its split), ``deliver`` (the ``on_host`` calls) and
        the worker's stages to its record.
        """
        replies, reply_bytes, sent = self._consume(exchange, deadline)
        started = time.perf_counter()
        conn, hosts = exchange.conn, self._slots[exchange.key].hosts
        per_host: List[Tuple[str, List[Alarm]]] = [
            (host, []) for host in hosts]
        at = 0
        batch = self._checked_decode(conn, replies[0],
                                     wire.decode_alarm_batch)
        for alarm in batch:
            while at < len(hosts) and hosts[at] != alarm.host:
                at += 1
            if at == len(hosts):
                raise self._desynced(
                    conn, f"agent server group {exchange.key} sent an alarm "
                    f"for {alarm.host!r} outside its shard order; worker "
                    f"killed")
            per_host[at][1].append(alarm)
        decoded = time.perf_counter()
        if on_host is not None:
            for host, host_alarms in per_host:
                on_host(host, host_alarms)
        stages = exchange.stages
        if stages is not None:
            stages["decode"] = micros(decoded - started)
            stages["deliver"] = micros(time.perf_counter() - decoded)
            stages.update(batch.stages)
        return per_host, reply_bytes, sent

    def group_query(self, exchange: Exchange, query,
                    deadline: Optional[float] = None
                    ) -> Tuple[List[Tuple[str, QueryResult]], int, int]:
        """The consume step of ``query`` run on a group through one
        coalesced envelope: ``exchange`` is what :meth:`send` wrote, one
        request frame per target (the same bare query frame for every
        host, under either mechanism: a multi-level edge's subtree spec
        is priced by the plan, not shipped).  Returns ``(per-host (host,
        result) in request order, reply envelope bytes, request envelope
        bytes)``; each result's ``wire_bytes`` is its measured inner reply
        frame length.  A host-level error reply fails the whole group
        exchange (the group is the failure domain in coalesced scatters).
        ``deadline`` is as in :meth:`group_monitor_tick`.  A traced
        exchange adds ``decode`` to its record; each host's own stages
        are on its result.
        """
        replies, reply_bytes, sent = self._consume(exchange, deadline)
        started = time.perf_counter()
        results = [
            (host, self._checked_decode(exchange.conn, reply,
                                        wire.decode_result, query))
            for host, reply in zip(exchange.hosts, replies)]
        if exchange.stages is not None:
            exchange.stages["decode"] = micros(time.perf_counter() - started)
        return results, reply_bytes, sent

    def group_ping_state(self, key: str) -> Dict[str, Tuple[int, int]]:
        """Coalesced startup/sync barrier: one ping envelope for every
        host of ``key``; returns ``{host: (records, monitor flows)}``."""
        slot = self._slot(key)
        ping = wire.encode_ping()
        exchange = self.send(slot.key, [(host, ping) for host in slot.hosts])
        replies, _reply_bytes, _sent = self._consume(exchange)
        return {host: self._checked_decode(exchange.conn, reply,
                                           wire.decode_pong)[:2]
                for host, reply in zip(slot.hosts, replies)}

    # ----------------------------------------------------------- stats hooks
    def note_restart(self, reseed_ms: float) -> None:
        """Supervisor hook: one group restart completed."""
        with self._stats_lock:
            self.stats.restarts += 1
            self.stats.reseed_ms += reseed_ms

    def note_circuit_open(self) -> None:
        """Supervisor hook: one group's restart budget was exhausted."""
        with self._stats_lock:
            self.stats.circuit_open += 1

    def note_mirror_detach(self, host: str) -> None:
        """Cluster hook: an ingest mirror for ``host`` detached."""
        with self._stats_lock:
            self.stats.mirror_detaches += 1

    def _count_sent(self, frames: int, nbytes: int) -> None:
        with self._stats_lock:
            self.stats.envelopes_sent += 1
            self.stats.frames_sent += frames
            self.stats.bytes_sent += nbytes

    def _count_envelope_received(self, nbytes: int) -> None:
        with self._stats_lock:
            self.stats.envelopes_received += 1
            self.stats.bytes_received += nbytes

    def _count_frames_received(self, count: int) -> None:
        with self._stats_lock:
            self.stats.frames_received += count

    def _count_decode_error(self) -> None:
        with self._stats_lock:
            self.stats.decode_errors += 1

    def _frames(self, key: str, entries: Sequence[Tuple[str, bytes]]) -> int:
        """The per-host logical frames ``entries`` to or from group ``key``
        stand for: an entry addressed to every host, one per host."""
        width = len(self._slots[key].hosts)
        return sum(width if host == wire.EVERY_HOST else 1
                   for host, _frame in entries)

    def reset_stats(self) -> None:
        """Zero the pool's frame/byte/envelope counters."""
        with self._stats_lock:
            self.stats.reset()

    # -------------------------------------------------------------- lifecycle
    def shutdown(self, join_timeout_s: float = 2.0) -> None:
        """Stop every group worker (politely, then by force) and close the
        connections.  Idempotent; marks the pool closed *first* so a
        concurrent failure cannot trigger a supervised restart of a worker
        being torn down."""
        self._closed = True
        # The pool must not keep the cluster behind the hook alive.
        self.mirror_lost = None
        slots = list(self._slots.values())
        for slot in slots:
            slot.conn.hang_up()
        for slot in slots:
            process = slot.conn.proc
            process.join(join_timeout_s)
            if process.is_alive():
                process.kill()
                process.join(join_timeout_s)
        for slot in slots:
            slot.conn.close("pool shut down")

    def __enter__(self) -> "GroupAgentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------- internals
    def _conn_for(self, name: str) -> _GroupConn:
        return self._slot(name).conn

    def _post(self, host: str, body, kind: Optional[int] = None,
              count: int = 1, reseed: bool = False) -> None:
        """Queue one fire-and-forget entry for ``host`` on its group's
        outbox: a finished frame, or (``kind`` given) ``count`` batch
        bodies to combine (:meth:`_GroupConn.post`)."""
        conn = self._conn_for(host)
        try:
            conn.post(host, kind, count, body, reseed)
        except AgentServerError as error:
            raise self._worker_failed(conn, str(error), reseed) from error

    def _post_batch(self, host: str, items: Sequence, kind: int, append,
                    reseed: bool = False) -> int:
        """Encode ``items`` and queue their bodies, a flush bound's worth
        per entry at most: a snapshot of any size leaves as bounded
        envelopes the worker consumes while the rest is encoded.  Returns
        the encoded bytes queued."""
        body = bytearray()
        count = queued = 0
        for item in items:
            append(body, item)
            count += 1
            if len(body) >= OUTBOX_FLUSH_BYTES:
                self._post(host, body, kind, count, reseed)
                queued += len(body)
                body = bytearray()
                count = 0
        if count:
            self._post(host, body, kind, count, reseed)
        return queued + len(body)

    def _receive(self, exchange: Exchange, deadline: Optional[float] = None,
                 timeout_s=_UNSET) -> Tuple[List[Tuple[str, bytes]], int, int]:
        """Wait for ``exchange``'s reply and check its cardinality; returns
        ``(replies, reply envelope bytes, request envelope bytes)``.

        Two clocks bound the wait.  The pool's reply timeout
        (``timeout_s`` overrides it) counts from the send: a worker that
        misses it is declared dead.  ``deadline`` is the caller's
        ``perf_counter`` stamp: missing it raises
        :class:`~repro.core.executor.DeadlineExceeded` and leaves the
        exchange open, its reply still welcome."""
        conn, waiter = exchange.conn, exchange.waiter
        key = conn.key
        timeout = self.reply_timeout_s if timeout_s is _UNSET else timeout_s
        expires = None if timeout is None else exchange.sent_at + timeout
        patient = deadline is None or (expires is not None
                                       and expires <= deadline)
        until = expires if patient else deadline
        started = time.perf_counter()
        landed = waiter.event.wait(
            None if until is None else max(0.0, until - started))
        if exchange.stages is not None:
            exchange.stages["wait"] = micros(time.perf_counter() - started)
        if not landed:
            if not patient:
                raise DeadlineExceeded(
                    f"agent server group {key} did not reply by the "
                    f"per-host deadline")
            # The reply would still arrive eventually and desynchronise
            # nothing (it carries its cid) - but a wedged worker holds M
            # hosts hostage; declare the whole group dead.
            raise self._condemn(
                conn, f"agent server group {key} did not reply within "
                f"{timeout}s; worker killed", exchange.reseed)
        if waiter.error is not None:
            raise self._condemn(conn, waiter.error, exchange.reseed)
        assert waiter.replies is not None
        if len(waiter.replies) != len(exchange.hosts):
            raise self._desynced(
                conn, f"agent server group {key} answered "
                f"{len(waiter.replies)} of {len(exchange.hosts)} entries; "
                f"worker killed", exchange.reseed)
        return waiter.replies, waiter.reply_bytes, exchange.request_bytes

    def _consume(self, exchange: Exchange, deadline: Optional[float] = None
                 ) -> Tuple[List[bytes], int, int]:
        """The consume half of a correlated exchange whose every entry
        must be answered by the host it addressed, and not with an error
        frame (a host-level error fails the whole exchange - the group is
        the failure domain).  Returns ``(reply frames in entry order,
        reply envelope bytes, request envelope bytes)``.  An error reply
        is told by its type byte alone; every frame's header is checked
        once, by the decoder that reads it (:meth:`_checked_decode`: here
        for an error, the caller's for the rest)."""
        replies, reply_bytes, sent = self._receive(exchange, deadline)
        key = exchange.key
        frames: List[bytes] = []
        for host, (reply_host, reply) in zip(exchange.hosts, replies):
            if reply_host != host:
                raise self._desynced(
                    exchange.conn, f"agent server group {key} answered for "
                    f"{reply_host!r} where {host!r} was asked; worker killed")
            if wire.is_error(reply):
                detail = self._checked_decode(exchange.conn, reply,
                                              wire.decode_error)
                where = (f"group {key}" if host == wire.EVERY_HOST
                         else f"on {host}")
                raise AgentServerError(f"agent server {where}: {detail}")
            frames.append(reply)
        return frames, reply_bytes, sent

    def _ask(self, host: str, frame: bytes) -> Tuple[_GroupConn, bytes]:
        """A single-entry exchange with ``host``'s worker; returns
        ``(the connection it ran on, reply frame)``."""
        exchange = self.send(self._slot(host).key, [(host, frame)])
        replies, _reply_bytes, _sent = self._consume(exchange)
        return exchange.conn, replies[0]

    def _worker_failed(self, conn: _GroupConn, detail: str,
                       reseed: bool = False) -> AgentServerError:
        """Handle a failed exchange on ``conn``: hand its *group* to the
        supervisor (if any) and return the error for the caller to raise.

        Concurrent exchanges multiplex on one connection, so one dead
        worker fails many threads at once; the identity compare under the
        group lock makes the first of them drive the restart and the
        rest just report their lost exchange (the restarted worker would
        otherwise be killed and re-seeded once per failed request).

        What ``conn``'s outbox still held is dropped, never re-sent: a
        restart re-seeded it from the local TIBs (written first on every
        ingest path); without one (the group's connection is still a dead
        one) each host with entries in it goes to ``mirror_lost``.
        """
        if reseed or self._closed:
            return AgentServerError(detail)
        slot = self._slots[conn.key]
        if self.supervisor is not None:
            with slot.lock:
                if slot.conn is conn:
                    self.supervisor.handle_failure(self, slot.key, detail)
        lost = conn.drop_outbox()
        if self.mirror_lost is not None and slot.conn.dead is not None:
            for host in lost:
                self.mirror_lost(host, detail)
        return AgentServerError(detail)

    def _checked_decode(self, conn: _GroupConn, reply: bytes, decoder,
                        *args):
        """Decode an inner reply frame that arrived on ``conn``, treating
        corruption as group failure (the multiplexed stream is
        desynchronised; nothing later on it can be trusted)."""
        try:
            return decoder(reply, *args)
        except wire.WireError as error:
            raise self._desynced(
                conn, f"agent server group {conn.key} sent an "
                f"undecodable reply; worker killed: {error}") from error

    def _desynced(self, conn: _GroupConn, detail: str,
                  reseed: bool = False) -> AgentServerError:
        """A reply on ``conn`` that is corrupt or contradicts its request:
        counted in ``decode_errors``, and the group condemned."""
        self._count_decode_error()
        return self._condemn(conn, detail, reseed)

    def _condemn(self, conn: _GroupConn, detail: str,
                 reseed: bool = False) -> AgentServerError:
        """Give up on ``conn``, whose stream can no longer be trusted:
        kill its worker, close it so every later exchange on it fails
        loudly, and hand the failure to :meth:`_worker_failed`."""
        conn.kill()
        conn.close(detail)
        return self._worker_failed(conn, detail, reseed)

    # ------------------------------------------------------ supervisor hooks
    def _respawn(self, key: str) -> None:
        """Supervisor hook (group lock held): replace ``key``'s worker
        with a fresh process over a fresh connection."""
        slot = self._slots[key]
        slot.discard()
        slot.spawn(self)
        with self._stats_lock:
            self.stats.reconnects += 1

    def _discard(self, key: str) -> None:
        """Supervisor hook (group lock held): kill ``key``'s worker and
        close its connection; the cleanup for a failed restart attempt."""
        self._slots[key].discard()

    def _reseed(self, key: str, seed: GroupSeed,
                timeout_s: float = 30.0) -> None:
        """Supervisor hook: replay ``seed`` (an empty one restarts the
        group empty) into ``key``'s fresh worker over the new connection,
        then barrier on a coalesced ping.

        The replay is the startup sync's (:meth:`seed_host` per host,
        alerted latches included) on the same outbox: flush-bound-sized
        envelopes, the last one ahead of the one ping envelope that
        barriers every host.  A short count on any host is a
        **ping-barrier miss** failing the whole attempt.  Failures here do
        not recurse into supervision (``reseed=True``); the supervisor
        counts them against the restart budget.
        """
        hosts = self._slots[key].hosts
        if self.chaos is not None:
            self.chaos.begin_reseed(key)
        seeds = seed.seeds
        for host in hosts:
            if host in seeds:
                self.seed_host(host, seeds[host], reseed=True)
        entries = [(host, wire.encode_ping()) for host in hosts]
        replies, _reply_bytes, _sent = self._receive(
            self.send(key, entries, reseed=True), timeout_s=timeout_s)
        for (host, _frame), (reply_host, reply) in zip(entries, replies):
            if reply_host != host:
                raise AgentServerError(
                    f"group {key} re-seed barrier desync: {reply_host} "
                    f"answered for {host}")
            try:
                applied, monitor_flows = wire.decode_pong(reply)[:2]
            except wire.WireError as error:
                raise AgentServerError(
                    f"group {key} re-seed barrier pong for {host} "
                    f"undecodable: {error}") from error
            worker_seed = seeds.get(host) or WorkerSeed()
            expected_records = len(worker_seed.records or ())
            expected_flows = (len(worker_seed.monitor.flows)
                              if worker_seed.monitor is not None else 0)
            if applied < expected_records or monitor_flows < expected_flows:
                raise AgentServerError(
                    f"group {key} re-seed barrier miss on {host}: holds "
                    f"{applied}/{expected_records} records and "
                    f"{monitor_flows}/{expected_flows} monitor flows")

