"""Self-healing supervision and chaos injection for the agent-server plane.

The paper's debugger only earns its keep when the fabric is misbehaving,
so the agent plane itself must tolerate misbehaviour: before this module a
worker that died (or merely hung) was killed once and every later query
reported that host failed forever.  The :class:`Supervisor` closes that
gap - it is attached to a :class:`~repro.core.groupserver.GroupAgentPool`
and, whenever an exchange with a group worker fails (reply timeout, EOF,
undecodable reply, ping-barrier miss during re-seed), it

1. respawns the worker process, on a fresh connection the pool makes for
   it, with exponential backoff (:class:`RestartPolicy`),
2. **re-seeds** the fresh worker from the local dual-write mirrors - per
   host of the group, the retention cap, the TIB snapshot as record
   batches and the monitor state including the at-most-once alerted
   latches, in exactly the startup-sync order - and barriers on a ping
   before the worker serves anything, so a restarted group answers later
   queries byte-identically to one that never died;
3. gives up once the per-group restart budget is exhausted: the circuit
   opens and the pool degrades to the pre-supervision dead-agent semantics
   (``partial`` / ``hosts_failed`` / ``W_HOST_FAILED``), surfaced through
   a ``W_CIRCUIT_OPEN`` warning and the pool's ``circuit_open`` counter.

The in-flight exchange that detected the failure is still reported as an
:class:`~repro.core.groupserver.AgentServerError` (its request died with
the old worker and must not be answered by a desynchronised fresh one),
but the restart completes *before* the error surfaces - an executor retry
budget of one therefore makes even the failing scatter succeed, and the
next query always lands on a healthy worker.

Alarm semantics across a restart: alarms a worker had raised but not yet
delivered die with it, and the local monitor mirror only latches a flow
when the controller actually dispatches its alarm - so the re-seeded
monitor state is unlatched for exactly those flows, the restarted worker
re-raises their alarms on the next sweep, and the controller's bus still
sees every alert at most once.

:class:`ChaosPolicy` is the matching gray-failure harness: injected into
the pool it kills workers at the Nth frame (also mid-re-seed), makes them
hang *without* an EOF (the reply-timeout path), slows replies without
killing anything, and truncates/garbage-fills/bit-flips reply frames to
exercise the :class:`~repro.core.wire.WireDecodeError` path.  All choices
are deterministic (seeded RNG, per-group frame counters) so chaos tests
reproduce run to run.

Workers are keyed by the pool's *group key* (``group-N``) throughout -
budgets, circuits, events, chaos schedules - in every worker mode
(``mode="process"`` is groups of one host).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Set, Tuple)

from repro.core import wire
from repro.core.monitor import MonitorSnapshot
from repro.storage.records import PathFlowRecord

#: Supervision event kinds (``RestartEvent.kind``).
EVENT_RESTARTED = "restarted"
EVENT_RESTART_FAILED = "restart_failed"
EVENT_CIRCUIT_OPEN = "circuit_open"

#: Reply-corruption modes for :class:`ChaosPolicy`.
CORRUPT_TRUNCATE = "truncate"
CORRUPT_BITFLIP = "bitflip"
CORRUPT_GARBAGE = "garbage"


@dataclass(frozen=True)
class RestartPolicy:
    """Restart budget and backoff schedule for supervised workers.

    Attributes:
        max_restarts: per-host restart budget (successful *and* failed
            attempts both consume it).  ``0`` disables recovery entirely:
            the circuit opens on the first failure and the pool behaves
            exactly like an unsupervised one (regression-locked).
        backoff_base_s: delay before the *second* restart attempt; the
            first is immediate (the common case is a single crash, and
            queries are waiting).
        backoff_factor: exponential growth factor between attempts.
        backoff_max_s: backoff ceiling.
        reseed_timeout_s: deadline for the re-seed ping barrier (a fresh
            worker that cannot replay its state within this is itself
            treated as a failed attempt).
    """

    max_restarts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0
    reseed_timeout_s: float = 30.0

    def backoff_s(self, attempt: int) -> float:
        """Delay before restart ``attempt`` (1-based); the first is free."""
        if attempt <= 1:
            return 0.0
        delay = self.backoff_base_s * self.backoff_factor ** (attempt - 2)
        return min(delay, self.backoff_max_s)


@dataclass
class WorkerSeed:
    """One host's state replayed into a fresh worker before it serves
    requests.

    Built from the *local* side of the dual-write mirrors (the cluster's
    ``seed_source``); because every ingest path writes locally before it
    mirrors, the seed always covers everything the dead worker had seen -
    including any batch whose mirror delivery triggered the restart.

    Attributes:
        retention: ``(max_records, max_bytes)`` hot-tier bounds, or
            ``None`` for an unbounded TIB.  Shipped first (FIFO) so
            the worker ages the snapshot into its own cold archive while
            it streams in.
        records: the TIB snapshot (both tiers, canonical id order).
        monitor: the monitor state including alerted latches, preserving
            at-most-once alerting across the restart.
    """

    retention: Optional[Tuple[Optional[int], Optional[int]]] = None
    records: Sequence[PathFlowRecord] = ()
    monitor: Optional[MonitorSnapshot] = None


@dataclass
class GroupSeed:
    """Seeds for every host of a group worker, keyed by host.

    A ``seed_source`` returns one of these (hosts without an entry restart
    empty); the pool's ``_reseed`` replays it, the supervisor only counts
    records/flows for the restart event.
    """

    seeds: Dict[str, WorkerSeed] = field(default_factory=dict)

    def record_count(self) -> int:
        """TIB records across every host's seed."""
        return sum(len(ws.records or ()) for ws in self.seeds.values())

    def flow_count(self) -> int:
        """Monitor flows across every host's seed."""
        return sum(len(ws.monitor.flows) for ws in self.seeds.values()
                   if ws.monitor is not None)


@dataclass(frozen=True)
class RestartEvent:
    """One supervision decision, kept on :attr:`Supervisor.events`.

    Attributes:
        host: the worker's group key (``group-N``).
        kind: one of the ``EVENT_*`` constants.
        reason: the failure that triggered supervision (exception text).
        attempt: which restart attempt this was (0 for a circuit that
            opened with the budget already spent).
        reseed_ms: wall-clock milliseconds spent respawning + re-seeding
            (``EVENT_RESTARTED`` only).
        records: TIB records replayed into the fresh worker.
        monitor_flows: monitor flows replayed into the fresh worker.
        detail: extra context (the re-seed error, the exhausted budget).
    """

    host: str
    kind: str
    reason: str
    attempt: int
    reseed_ms: float = 0.0
    records: int = 0
    monitor_flows: int = 0
    detail: str = ""


class Supervisor:
    """Restart-with-recovery for agent-server workers.

    Attach one to a pool (``GroupAgentPool(..., supervisor=...)`` or
    ``QueryCluster(..., supervisor=...)``); the pool calls
    :meth:`handle_failure` from its failure paths.  The supervisor drives
    the pool through its
    ``_respawn``/``_reseed``/``note_restart``/``note_circuit_open``
    surface and sources seeds through the injectable ``seed_source``
    callable (the cluster wires this to its local agents).  Every
    ``host`` argument below is the worker's group key.

    Args:
        policy: restart budget and backoff (defaults to
            :class:`RestartPolicy`).
        seed_source: ``group key -> GroupSeed`` used to rebuild a fresh
            worker's state; ``None`` restarts workers empty (standalone
            pools with no local mirror).
    """

    def __init__(self, policy: Optional[RestartPolicy] = None,
                 seed_source: Optional[Callable[[str], GroupSeed]] = None
                 ) -> None:
        self.policy = policy or RestartPolicy()
        self.seed_source = seed_source
        self.events: List[RestartEvent] = []  # guarded-by: _lock
        self.restarts: Dict[str, int] = {}  # guarded-by: _lock
        self._open: Set[str] = set()  # guarded-by: _lock
        self._observers: List[Callable] = []  # guarded-by: _lock
        self._lock = threading.Lock()

    # -------------------------------------------------------------- queries
    def circuit_open(self, host: str) -> bool:
        """Whether ``host``'s restart budget is exhausted."""
        with self._lock:
            return host in self._open

    def open_circuits(self) -> List[str]:
        """Hosts whose circuits are open, sorted."""
        with self._lock:
            return sorted(self._open)

    def restart_count(self, host: str) -> int:
        """Restart attempts consumed for ``host``."""
        with self._lock:
            return self.restarts.get(host, 0)

    def subscribe(self, callback: Callable) -> None:
        """Register ``callback(pool, host, event)`` for every supervision
        event (restart, failed attempt, circuit open).  Idempotent."""
        with self._lock:
            if callback not in self._observers:
                self._observers.append(callback)

    def reset(self) -> None:
        """Forget budgets, circuits and history (new experiment)."""
        with self._lock:
            self.events.clear()
            self.restarts.clear()
            self._open.clear()

    # ------------------------------------------------------------- recovery
    def handle_failure(self, pool, host: str, reason: str) -> bool:
        """React to a failed exchange with ``host``'s worker.

        Called by the pool with the host's exchange lock held (restart and
        re-seed must not interleave with other threads' exchanges on the
        same worker).  Loops restart attempts - backoff, respawn, re-seed,
        ping barrier - until one succeeds or the budget runs out.

        Returns:
            ``True`` when the worker was restarted and re-seeded (the next
            exchange lands on a healthy worker), ``False`` when the
            circuit is (now) open and the pool should degrade to
            dead-agent semantics.
        """
        while True:
            with self._lock:
                if host in self._open:
                    return False
                used = self.restarts.get(host, 0)
                exhausted = used >= self.policy.max_restarts
                if exhausted:
                    self._open.add(host)
                else:
                    attempt = self.restarts[host] = used + 1
            if exhausted:
                pool.note_circuit_open()
                self._record(pool, host, RestartEvent(
                    host=host, kind=EVENT_CIRCUIT_OPEN, reason=reason,
                    attempt=used,
                    detail=f"restart budget ({self.policy.max_restarts}) "
                           f"exhausted; degrading to dead-agent semantics"))
                return False
            delay = self.policy.backoff_s(attempt)
            if delay > 0.0:
                time.sleep(delay)
            started = time.perf_counter()
            try:
                pool._respawn(host)
                source = self.seed_source
                seed = source(host) if source is not None else GroupSeed()
                pool._reseed(host, seed,
                             timeout_s=self.policy.reseed_timeout_s)
            except Exception as error:
                # The fresh worker (if the respawn got that far) is only
                # partially seeded; kill it so it degrades loudly instead
                # of serving wrong state.
                pool._discard(host)
                self._record(pool, host, RestartEvent(
                    host=host, kind=EVENT_RESTART_FAILED, reason=reason,
                    attempt=attempt,
                    detail=f"{type(error).__name__}: {error}"))
                continue
            reseed_ms = (time.perf_counter() - started) * 1e3
            pool.note_restart(reseed_ms)
            self._record(pool, host, RestartEvent(
                host=host, kind=EVENT_RESTARTED, reason=reason,
                attempt=attempt, reseed_ms=reseed_ms,
                records=seed.record_count(),
                monitor_flows=seed.flow_count()))
            return True

    def _record(self, pool, host: str, event: RestartEvent) -> None:
        with self._lock:
            self.events.append(event)
            observers = list(self._observers)
        for callback in observers:
            callback(pool, host, event)


def corrupt_frame(frame: bytes, mode: str, rng: random.Random) -> bytes:
    """Damage a wire frame the way a gray link/host would.

    ``truncate`` cuts the frame in half (header survives, body decode
    fails), ``garbage`` replaces every byte (header magic fails),
    ``bitflip`` flips one random bit (may or may not decode - the fuzz
    contract is "decodes or raises ``WireError``, never anything else").
    """
    if mode == CORRUPT_TRUNCATE:
        return frame[:len(frame) // 2]
    if mode == CORRUPT_GARBAGE:
        return bytes(rng.getrandbits(8) for _ in range(len(frame)))
    if mode == CORRUPT_BITFLIP:
        if not frame:
            return frame
        data = bytearray(frame)
        position = rng.randrange(len(data))
        data[position] ^= 1 << rng.randrange(8)
        return bytes(data)
    raise ValueError(f"unknown corruption mode {mode!r}")


class ChaosPolicy:
    """Deterministic gray-failure injection for the agent-server plane.

    Injected into a pool (``GroupAgentPool(..., chaos=...)``) it sits on
    the send/receive paths; ``host`` keys are group keys (``group-N``):

    * ``kill_at_frame={host: n}`` - kill the worker right before its
      ``n``-th outbound frame (crash mid-ingest, mid-scatter, ...);
      fires once per entry.
    * ``kill_at_reseed_frame={host: n}`` - kill the *fresh* worker at the
      ``n``-th frame of a supervised re-seed (the outbox flushes carrying
      retention caps, snapshot batches and monitor states - one, for a
      seed under the flush bound - then the ping barrier), exercising
      restart-during-recovery.
    * ``hang_at_frame={host: n}`` - make the worker sleep ``hang_s``
      before serving its ``n``-th frame *without* dying: no EOF, the
      failure only surfaces through the pool's reply timeout (the
      canonical gray failure).
    * ``slow_reply_s`` (optionally restricted to ``slow_hosts``) - delay
      every reply by that much while staying alive; below the reply
      timeout this must NOT trigger supervision.
    * ``corrupt_reply_at={host: n}`` - damage the ``n``-th reply frame
      with ``corrupt_mode`` (:data:`CORRUPT_TRUNCATE`,
      :data:`CORRUPT_GARBAGE` or :data:`CORRUPT_BITFLIP`), exercising the
      ``WireDecodeError`` -> worker-failure path; fires once per entry.
    * ``close_torn_at_frame={host: n}`` - connection-level fault on the
      worker's stream: right before the ``n``-th outbound frame the
      worker is told (via ``MSG_CLOSE_TORN``) to write a *partial* stream
      frame - a length prefix promising more bytes than it sends - and
      close the connection, so the controller's
      :class:`~repro.core.wire.StreamFrameReader` sees a mid-frame
      truncation (``WireDecodeError``) rather than a clean EOF.  The
      stalled-socket twin is ``hang_at_frame`` + a pool reply timeout.
      Fires once per entry.

    Frame counters are per group and count the group's envelopes (one
    "frame" on its connection, however many host frames it coalesces) -
    requests and the outbox flushes that precede them alike: mirrored
    ingest is not a frame of its own, the flush ahead of the next request
    is.  Only protocol frames count (injected fault frames do not), so
    scripts are deterministic.  ``injected`` records every action taken,
    for assertions.
    """

    def __init__(self, kill_at_frame: Optional[Dict[str, int]] = None,
                 hang_at_frame: Optional[Dict[str, int]] = None,
                 hang_s: float = 60.0,
                 slow_reply_s: float = 0.0,
                 slow_hosts: Optional[Sequence[str]] = None,
                 corrupt_reply_at: Optional[Dict[str, int]] = None,
                 corrupt_mode: str = CORRUPT_TRUNCATE,
                 kill_at_reseed_frame: Optional[Dict[str, int]] = None,
                 close_torn_at_frame: Optional[Dict[str, int]] = None,
                 seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self._kill_at = dict(kill_at_frame or {})  # guarded-by: _lock
        self._hang_at = dict(hang_at_frame or {})  # guarded-by: _lock
        self._close_torn_at = dict(close_torn_at_frame or {})  # guarded-by: _lock
        self.hang_s = hang_s
        self.slow_reply_s = slow_reply_s
        self.slow_hosts = (None if slow_hosts is None else set(slow_hosts))
        self._corrupt_at = dict(corrupt_reply_at or {})  # guarded-by: _lock
        self.corrupt_mode = corrupt_mode
        self._kill_at_reseed = dict(kill_at_reseed_frame or {})  # guarded-by: _lock
        self.frames_sent: Dict[str, int] = {}  # guarded-by: _lock
        self.replies_seen: Dict[str, int] = {}  # guarded-by: _lock
        self._reseed_frames: Dict[str, int] = {}  # guarded-by: _lock
        self.injected: List[Tuple[str, str]] = []  # guarded-by: _lock
        self._lock = threading.Lock()

    def reset_stats(self) -> None:
        """Zero the per-host frame/reply counters and the injection log.

        Per-phase stats resets for multi-phase chaos runs: zeroing the
        frame counters also re-bases ``kill_at_frame``-style schedules,
        so a script armed after the reset counts frames from the new
        phase's start.  Pending fault schedules themselves are
        configuration, not stats - they stay armed.
        """
        with self._lock:
            self.frames_sent.clear()
            self.replies_seen.clear()
            self._reseed_frames.clear()
            self.injected.clear()

    # ------------------------------------------------------------ pool hooks
    def begin_reseed(self, host: str) -> None:
        """Pool hook: a supervised re-seed of ``host`` is starting."""
        with self._lock:
            self._reseed_frames[host] = 0

    def before_send(self, pool, host: str, frame: bytes,
                    reseed: bool = False) -> List[bytes]:
        """Pool hook called before each outbound protocol frame.

        May kill the worker (crash faults) and returns fault frames to
        inject ahead of the real one (hangs, slow replies).
        """
        extras: List[bytes] = []
        with self._lock:
            if reseed:
                count = self._reseed_frames.get(host, 0) + 1
                self._reseed_frames[host] = count
                kill = self._kill_at_reseed.get(host) == count
                if kill:
                    del self._kill_at_reseed[host]
                    why = f"killed at reseed frame {count}"
            else:
                count = self.frames_sent.get(host, 0) + 1
                self.frames_sent[host] = count
                kill = self._kill_at.get(host) == count
                if kill:
                    del self._kill_at[host]
                    why = f"killed at frame {count}"
                if self._hang_at.get(host) == count:
                    del self._hang_at[host]
                    extras.append(wire.encode_sleep(self.hang_s))
                    self.injected.append(
                        (host, f"hang {self.hang_s}s at frame {count}"))
                if self._close_torn_at.get(host) == count:
                    del self._close_torn_at[host]
                    extras.append(wire.encode_close_torn())
                    self.injected.append(
                        (host, f"torn close at frame {count}"))
                if self.slow_reply_s > 0.0 and \
                        (self.slow_hosts is None or host in self.slow_hosts):
                    extras.append(wire.encode_sleep(self.slow_reply_s))
        if kill:
            self._kill(pool, host, why)
        return extras

    def on_reply(self, host: str, reply: bytes) -> bytes:
        """Pool hook called on each received reply; may corrupt it."""
        with self._lock:
            count = self.replies_seen.get(host, 0) + 1
            self.replies_seen[host] = count
            corrupt = self._corrupt_at.get(host) == count
            if corrupt:
                del self._corrupt_at[host]
                self.injected.append(
                    (host, f"{self.corrupt_mode} reply {count}"))
        if corrupt:
            return corrupt_frame(reply, self.corrupt_mode, self.rng)
        return reply

    def _kill(self, pool, host: str, why: str) -> None:
        # The pool waits for the death, so the fault is deterministic: the
        # very next exchange sees the EOF instead of racing the kill.
        pool.kill(host)
        with self._lock:
            self.injected.append((host, why))
