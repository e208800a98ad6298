"""Trajectory memory, trajectory cache and end-to-end path construction.

Figure 2 of the paper describes the edge pipeline that this module
implements:

1. the modified OVS extracts a packet's link-ID samples and updates a
   *per-path flow record* in the **trajectory memory**, keyed by
   ``(flow ID, link IDs)``;
2. like NetFlow, a record is evicted when a FIN/RST is seen or after an idle
   timeout (5 seconds by default);
3. the **trajectory construction** sub-module turns the record's raw link IDs
   into an end-to-end switch path, consulting a **trajectory cache** keyed by
   ``(srcIP, link IDs)`` before falling back to the topology-based
   reconstruction;
4. the finished ``<flow ID, path, stime, etime, #bytes, #pkts>`` record is
   written to the TIB.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.network.packet import FlowId
from repro.storage.records import PathFlowRecord, TrajectoryMemoryRecord
from repro.tracing.reconstruct import (PathReconstructor, ReconstructionError)

#: Default idle timeout after which a trajectory-memory record is evicted.
DEFAULT_IDLE_TIMEOUT_S = 5.0

#: Default capacity of the trajectory cache (entries).
DEFAULT_CACHE_ENTRIES = 4096


class TrajectoryCache:
    """An LRU cache mapping ``(src_host, dst_host, link IDs)`` to a
    constructed path.

    The cache exists because many flows from the same source traverse the
    same sampled links; hitting the cache avoids re-running the topology
    search for every evicted record.  Its effectiveness is quantified by the
    cache ablation benchmark.  The paper's per-host cache is keyed by
    ``(srcIP, link IDs)`` because the destination is the host itself; the
    destination is part of the key here so one cache can be shared by
    several agents (two hosts under one ToR see the same source and
    sampled links, but their paths end at different hosts).
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_ENTRIES) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, str, Tuple[int, ...]], Tuple[str, ...]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, src_host: str, dst_host: str,
            link_ids: Sequence[int]) -> Optional[Tuple[str, ...]]:
        """Look up a cached path; updates hit/miss counters."""
        key = (src_host, dst_host, tuple(link_ids))
        path = self._entries.get(key)
        if path is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return path

    def put(self, src_host: str, dst_host: str, link_ids: Sequence[int],
            path: Sequence[str]) -> None:
        """Insert a constructed path."""
        key = (src_host, dst_host, tuple(link_ids))
        self._entries[key] = tuple(path)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def estimated_bytes(self) -> int:
        """Rough memory footprint of the cache."""
        total = 0
        for (src, dst, link_ids), path in self._entries.items():
            total += len(src) + len(dst) + 8 * len(link_ids)
            total += sum(len(node) + 2 for node in path)
        return total


class TrajectoryMemory:
    """Per-path flow records awaiting eviction to the TIB.

    Records are kept in **recency order** (a touched record moves to the
    end), so the periodic idle-eviction scan walks only the idle prefix and
    stops at the first record still fresh - O(evicted) per flush instead of
    a full O(n) scan.  The early stop is exact as long as packet
    timestamps arrive non-decreasing (the fabric delivers in time order);
    should an out-of-order timestamp ever be observed, the memory notices
    and falls back to the exhaustive scan, so the eviction *set* is always
    identical to the full scan's.

    Args:
        idle_timeout: seconds of inactivity after which a record is evicted.
    """

    def __init__(self, idle_timeout: float = DEFAULT_IDLE_TIMEOUT_S) -> None:
        self.idle_timeout = idle_timeout
        self._records: "OrderedDict[Tuple[FlowId, Tuple[int, ...]], TrajectoryMemoryRecord]" = OrderedDict()
        self.lookups = 0
        # Recency order equals etime order only while touch timestamps
        # never go backwards; flipped (permanently) on the first regression.
        self._monotonic = True
        self._last_when = float("-inf")

    # ----------------------------------------------------------------- writes
    def update(self, flow_id: FlowId, link_ids: Sequence[int], nbytes: int,
               when: float, terminate: bool = False
               ) -> Optional[TrajectoryMemoryRecord]:
        """Fold one packet into the memory.

        This is the per-packet fast path: the record is keyed directly by
        the (hashable) ``FlowId`` plus the sample tuple - no string key is
        derived and, for a resident record, no object is allocated.

        Args:
            flow_id: the packet's flow.
            link_ids: the packet's samples in traversal order.
            nbytes: payload bytes.
            when: arrival time.
            terminate: the packet carried FIN or RST; the record is evicted
                immediately (and returned).

        Returns:
            The evicted record when ``terminate`` is set, else ``None``.
        """
        samples = link_ids if type(link_ids) is tuple else tuple(link_ids)
        key = (flow_id, samples)
        self.lookups += 1
        if when < self._last_when:
            self._monotonic = False
        else:
            self._last_when = when
        records = self._records
        record = records.get(key)
        if record is None:
            record = TrajectoryMemoryRecord(
                flow_id=flow_id, link_ids=samples, stime=when,
                etime=when, bytes=0, pkts=0, src_host=flow_id.src_ip)
            records[key] = record  # new keys land at the end already
        else:
            records.move_to_end(key)  # touched: most recent again
        record.bytes += nbytes
        record.pkts += 1
        if when < record.stime:
            record.stime = when
        if when > record.etime:
            record.etime = when
        if terminate:
            del records[key]
            return record
        return None

    def evict_idle(self, now: float) -> List[TrajectoryMemoryRecord]:
        """Evict records idle for longer than the timeout.

        Walks the recency order from the oldest end and stops at the first
        record still fresh - records behind it were touched even later, so
        with monotone timestamps none of them can be idle.  The one-time
        fallback (timestamps observed going backwards) scans exhaustively;
        either way the eviction set equals the full scan's.
        """
        records = self._records
        timeout = self.idle_timeout
        if not self._monotonic:
            evicted = []
            for key, record in list(records.items()):
                if now - record.etime >= timeout:
                    evicted.append(record)
                    del records[key]
            return evicted
        evicted = []
        while records:
            key = next(iter(records))
            record = records[key]
            if now - record.etime < timeout:
                break
            del records[key]
            evicted.append(record)
        return evicted

    def evict_all(self) -> List[TrajectoryMemoryRecord]:
        """Evict every record (end of experiment / shutdown)."""
        evicted = list(self._records.values())
        self._records.clear()
        return evicted

    # ------------------------------------------------------------------ reads
    def __len__(self) -> int:
        return len(self._records)

    def live_records(self) -> List[TrajectoryMemoryRecord]:
        """Records currently resident (for queries needing fresh data)."""
        return list(self._records.values())

    def estimated_bytes(self) -> int:
        """Rough memory footprint."""
        total = 0
        for record in self._records.values():
            total += 64 + 8 * len(record.link_ids)
        return total


class TrajectoryConstructor:
    """Turns raw trajectory-memory records into TIB path records.

    Args:
        reconstructor: the topology-backed path reconstructor.
        cache: the trajectory cache (a private one is created if omitted).
        on_invalid: callback invoked with (record, error) whenever a record's
            samples are inconsistent with the topology - the signal used to
            detect incorrect header modification (Section 2.4).
    """

    def __init__(self, reconstructor: PathReconstructor,
                 cache: Optional[TrajectoryCache] = None,
                 on_invalid: Optional[Callable[[TrajectoryMemoryRecord,
                                                ReconstructionError],
                                               None]] = None) -> None:
        self.reconstructor = reconstructor
        # Note: an empty cache is falsy (len() == 0), so test against None.
        self.cache = cache if cache is not None else TrajectoryCache()
        self.on_invalid = on_invalid
        self.constructed = 0
        self.invalid = 0

    def construct(self, record: TrajectoryMemoryRecord
                  ) -> Optional[PathFlowRecord]:
        """Construct the TIB record for one evicted memory record.

        Returns ``None`` (and reports via ``on_invalid``) when the samples
        cannot be mapped onto any feasible path.
        """
        src = record.flow_id.src_ip
        dst = record.flow_id.dst_ip
        path = self.cache.get(src, dst, record.link_ids)
        if path is None:
            try:
                reconstructed = self.reconstructor.reconstruct(
                    src, dst, list(record.link_ids))
            except ReconstructionError as error:
                self.invalid += 1
                if self.on_invalid is not None:
                    self.on_invalid(record, error)
                return None
            path = tuple(reconstructed.path)
            self.cache.put(src, dst, record.link_ids, path)
        self.constructed += 1
        return PathFlowRecord(
            flow_id=record.flow_id, path=tuple(path), stime=record.stime,
            etime=record.etime, bytes=record.bytes, pkts=record.pkts)
