"""The Trajectory Information Base (TIB) and the host query API.

Each end host keeps a TIB: the repository of per-path flow records extracted
from the trajectories embedded in arriving packets.  The host API of Table 1
reads it:

* ``getFlows(linkID, timeRange)`` - flows that traversed a link;
* ``getPaths(flowID, linkID, timeRange)`` - paths taken by a flow;
* ``getCount(Flow, timeRange)`` - packet and byte counts of a flow;
* ``getDuration(Flow, timeRange)`` - duration of a flow.

The first two are :meth:`Tib.get_flows` / :meth:`Tib.get_paths`; the last
two are plans (:func:`repro.core.plan.compile_get_count`,
:func:`~repro.core.plan.compile_get_duration`) executed against the TIB.

``linkID`` is a pair of adjacent switch IDs, ``timeRange`` a pair of
timestamps; both support wildcards (``None`` or ``"*"`` / ``"?"``), exactly
as described in Section 2.1.

Storage engine
--------------

The TIB stores each record once, as a :class:`PathFlowRecord` in the
cached-record layer, and answers those queries from a set of
always-maintained indexes over it:

* a **primary keyed index** ``(flow key, path) -> record id`` makes
  :meth:`Tib.add_record` an O(1) in-place upsert - consecutive records of
  the same (flow, path) are merged by mutating the stored record, never by
  delete + reinsert;
* a **per-flow index** ``flow key -> record ids`` serves ``getPaths`` /
  ``getCount`` / ``getDuration``;
* **link postings** ``link ordinal -> record ids`` serve
  ``getFlows(linkID)``.  Links are numbered undirected by the
  :class:`~repro.storage.records.LinkNumbering` the TIB shares with its
  cold archive, and both tiers pick a spec's link matches with the one
  :func:`~repro.storage.records.select`: a wildcard endpoint is the union
  of its node's incident links, a conjunction the intersection;
* the **cached-record layer** keeps one :class:`PathFlowRecord` per row, so
  queries return memoized objects.  A time window is applied to the
  candidates the postings pick, and a window-only read walks the cached
  records: an overlap bounds ``etime`` from below and ``stime`` from
  above, so an index sorted on either bound cuts only one side of it;
* incrementally maintained **per-flow aggregates** (bytes/packets per flow
  key) answer unconstrained ``getCount`` and whole-TIB byte rankings
  without touching any record;
* a **flow ranking** - every flow's ``(bytes, flow key)`` in ascending
  order - serves unconstrained top-k as a slice
  (:meth:`Tib.ranked_flow_bytes`).  Writes only note which flows changed;
  the next ranked read repairs those entries in place, or re-sorts when
  more than :attr:`Tib.RANK_REBUILD_SHARE` of the flows changed.

No document form of a record is stored: the Section 5.3 storage figure
(:meth:`Tib.estimated_bytes`, what ``max_bytes`` bounds) is a running sum of
``PathFlowRecord.document_bytes()`` over the hot records.  That size depends
only on a record's flow ID and path, so the sum moves on insert, promotion
and eviction and never on a merge.

Callers must treat records returned by queries as read-only; all mutation
goes through :meth:`Tib.add_record`, which copies on insert by default
(``adopt=True`` transfers ownership instead) so a caller's record object is
never mutated behind its back.

Two tiers: bounded hot memory + cold archive
--------------------------------------------

PathDump keeps only recent flow entries in the in-memory TIB and ages
older entries out to persistent storage.  A
:class:`~repro.storage.archive.RetentionPolicy` (record-count and/or
``estimated_bytes`` caps on the hot tier) turns that on: whenever a write
pushes the hot tier over a bound, the records with the **oldest
``etime``** are evicted - dropped from the hot engine's indexes - into a
:class:`~repro.storage.archive.ColdArchive` of append-only log segments,
under their original record ids.

Reads span both tiers transparently: :meth:`Tib.records` (and everything
built on it) merges the hot tier's id-ordered results with the archive's
id-ordered matches, so a capped TIB returns **byte-identical payloads** to
an uncapped one, in the same deterministic order.  Writes stay
upsert-correct across tiers: a record arriving for an archived
``(flow, path)`` key *promotes* the archived entry back into the hot tier
(same id) and merges into it, leaving its log row behind as garbage for
compaction.  The per-flow byte/packet aggregates deliberately span both
tiers, so the unconstrained ``getCount`` / top-k fast paths never touch the
archive.

``record_count()`` / ``estimated_bytes()`` report the **hot tier only**
(they are the quantities the retention bound is enforced on);
``total_record_count()`` / ``archive_bytes()`` / ``tier_stats()`` cover
both tiers.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from repro.counters import Counters
from repro.network.packet import FlowId
from repro.storage.archive import ArchiveStats, ColdArchive, RetentionPolicy
from repro.storage.docstore import DocumentStore
from repro.storage.records import (LinkNumbering, PathFlowRecord, ScanSpec,
                                   flow_key, is_wild, select)

#: Wildcard marker accepted in link IDs and time ranges.
WILDCARD = "*"

#: A link ID as used by the query API: a pair of switch names, either of
#: which may be a wildcard.
LinkId = Tuple[Optional[str], Optional[str]]

#: A time range: (start, end), either bound may be a wildcard.
TimeRange = Tuple[Optional[float], Optional[float]]

#: A "Flow" in the paper's sense: a (flowID, Path) pair.
Flow = Tuple[FlowId, Tuple[str, ...]]

_INF = float("inf")

_EMPTY_IDS: FrozenSet[int] = frozenset()


def _window(spec: ScanSpec) -> Tuple[float, float]:
    """A spec's window with open bounds at infinity: a record overlaps it
    iff ``not etime < low and not stime > high``, as ``ScanSpec.matches``
    rejects."""
    return (-_INF if spec.start is None else spec.start,
            _INF if spec.end is None else spec.end)


#: How an order-free column read takes each field it may name - the
#: ``COLUMN_FIELDS`` of :mod:`repro.storage.records` - off the hot records
#: (a comprehension's attribute load beats ``map(attrgetter)`` 2:1).
_HOT_COLUMNS = {
    "path": lambda records: [record.path for record in records],
    "stime": lambda records: [record.stime for record in records],
    "etime": lambda records: [record.etime for record in records],
    "bytes": lambda records: [record.bytes for record in records],
    "pkts": lambda records: [record.pkts for record in records],
}


def normalise_time_range(time_range: Optional[TimeRange]
                         ) -> Tuple[Optional[float], Optional[float]]:
    """Normalise a time range, mapping wildcards to ``None`` bounds."""
    if time_range is None:
        return (None, None)
    start, end = time_range
    start = None if is_wild(start) else float(start)
    end = None if is_wild(end) else float(end)
    if start is not None and end is not None and end < start:
        raise ValueError("time range end precedes start")
    return (start, end)


def read_spec(flow_id: Optional[FlowId] = None,
              link: Optional[LinkId] = None,
              time_range: Optional[TimeRange] = None) -> ScanSpec:
    """The :class:`ScanSpec` of a keyword read (``Tib.records``'
    constraints); a reversed ``time_range`` raises :class:`ValueError`."""
    start, end = normalise_time_range(time_range)
    return ScanSpec(
        start=start, end=end, links=() if link is None else (tuple(link),),
        flow_keys=(None if flow_id is None
                   else frozenset((flow_key(flow_id),))))


@dataclass(slots=True)
class TibStats(Counters):
    """Tier movement and hot-tier scan routing of one TIB.

    The routing counters say how each hot read found its candidates; the
    plan executor diffs :meth:`Tib.scan_stat_snapshot` around a plan to
    prove its pushed filter actually routed through an index.
    """

    #: Records aged hot -> cold (cold admissions and off-tier folds too).
    evictions: int = 0
    #: Archived records promoted back hot (off-tier folds too).
    promotions: int = 0
    #: Reads served from the flow postings (links and window filter them).
    hot_flow_routed: int = 0
    #: Reads with link constraints and no flow keys: the link postings.
    hot_link_routed: int = 0
    #: Window-only reads, served by walking the hot records.
    hot_time_routed: int = 0
    #: Unconstrained reads: every hot record.
    hot_full_scans: int = 0


@dataclass(slots=True)
class TierClock:
    """Seconds one traced query spent reading each tier (``hot_s``: the
    hot records, ``cold_s``: the archive's selection), added up by
    :meth:`Tib.spec_records` and :meth:`Tib.fold` while installed as
    :attr:`Tib.read_clock`."""

    hot_s: float = 0.0
    cold_s: float = 0.0


class Tib:
    """One end host's Trajectory Information Base.

    Args:
        host: the owning end host's name.
        retention: optional hot-tier bounds; when any bound is set the TIB
            runs two-tiered (see the module docstring) and ages
            oldest-``etime`` records into ``archive``.
        archive: optional cold archive instance (a default
            :class:`~repro.storage.archive.ColdArchive` is created when a
            bounded retention policy needs one).
    """

    # One always-empty collection shared by all instances (never write to
    # it): the frozen pathbench tracer reads its docstore.* canaries here.
    COLLECTION = "tib_records"
    store = DocumentStore()

    def __init__(self, host: str,
                 retention: Optional[RetentionPolicy] = None,
                 archive: Optional[ColdArchive] = None) -> None:
        self.host = host
        # Engine state (see the module docstring).  All postings hold record
        # ids; ids are assigned in first-arrival order (both tiers share the
        # sequence), so id order doubles as the deterministic result order.
        self._next_id = 0
        self._hot_bytes = 0  # sum of document_bytes() over the hot records
        self._primary: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self._cache: Dict[int, PathFlowRecord] = {}
        self._flow_ids: Dict[str, List[int]] = {}
        self._flow_totals: Dict[str, List[int]] = {}
        # Link ordinal -> hot record ids (emptied sets stay, one per link).
        self._link_postings: Dict[int, Set[int]] = {}
        # Flow ranking (see ranked_flow_bytes): ascending (bytes, flow key)
        # over _flow_totals as of the last ranked read, and the flows
        # written since - {flow key: bytes the ranking still holds for
        # it, or None when it holds no entry yet}.  Reads fold the second
        # into the first under the lock; writes only fill the map.
        self._ranking: List[Tuple[int, str]] = []  # guarded-by: _ranking_lock
        self._rank_stale: Dict[str, Optional[int]] = {}
        self._ranking_lock = threading.Lock()
        # Two-tier state (engaged only when a bounded retention policy is
        # configured - the unbounded single-tier fast paths pay nothing).
        self.retention = retention or RetentionPolicy()
        self.archive: Optional[ColdArchive] = archive
        if self.archive is None and self.retention.bounded:
            self.archive = ColdArchive()
        # One link numbering for both tiers: the archive's, when there is
        # one (an archive made later adopts this one while still empty).
        self.links = (self.archive.links if self.archive is not None
                      else LinkNumbering())
        # Min-heap of (etime, record id) driving oldest-first eviction;
        # entries go stale when a merge raises a record's etime (lazily
        # validated on pop).  Maintained only while retention is bounded.
        self._evict_heap: List[Tuple[float, int]] = []
        if self.retention.bounded:
            self._rebuild_evict_heap()
        # Promotions reinsert old ids: the cache's insertion order stops
        # being id order, so a walk of it must sort what it returns.
        self._cache_order_dirty = False
        self.stats = TibStats()
        #: Installed for one traced query's run (``QueryEngine.execute``):
        #: the tier-spanning reads add each tier's time to it.
        self.read_clock: Optional[TierClock] = None

    # pathbench's tracer reads these two by name; ROADMAP item 10 removes
    # them (code in src/ reads ``self.stats``).
    @property
    def evictions(self) -> int:
        return self.stats.evictions

    @property
    def promotions(self) -> int:
        return self.stats.promotions

    # ----------------------------------------------------------------- writes
    def add_record(self, record: PathFlowRecord, adopt: bool = False) -> None:
        """Insert a finished per-path flow record.

        Consecutive records for the same (flow, path) are merged in place,
        mirroring the per-path aggregation the trajectory memory performs.

        The caller's record is **never mutated**: by default the TIB stores
        a private copy on first insert (copy-on-insert), so the caller may
        keep, reuse or mutate its object freely - earlier, the TIB both
        rewrote ``record.path`` in place and folded later merges into the
        caller's retained object.  Producers that hand over freshly built,
        never-again-touched records (the trajectory constructor's eviction
        path) pass ``adopt=True`` to transfer ownership and skip the copy.
        """
        path = record.path
        if type(path) is not tuple:
            path = tuple(path)
        key = (flow_key(record.flow_id), path)
        record_id = self._primary.get(key)
        if record_id is None and self.archive is not None and \
                self.archive.lookup(key) is not None:
            # The key was aged out: the merge lands on the archived record
            # (promoted back hot, or folded off-tier - see _merge_archived)
            # exactly where an uncapped TIB would put it.
            self._merge_archived(key, record)
            if self.retention.bounded:
                self._enforce_retention()
            return
        if record_id is None:
            if adopt:
                if record.path is not path:
                    record.path = path
                stored = record
            else:
                stored = PathFlowRecord(
                    flow_id=record.flow_id, path=path, stime=record.stime,
                    etime=record.etime, bytes=record.bytes, pkts=record.pkts)
            if not self._admit_cold(key, stored):
                self._insert_new(key, stored)
        else:
            self._merge_into(record_id, key[0], record)
        if self.retention.bounded:
            self._enforce_retention()

    def add_records(self, records: Iterable[PathFlowRecord],
                    adopt: bool = False) -> int:
        """Insert many records (bulk upsert); returns the number processed.

        ``adopt=True`` transfers ownership of the record objects to the TIB
        (no copy-on-insert; the caller must not touch them again).
        """
        count = 0
        add = self.add_record
        for record in records:
            add(record, adopt)
            count += 1
        return count

    def clear(self) -> None:
        """Drop every record."""
        self._next_id = 0
        self._hot_bytes = 0
        self._primary.clear()
        self._cache.clear()
        self._flow_ids.clear()
        self._flow_totals.clear()
        with self._ranking_lock:
            self._ranking = []
        self._rank_stale.clear()
        self._link_postings.clear()
        if self.archive is not None:
            self.archive.clear()
        self._evict_heap = []
        self._cache_order_dirty = False

    def _admit_cold(self, key: Tuple[str, Tuple[str, ...]],
                    record: PathFlowRecord) -> bool:
        """Cold-admission control: archive a record that would age out
        immediately, skipping the hot insert + self-eviction round-trip.

        With a record-count bound at capacity, a new record strictly older
        (by ``etime``) than the eviction heap's minimum would become the
        heap's very next victim: the normal path would insert it, index
        it, then evict that same record before ``add_record`` returns.
        Routing it straight to the write-behind buffer produces the
        *identical* observable state - same hot contents, same cold
        contents, same eviction count, and the same record id (the next of
        the sequence, so spanning reads stay byte-identical to an uncapped
        TIB's id order) - without the round-trip.
        Stale heap entries only ever *understate* the hot minimum, so the
        strict comparison can never misroute a record the hot tier would
        have kept.
        """
        policy = self.retention
        if policy.max_records is None or self.archive is None or \
                len(self._cache) < policy.max_records:
            return False
        heap = self._evict_heap
        if not heap or record.etime >= heap[0][0]:
            return False
        record_id = self._next_id
        self._next_id += 1
        # _flow_totals spans both tiers (see _evict_record).
        totals = self._flow_totals.get(key[0])
        if totals is None:
            self._flow_totals[key[0]] = [record.bytes, record.pkts]
            self._rank_stale[key[0]] = None
        else:
            self._rank_stale.setdefault(key[0], totals[0])
            totals[0] += record.bytes
            totals[1] += record.pkts
        self.archive.stage(record_id, record, key)
        self.stats.evictions += 1
        return True

    def _insert_new(self, key: Tuple[str, Tuple[str, ...]],
                    record: PathFlowRecord) -> None:
        record_id = self._next_id
        self._next_id += 1
        self._hot_bytes += record.document_bytes()
        self._primary[key] = record_id
        self._cache[record_id] = record
        self._flow_ids.setdefault(key[0], []).append(record_id)
        totals = self._flow_totals.get(key[0])
        if totals is None:
            self._flow_totals[key[0]] = [record.bytes, record.pkts]
            self._rank_stale[key[0]] = None
        else:
            self._rank_stale.setdefault(key[0], totals[0])
            totals[0] += record.bytes
            totals[1] += record.pkts
        self._post_links(record_id, record.path)
        if self.retention.bounded:
            heappush(self._evict_heap, (record.etime, record_id))

    def _post_links(self, record_id: int, path: Tuple[str, ...]) -> None:
        """File a hot record under every link of its path."""
        postings = self._link_postings
        for ordinal in self.links.of_path(path):
            ids = postings.get(ordinal)
            if ids is None:
                postings[ordinal] = {record_id}
            else:
                ids.add(record_id)

    def _merge_into(self, record_id: int, fkey: str,
                    record: PathFlowRecord) -> None:
        cached = self._cache[record_id]
        cached.bytes += record.bytes
        cached.pkts += record.pkts
        totals = self._flow_totals[fkey]
        self._rank_stale.setdefault(fkey, totals[0])
        totals[0] += record.bytes
        totals[1] += record.pkts
        if record.stime < cached.stime:
            cached.stime = record.stime
        if record.etime > cached.etime:
            cached.etime = record.etime
            if self.retention.bounded:
                heappush(self._evict_heap, (cached.etime, record_id))

    # -------------------------------------------------------------- retention
    def configure_retention(self, max_records: Optional[int] = None,
                            max_bytes: Optional[int] = None) -> None:
        """(Re)configure the hot-tier bounds and enforce them immediately.

        ``None`` bounds are unbounded; configuring both to ``None`` stops
        future aging (already-archived records stay cold and queries keep
        spanning both tiers).
        """
        self.retention = RetentionPolicy(max_records=max_records,
                                         max_bytes=max_bytes)
        if self.retention.bounded:
            if self.archive is None:
                self.archive = ColdArchive()
                self.archive.links = self.links
            self._rebuild_evict_heap()
            self._enforce_retention()

    def _rebuild_evict_heap(self) -> None:
        """Seed the eviction heap from the live hot tier (policy (re)set)."""
        heap = [(record.etime, record_id)
                for record_id, record in self._cache.items()]
        heapify(heap)
        self._evict_heap = heap

    def _enforce_retention(self) -> None:
        """Age oldest-``etime`` records into the archive until the hot tier
        is back under every configured bound."""
        policy = self.retention
        cache = self._cache
        heap = self._evict_heap
        while heap and policy.exceeded_by(len(cache), self._hot_bytes):
            etime, record_id = heappop(heap)
            record = cache.get(record_id)
            if record is None or record.etime != etime:
                continue  # evicted already, or a merge raised its etime
            self._evict_record(record_id, record)

    def _evict_record(self, record_id: int, record: PathFlowRecord) -> None:
        """Move one hot record into the cold archive (indexes dropped)."""
        key = (flow_key(record.flow_id), record.path)
        del self._primary[key]
        del self._cache[record_id]
        posting = self._flow_ids.get(key[0])
        if posting is not None:
            posting.remove(record_id)
            if not posting:
                del self._flow_ids[key[0]]
        # NOTE: _flow_totals deliberately spans both tiers (unconstrained
        # getCount / top-k stay exact and archive-free) - not decremented.
        postings = self._link_postings
        for ordinal in self.links.of_path(record.path):
            postings[ordinal].discard(record_id)
        self._hot_bytes -= record.document_bytes()
        # Write-behind: the eviction fast path pays a dict insert, not a
        # log append - the archive batches the appends and every read path
        # flushes first (see ColdArchive.stage).
        self.archive.stage(record_id, record, key)
        self.stats.evictions += 1

    def _merge_archived(self, key: Tuple[str, Tuple[str, ...]],
                        record: PathFlowRecord) -> None:
        """Merge ``record`` into the key's archived record.

        The default path promotes the archived record back into the hot
        tier and merges there (:meth:`_restore_from_archive` +
        :meth:`_merge_into`).  Admission control short-circuits the
        round-trip: when the hot tier is at its record cap and both the
        incoming and the archived ``etime`` sit strictly below the
        eviction heap's minimum, the merged record would be the very next
        eviction victim - so the merge folds *off-tier* (take, fold,
        re-stage), producing the identical observable state (same tiers,
        same id, same eviction/promotion counts, same spanning payloads)
        without touching the hot engine.  Stale heap entries only ever
        understate the hot minimum, so the short-circuit can never keep a
        record cold that the hot tier would have retained.
        """
        policy = self.retention
        heap = self._evict_heap
        if policy.max_records is not None and heap and \
                len(self._cache) >= policy.max_records and \
                record.etime < heap[0][0]:
            record_id, archived = self.archive.take(key)
            if archived.etime < heap[0][0]:
                # Fold off-tier (the _merge_into arithmetic, on the
                # archive's exclusively-owned record object).
                archived.bytes += record.bytes
                archived.pkts += record.pkts
                if record.stime < archived.stime:
                    archived.stime = record.stime
                if record.etime > archived.etime:
                    archived.etime = record.etime
                totals = self._flow_totals[key[0]]
                self._rank_stale.setdefault(key[0], totals[0])
                totals[0] += record.bytes
                totals[1] += record.pkts
                self.archive.stage(record_id, archived, key)
                self.stats.promotions += 1
                self.stats.evictions += 1
                return
            # It would stay hot after all: promote it normally (the take
            # already happened, so install the object directly).
            self._install_promoted(record_id, archived, key)
            self._merge_into(record_id, key[0], record)
            return
        self._merge_into(self._restore_from_archive(key), key[0], record)

    def _restore_from_archive(self, key: Tuple[str, Tuple[str, ...]]) -> int:
        """Promote the archived record for ``key`` back into the hot tier.

        The record keeps its original id, so merged results stay in the
        exact order an uncapped TIB would produce.  The caller merges the
        incoming record afterwards (and retention enforcement may age
        something - possibly this very record - right back out).
        """
        record_id, record = self.archive.take(key)
        self._install_promoted(record_id, record, key)
        return record_id

    def _install_promoted(self, record_id: int, record: PathFlowRecord,
                          key: Tuple[str, Tuple[str, ...]]) -> None:
        """Install an already-taken archived record into the hot tier."""
        self._hot_bytes += record.document_bytes()
        self._primary[key] = record_id
        self._cache[record_id] = record
        self._cache_order_dirty = True
        insort(self._flow_ids.setdefault(key[0], []), record_id)
        # _flow_totals already covers this record (it spans both tiers).
        self._post_links(record_id, record.path)
        if self.retention.bounded:
            heappush(self._evict_heap, (record.etime, record_id))
        self.stats.promotions += 1

    # ------------------------------------------------------------------ reads
    def records(self, flow_id: Optional[FlowId] = None,
                link: Optional[LinkId] = None,
                time_range: Optional[TimeRange] = None
                ) -> List[PathFlowRecord]:
        """All records matching the given constraints.

        The constraints compile into one :class:`ScanSpec` served by both
        tiers' ``scan``: hot results and cold-archive matches are merged in
        record-id order, so a capped TIB answers identically to an uncapped
        one.  The returned hot-tier :class:`PathFlowRecord` objects are the
        TIB's own memoized instances - treat them as read-only (archived
        matches are freshly materialised objects).
        """
        return self.spec_records(read_spec(flow_id, link, time_range))

    def spec_records(self, spec: ScanSpec) -> List[PathFlowRecord]:
        """All records matching one :class:`ScanSpec`, both tiers merged.

        The spec-native read surface :meth:`records` compiles onto, and
        the seam the plan executor's pushed ``Filter`` lands on: hot
        results and cold-archive matches merge in record-id order, so a
        capped TIB answers identically to an uncapped one.
        """
        clock = self.read_clock
        started = split = time.perf_counter() if clock is not None else 0.0
        archive = self.archive
        if archive is None or not archive.live_count:
            rows = self._hot_records(spec)
            if clock is not None:
                clock.hot_s += time.perf_counter() - started
            return rows
        pairs = self.scan(spec)
        if clock is not None:
            split = time.perf_counter()
            clock.hot_s += split - started
        cold = archive.scan(spec)
        if clock is not None:
            clock.cold_s += time.perf_counter() - split
        if cold:
            pairs.extend(cold)
            pairs.sort(key=lambda pair: pair[0])
        return [record for _, record in pairs]

    def fold(self, spec: ScanSpec, fields: Sequence[str]
             ) -> Iterator[Tuple[Sequence, ...]]:
        """Exactly the rows :meth:`spec_records` returns, as columns and in
        no particular order - the read an aggregate wants.

        Yields chunks, each a tuple of parallel non-empty sequences of the
        named ``fields`` (:data:`~repro.storage.records.COLUMN_FIELDS`
        names): the hot tier's matches first, read off the live record
        objects, then one chunk per cold log position straight from its
        columns (:meth:`ColdArchive.fold
        <repro.storage.archive.ColdArchive.fold>`) - no record is built for
        a cold row.  Chunks are read-only views, valid until the next
        write.  Anything keyed that is computed from them must not depend
        on row order: chunks follow the tier split, not record ids.
        """
        clock = self.read_clock
        started = time.perf_counter() if clock is not None else 0.0
        columns = [_HOT_COLUMNS[name] for name in fields]
        hot = self._hot_records(spec)
        if clock is not None:
            clock.hot_s += time.perf_counter() - started
        if hot:
            yield tuple([column(hot) for column in columns])
        archive = self.archive
        if archive is None or not archive.live_count:
            return
        if clock is None:
            yield from archive.fold(spec, fields)
            return
        chunks = archive.fold(spec, fields)
        while True:  # a chunk's read is clocked, its consumer's work not
            started = time.perf_counter()
            chunk = next(chunks, None)
            clock.cold_s += time.perf_counter() - started
            if chunk is None:
                return
            yield chunk

    def _hot_records(self, spec: ScanSpec) -> List[PathFlowRecord]:
        """The hot tier's matches in id order, without the ids - all of a
        read when the archive holds no live entry.

        A window-only or unconstrained read of a cache still in id order
        skips the ``(id, record)`` pairs; every other read is
        :meth:`scan`'s, so capped and uncapped reads can never diverge.
        """
        if spec.flow_keys is not None or spec.links or \
                self._cache_order_dirty:
            return [record for _, record in self.scan(spec)]
        records = self._cache.values()
        if spec.start is None and spec.end is None:
            self.stats.hot_full_scans += 1
            return list(records)
        self.stats.hot_time_routed += 1
        low, high = _window(spec)
        return [record for record in records
                if not record.etime < low and not record.stime > high]

    def scan(self, spec: ScanSpec) -> List[Tuple[int, PathFlowRecord]]:
        """The hot tier's matches for ``spec``: ``(id, record)`` pairs in
        id order - the hot half of the tiers' shared read surface
        (:meth:`ColdArchive.scan <repro.storage.archive.ColdArchive.scan>`
        is the cold half).

        The candidates are the flow postings' ids narrowed by the link
        selection (:func:`~repro.storage.records.select` over the link
        postings), or that selection alone, and the window filters them;
        a read with neither walks the cached records.  :meth:`records`
        merges cold matches into the pairs by id for the deterministic
        whole-TIB order.
        """
        cache = self._cache
        low, high = _window(spec)
        if spec.flow_keys is None and not spec.links:
            if spec.start is None and spec.end is None:
                self.stats.hot_full_scans += 1
                pairs = list(cache.items())
            else:
                self.stats.hot_time_routed += 1
                pairs = [(record_id, record)
                         for record_id, record in cache.items()
                         if not record.etime < low and not record.stime > high]
            if self._cache_order_dirty:
                # Promotions reinserted old ids at the dict's tail.
                pairs.sort(key=itemgetter(0))
            return pairs
        postings = self._link_postings
        constraints = self.links.constraints(spec.links)
        if spec.flow_keys is not None:
            self.stats.hot_flow_routed += 1
            # Posting lists are in id order; several keys' union re-sorts.
            if len(spec.flow_keys) == 1:
                ids: Iterable[int] = self._flow_ids.get(
                    next(iter(spec.flow_keys)), ())
            else:
                ids = sorted(record_id for fkey in spec.flow_keys
                             for record_id in self._flow_ids.get(fkey, ()))
            if constraints:
                among = set(ids)  # a run then costs its smaller side only
                ids = sorted(select(constraints, lambda ordinal: among & (
                    postings.get(ordinal, _EMPTY_IDS))) or ())
        else:
            self.stats.hot_link_routed += 1
            ids = sorted(select(constraints, lambda ordinal: postings.get(
                ordinal, _EMPTY_IDS)) or ())
        return [(record_id, record) for record_id in ids
                if not (record := cache[record_id]).etime < low
                and not record.stime > high]

    def record_count(self) -> int:
        """Number of records in the **hot tier** (the bounded quantity)."""
        return len(self._cache)

    def total_record_count(self) -> int:
        """Number of records across both tiers."""
        total = len(self._cache)
        if self.archive is not None:
            total += self.archive.live_count
        return total

    def flow_byte_totals(self) -> Dict[str, int]:
        """Total bytes per flow key over the whole TIB (both tiers).

        Served from the incrementally maintained per-flow aggregates (no
        record scan); flows appear in first-record order.  This is the fast
        path behind an unconstrained per-flow byte sum (its ranked top-k
        slices :meth:`ranked_flow_bytes` instead), and it deliberately
        spans the archive - aging a record out never changes a flow's
        totals.
        """
        return {key: totals[0]
                for key, totals in self._flow_totals.items()}

    #: A ranked read repairs the flows written since the previous one one
    #: by one (bisect + delete + insort: ~1.3 us a flow at 1,500 flows,
    #: ~6 us at 20,000, where shifting the list's tail dominates) unless
    #: more than this share of all flows changed; then it re-sorts the
    #: unchanged entries with the changed ones appended (~0.1-0.2 ms at
    #: 1,500 flows, ~3-5 ms at 20,000).  Repair stops paying at ~7 % of
    #: 1,500 flows and ~3.5 % of 20,000.  Between two ranked reads
    #: pathbench's query-hot changes <= 2.1 % of a host's 1,500 flows and
    #: query-cold ~1.2 % of 5,000 (both repaired); edge-ingest changes
    #: ~11 % of its 20,000 (re-sorted).
    RANK_REBUILD_SHARE = 0.05

    def ranked_flow_bytes(self, k: int, descending: bool = True
                          ) -> List[Tuple[int, str]]:
        """The ``k`` largest (``descending``) or smallest ``(bytes, flow
        key)`` pairs over the whole TIB (both tiers), in that order.

        The same list as ranking :meth:`flow_byte_totals`' pairs under
        full-tuple comparison - a total order has one sorted sequence -
        served as a slice of the maintained flow ranking once the flows
        written since the last ranked read are folded in (see
        :attr:`RANK_REBUILD_SHARE`).  Safe against concurrent ranked
        reads (the fold runs under a lock); writes must not race with
        queries, as everywhere in the TIB.
        """
        with self._ranking_lock:
            stale = self._rank_stale
            if stale:
                totals = self._flow_totals
                ranking = self._ranking
                if len(stale) > len(totals) * self.RANK_REBUILD_SHARE:
                    ranking = [pair for pair in ranking
                               if pair[1] not in stale]
                    ranking += [(totals[fkey][0], fkey) for fkey in stale]
                    ranking.sort()
                    self._ranking = ranking
                else:
                    for fkey, held in stale.items():
                        if held is not None:
                            del ranking[bisect_left(ranking, (held, fkey))]
                        insort(ranking, (totals[fkey][0], fkey))
                stale.clear()
            ranking = self._ranking
            return ranking[:-k - 1:-1] if descending else ranking[:k]

    def flow_totals(self, fkey: str) -> Tuple[int, int]:
        """One flow's maintained ``(bytes, pkts)`` totals over both tiers
        (``(0, 0)`` for an unknown flow) - the per-flow aggregate row
        behind ``getCount``'s fast path and the plan executor's
        scalar-flow-sum short circuit."""
        totals = self._flow_totals.get(fkey)
        return (totals[0], totals[1]) if totals else (0, 0)

    def scan_stat_snapshot(self) -> Dict[str, int]:
        """Cumulative scan counters of both tiers, cheap to read.

        Hot-index routing counts plus the cold tier's pruning counters
        under tier-qualified names.  Unlike :meth:`tier_stats` this never
        flushes the archive - the plan executor snapshots around every
        single plan, so it must cost a few reads, not a tier settle.
        Cold keys are present (zero) even when single-tier, so per-plan
        diffs have a stable shape everywhere.
        """
        stats = self.stats
        snapshot = {
            "hot_flow_routed": stats.hot_flow_routed,
            "hot_link_routed": stats.hot_link_routed,
            "hot_time_routed": stats.hot_time_routed,
            "hot_full_scans": stats.hot_full_scans,
        }
        if self.archive is not None:
            snapshot.update(self.archive.pruning_snapshot())
        else:
            snapshot.update(cold_segments_skipped=0, cold_entries_skipped=0,
                            cold_entries_decoded=0)
        return snapshot

    def estimated_bytes(self) -> int:
        """Approximate **hot-tier** storage footprint (Section 5.3
        accounting; the quantity ``RetentionPolicy.max_bytes`` bounds)."""
        return self._hot_bytes

    def flush_archive(self) -> None:
        """Force the archive's write-behind buffer into its log.

        Reads and scans flush implicitly (the archive's flush barrier);
        snapshot, accounting and stats paths that look at the log directly
        call this first so they never observe a torn tier.  A no-op when
        single-tier or when nothing is staged.
        """
        if self.archive is not None:
            self.archive.flush()

    def archive_bytes(self) -> int:
        """Measured size of the cold archive's log (0 when single-tier);
        flushes the write-behind buffer so staged evictions are counted."""
        if self.archive is None:
            return 0
        self.archive.flush()
        return self.archive.archive_bytes()

    def tier_stats(self) -> Dict[str, int]:
        """Both tiers at a glance: sizes, movement counters, log shape and
        the cold scan's pruning/write-behind counters.  Flushes the
        write-behind buffer first so the byte accounting covers the whole
        tier."""
        archive = self.archive
        if archive is not None:
            archive.flush()
        cold = archive.stats if archive else ArchiveStats()
        return {
            "hot_records": len(self._cache),
            "hot_bytes": self._hot_bytes,
            "cold_records": archive.live_count if archive else 0,
            "cold_bytes": archive.archive_bytes() if archive else 0,
            "evictions": self.stats.evictions,
            "promotions": self.stats.promotions,
            "segments": archive.segment_count if archive else 0,
            "archive_compactions": cold.compactions,
            "segments_skipped": cold.segments_skipped,
            "segment_decodes": cold.segment_decodes,
            "entries_decoded": cold.entries_decoded,
            "entries_skipped": cold.entries_skipped,
            "decode_cache_hits": cold.decode_cache_hits,
            "write_behind_flushes": cold.flushes,
            "write_behind_records": cold.flushed_records,
        }

    def reset_stats(self) -> None:
        """Zero :attr:`stats` (tier movement, scan routing) and the
        archive's counters, in place.

        The archive flushes first, so the new measurement interval starts
        from a settled tier instead of counting a predecessor's staged
        evictions as its own flush work.
        """
        self.stats.reset()
        if self.archive is not None:
            self.archive.flush()
            self.archive.stats.reset()

    # ----------------------------------------------------------- Table 1 API
    def get_flows(self, link: Optional[LinkId] = None,
                  time_range: Optional[TimeRange] = None) -> List[Flow]:
        """``getFlows(linkID, timeRange)``: flows traversing ``link``."""
        return distinct_flows(self.records(link=link, time_range=time_range))

    def get_paths(self, flow_id: FlowId, link: Optional[LinkId] = None,
                  time_range: Optional[TimeRange] = None
                  ) -> List[Tuple[str, ...]]:
        """``getPaths(flowID, linkID, timeRange)``: paths taken by a flow."""
        return distinct_paths(self.records(flow_id=flow_id, link=link,
                                           time_range=time_range))


# The dedupe half of ``getFlows`` / ``getPaths``: the TIB feeds it its own
# matches, the agent its TIB's plus the live trajectory memory's.

def distinct_flows(records: Iterable[PathFlowRecord]) -> List[Flow]:
    """The distinct (flowID, Path) pairs of ``records``, first-seen order."""
    return list(dict.fromkeys((r.flow_id, r.path) for r in records))


def distinct_paths(records: Iterable[PathFlowRecord]
                   ) -> List[Tuple[str, ...]]:
    """The distinct paths of ``records``, first-seen order."""
    return list(dict.fromkeys(r.path for r in records))
