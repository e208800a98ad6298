"""Log-structured cold archive for aged-out TIB records.

PathDump keeps only *recent* flow entries in each end host's in-memory TIB
and ages older entries out to persistent storage; queries span both tiers.
This module is the cold tier of that design: an append-only, log-structured
store of :class:`~repro.storage.records.PathFlowRecord` rows laid out
**column-major**, modelling the on-disk half of the paper's MongoDB-backed
TIB.

Layout
------

Evicted records land in a **write-behind buffer** first (:meth:`stage` - an
O(1) dict insert), then a batched :meth:`flush` appends them to the
**unsealed tail**: one Python list per column plus a name dictionary and a
path table in first-appearance order - nothing is encoded on flush.  Once
the tail holds :attr:`ColdArchive.segment_records` rows it is **sealed**
into an immutable segment, a single ``bytes`` blob::

    header | id stime etime bytes pkts src_port dst_port protocol   (values)
           | src dst path                                          (indexes)
           | path table | name dictionary

``src``/``dst`` index the segment's name dictionary, ``path`` its path
table (whose hops index the same dictionary); the exact layout and the
per-segment column widths are the segment codec's - see
:mod:`repro.storage.segment`.  The blob is complete by itself, but a sealed
segment also keeps the two dictionaries it was sealed from beside it (a
list of names and a list of path tuples - objects the rest of the process
already shares), so reading one never decodes a dictionary.  Each segment
carries its pruning metadata, none of it in the blob:

* a **zone map** - the ``[min stime, max etime]`` time envelope;
* a **flow-key bloom** (crc32-salted, so it means the same thing in every
  worker process);
* exact **link postings** - for every undirected link its rows traverse,
  those row numbers, ascending.  Links are numbered by the
  :class:`~repro.storage.records.LinkNumbering` the archive shares with
  its TIB's hot tier (:attr:`ColdArchive.links`), and a segment stores
  its postings CSR-style in three typed arrays built once, at seal time.

:meth:`scan` - the cold half of the tiers' shared
:class:`~repro.storage.records.ScanSpec` read surface - turns the spec's
link conjunction into link ordinals, skips every segment whose zone map,
flow-key bloom or postings rule it out (the postings exactly: a segment
survives a link constraint only if some row of it satisfies the whole
conjunction), and takes the rows the postings select
(:func:`~repro.storage.records.select`, the hot tier's selection too) as
the starting set.  The remaining predicates run *on columns* over the
rows still in play: the time window on the two time columns alone, flow
keys on the five flow-id columns after one dictionary lookup per key.  Every predicate is exact, so a scan
materialises only its results - two dictionary lookups and two
constructors a row - and the unsealed tail is scanned the same way over
its lists, with postings rebuilt by the first read after it grows.
:meth:`fold` is the same selection with no materialisation at all: it
hands an aggregate the selected rows of the columns it names, one chunk
per log position, and builds no record (``entries_decoded`` counts rows
*materialised*, so a fold leaves it alone).  There is no decoded-record
cache: a sequential scan larger than any bounded LRU never hits it, and
materialising a row costs less than the bookkeeping did.  There is no
scan-mode option either: threads under the interpreter lock never won on
array-speed work.

:meth:`archive_bytes` is *measured*: the ``len`` of every sealed blob plus
the tail at the size it would seal to (computed by packing it).  Two
archives fed the same operations hold byte-equal blobs; after a re-seed
from a snapshot the rows may group into segments differently, and with
them the dictionary bytes.  Integer fields may hold any ``int``: the codec
picks each column's width per segment from the values present and falls
back to varints for a column holding a value no 64-bit width fits, so
nothing is truncated and nothing raises at a later flush or read.

Every read path flushes the write-behind buffer first (the **flush
barrier**), so a scan, snapshot or byte count never observes a torn tier.

The archive keeps two indexes over its live entries: the **key index**
``(flow key, path) -> record id`` (staged entries included), so the hot
tier's upsert path detects in O(1) that an incoming record must merge into
an archived one, and the **locator** ``record id -> (segment, row)`` of the
id's one live row.  Beside them every log position (each sealed segment
and the tail) holds its **dead set**: the row numbers of its garbage.  A
row is live iff the locator points at it iff it is not in its position's
dead set, which is the whole tombstone / latest-entry-wins rule; reads
test liveness against the dead set alone (nothing at all for a position
without garbage), and only :meth:`take` needs the locator.  Two mutations
exist besides append:

* :meth:`ColdArchive.take` removes one entry (the hot tier *promotes* a
  record back when a new write merges into an archived key).  A still-
  staged entry is simply popped from the write-behind buffer; a logged
  row is found through the locator, read at computed offsets and left in
  place as garbage - added to its position's dead set.  (An append that
  re-archives an id whose row is still live marks that row dead too.)
* :meth:`ColdArchive.compact` rewrites the log without its garbage rows
  (triggered automatically once the garbage fraction crosses
  :attr:`ColdArchive.compact_dead_ratio`), splicing kept rows column by
  column and recomputing each rewritten segment's pruning metadata
  exactly; every rewritten position starts with an empty dead set.
"""

from __future__ import annotations

import threading
import zlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import filterfalse
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.counters import Counters
from repro.network.packet import FlowId
from repro.storage.records import (LinkNumbering, PathFlowRecord, ScanSpec,
                                   flow_key, parse_flow_key, select)
from repro.storage.segment import (FIELD_COLUMNS, SEG_BYTES, SEG_DST,
                                   SEG_DST_PORT, SEG_ETIME, SEG_ID, SEG_PATH,
                                   SEG_PKTS, SEG_PROTOCOL, SEG_SRC,
                                   SEG_SRC_PORT, SEG_STIME, SegmentBuilder)

#: A hot/cold tier key: ``(flow key, path)`` - the TIB's primary key.
ArchiveKey = Tuple[str, Tuple[str, ...]]

_INF = float("inf")



#: Flow-key bloom geometry.  Sized for the segment granularity (256 entries
#: by default): 2048 bits with k=3 keep the per-segment false-positive rate
#: in the low percent even when every entry carries a distinct flow.  The
#: bloom is a plain Python int (subset test = two bitwise ops), built at
#: seal time.
SEG_FKEY_BLOOM_BITS = 2048
#: crc32 salts (k hash functions); crc32 instead of ``hash()`` because the
#: latter is per-process randomized and segment metadata must agree across
#: worker processes.
_SEG_FKEY_SALTS = (0x1B873593, 0xCC9E2D51, 0x85EBCA6B)


def _seg_fkey_mask(fkey: str) -> int:
    """Segment-bloom mask of one canonical flow key."""
    key = fkey.encode("utf-8")
    mask = 0
    for salt in _SEG_FKEY_SALTS:
        mask |= 1 << (zlib.crc32(key, salt) % SEG_FKEY_BLOOM_BITS)
    return mask


@lru_cache(maxsize=1 << 16)
def _seg_flow_mask(src_ip: str, dst_ip: str, src_port: int, dst_port: int,
                   protocol: int) -> int:
    """:func:`_seg_fkey_mask` of a flow given as its raw fields - what a
    segment's columns hold; memoized on them, so sealing a row whose flow
    was sealed before is one cache probe."""
    return _seg_fkey_mask(flow_key(
        FlowId(src_ip, dst_ip, src_port, dst_port, protocol)))


@dataclass(frozen=True)
class RetentionPolicy:
    """Bounds on the hot tier of a two-tier TIB.

    Attributes:
        max_records: hot-tier record-count cap (``None`` = unbounded).
        max_bytes: hot-tier ``estimated_bytes`` cap (``None`` = unbounded).

    When either bound is exceeded the TIB ages its oldest-``etime`` records
    out into the cold archive until it is back under both.
    """

    max_records: Optional[int] = None
    max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_records is not None and self.max_records < 0:
            raise ValueError("max_records must be non-negative")
        if self.max_bytes is not None and self.max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")

    @property
    def bounded(self) -> bool:
        """Whether any bound is set at all."""
        return self.max_records is not None or self.max_bytes is not None

    def exceeded_by(self, records: int, nbytes: int) -> bool:
        """Whether a hot tier of ``records`` rows / ``nbytes`` bytes is
        over either bound."""
        if self.max_records is not None and records > self.max_records:
            return True
        return self.max_bytes is not None and nbytes > self.max_bytes


@dataclass(slots=True)
class ArchiveStats(Counters):
    """How often the archive's expensive operations happen and how much
    work pruning avoided.  ``entries_decoded`` counts rows materialised,
    ``entries_skipped`` rows of opened segments passed over."""

    appends: int = 0
    takes: int = 0
    segments_sealed: int = 0
    compactions: int = 0
    segment_decodes: int = 0
    segments_skipped: int = 0
    entries_decoded: int = 0
    entries_skipped: int = 0
    #: Always 0 (no decode cache survives); kept because pathbench's
    #: tracer reads it by name - ROADMAP item 10 removes it.
    decode_cache_hits: int = 0
    flushes: int = 0
    flushed_records: int = 0


#: Row bits of a locator position ``segment number << _ROW_BITS | row``.
_ROW_BITS = 32
_ROW_MASK = (1 << _ROW_BITS) - 1


def _live_rows(candidates: Sequence[int], dead: Set[int]) -> Sequence[int]:
    """The ``candidates`` of one log position that are not in its dead
    set - all of them, untouched, when it holds no garbage."""
    return candidates if not dead else [*filterfalse(dead.__contains__,
                                                     candidates)]


class _Postings:
    """Exact link -> rows index of one log position, CSR-style: ``links``
    holds the position's link ordinals ascending, and the rows on
    ``links[i]`` are ``rows[offsets[i]:offsets[i + 1]]``, ascending."""

    __slots__ = ("links", "offsets", "rows")

    def __init__(self, runs: Dict[int, List[int]], count: int) -> None:
        """Pack ``{link ordinal: its row numbers}`` of a ``count``-row
        position."""
        ordered = sorted(runs)
        flat: List[int] = []
        offsets = [0]
        for link in ordered:
            run = runs[link]
            run.sort()
            flat += run
            offsets.append(len(flat))
        self.links = array("I", ordered)
        self.offsets = array("I", offsets)
        self.rows = (array("H", flat) if count <= 1 << 16
                     else array("I", flat))

    def run(self, link: int) -> Sequence[int]:
        """The rows on one link, ascending (empty when none is)."""
        links = self.links
        i = bisect_left(links, link)
        if i == len(links) or links[i] != link:
            return ()
        return self.rows[self.offsets[i]:self.offsets[i + 1]]


class _Segment:
    """One sealed segment - the immutable blob, opened, with the two
    dictionaries it was sealed from kept beside it - plus its pruning
    metadata and its dead set."""

    __slots__ = ("rows", "min_stime", "max_etime", "fkey_bloom", "postings",
                 "dead")

    def __init__(self, builder: Any, postings: _Postings,
                 dead: Set[int]) -> None:
        """Seal a segment builder's rows: pack the blob and compute the
        zone map and flow-key bloom exactly from its columns.  The caller
        built ``postings`` from the same rows and hands over their
        ``dead`` set."""
        rows = self.rows = builder.seal()
        self.postings = postings
        self.dead = dead
        self.min_stime: float = min(rows.column(SEG_STIME))
        self.max_etime: float = max(rows.column(SEG_ETIME))
        name = rows.names().__getitem__
        self.fkey_bloom = 0
        for mask in map(_seg_flow_mask,
                        map(name, rows.column(SEG_SRC)),
                        map(name, rows.column(SEG_DST)),
                        *map(rows.column, (SEG_SRC_PORT,
                                           SEG_DST_PORT,
                                           SEG_PROTOCOL))):
            self.fkey_bloom |= mask

    def may_match(self, start: Optional[float], end: Optional[float],
                  fkey_masks: Optional[List[int]]) -> bool:
        """Zone-map + flow-key-bloom pruning: can this segment hold a
        match?  ``fkey_masks`` is the flow-key disjunction against the
        bloom.  False negatives are impossible: a pruned segment provably
        holds no matching entry (the ``scan`` rule of the TIB state
        machine, ``tests/test_tib_machine.py``, asserts exactly this
        against a brute-force read of every row).  Link constraints prune
        on the postings instead, exactly (:func:`select`)."""
        if start is not None and self.max_etime < start:
            return False
        if end is not None and self.min_stime > end:
            return False
        if fkey_masks is not None:
            fkey_bloom = self.fkey_bloom
            if not any(fkey_bloom & mask == mask for mask in fkey_masks):
                return False
        return True


class ColdArchive:
    """The log-structured cold tier of one host's TIB.

    Args:
        segment_records: rows per sealed segment (the log granularity).
        compact_dead_ratio: garbage-row fraction above which a
            :meth:`take` triggers an automatic :meth:`compact`; ``None``
            disables auto-compaction.
        write_behind_records: staged evictions that force an inline
            :meth:`flush` (the write-behind buffer's bound).
    """

    #: Default rows per sealed segment.
    SEGMENT_RECORDS = 256
    #: Default garbage fraction that triggers compaction.
    COMPACT_DEAD_RATIO = 0.3
    #: Minimum total rows before auto-compaction is considered.
    COMPACT_MIN_RECORDS = 64
    #: Default bound on the write-behind buffer.  Sized well above the
    #: segment granularity: evictions that merge again while still staged
    #: are folded as live objects (no log row, no garbage), so a deeper
    #: buffer directly cheapens churn-heavy ingest.
    WRITE_BEHIND_RECORDS = 1024

    def __init__(self, segment_records: int = SEGMENT_RECORDS,
                 compact_dead_ratio: Optional[float] = COMPACT_DEAD_RATIO,
                 write_behind_records: int = WRITE_BEHIND_RECORDS) -> None:
        if segment_records < 1:
            raise ValueError("segment_records must be positive")
        if write_behind_records < 1:
            raise ValueError("write_behind_records must be positive")
        self.segment_records = segment_records
        self.compact_dead_ratio = compact_dead_ratio
        self.write_behind_records = write_behind_records
        # Serialises the two things a read may mutate: the write-behind
        # drain and the tail's postings (whose build numbers new links).
        self._flush_lock = threading.Lock()
        self.stats = ArchiveStats()
        #: The link numbering behind the postings, shared with the TIB's
        #: hot tier, so :meth:`clear` never resets it.
        self.links = LinkNumbering()
        self.clear()

    def clear(self) -> None:
        """Drop every segment, the buffers and all indexes."""
        # The log: sealed segments by segment number, then the unsealed
        # tail, which will seal under the number ``_tail_no``.
        self._segments: Dict[int, _Segment] = {}
        self._open_tail(0)
        # Write-behind buffer: evictions staged here (insertion order =
        # eviction order) until a batched flush appends them to the log.
        self._staged: Dict[int, Tuple[PathFlowRecord, ArchiveKey]] = {}
        # Live-entry indexes (see the module docstring).
        self._key_index: Dict[ArchiveKey, int] = {}
        self._locator: Dict[int, int] = {}
        #: Rows in the log, garbage included.
        self._total_rows = 0

    def _open_tail(self, number: int) -> None:
        """Start an empty unsealed tail that will seal under ``number``."""
        self._tail = SegmentBuilder()
        self._tail_no = number
        self._tail_dead: Set[int] = set()
        # ``(row count, postings)`` of the tail as of the last read that
        # needed them.
        self._tail_index: Optional[Tuple[int, _Postings]] = None

    # ------------------------------------------------------------------ writes
    def append(self, record_id: int, record: PathFlowRecord,
               key: Optional[ArchiveKey] = None) -> None:
        """Append one aged-out record under its hot-tier id, synchronously.

        ``key`` is the TIB's primary key for the record (derived when
        omitted).  The caller must not hold two live entries for the same
        key - the hot tier promotes before re-archiving.  Re-archiving an
        id that was promoted earlier is fine: the id's *latest* row is the
        live one everywhere.  (The eviction fast path uses :meth:`stage`
        instead, deferring the log append to a batched flush.)
        """
        if key is None:
            key = (flow_key(record.flow_id), record.path)
        if key in self._key_index:
            raise ValueError(f"archive already holds a live entry for {key}")
        self._append_row(record_id, record, key)
        self._maybe_compact()

    def stage(self, record_id: int, record: PathFlowRecord,
              key: Optional[ArchiveKey] = None) -> None:
        """Write-behind append - the eviction fast path.

        The entry becomes *live* immediately (``lookup``, ``take`` and
        ``live_count`` all see it) but the log append is deferred to a
        batched :meth:`flush` off the hot tier's eviction path.  Every read
        path flushes first - the flush barrier - so scans and snapshots
        never observe a torn tier.  Promoting a still-staged entry back is
        a dict pop: no log row, no garbage, no compaction pressure.
        """
        if key is None:
            key = (flow_key(record.flow_id), record.path)
        if key in self._key_index:
            raise ValueError(f"archive already holds a live entry for {key}")
        self._key_index[key] = record_id
        self._staged[record_id] = (record, key)
        if len(self._staged) >= self.write_behind_records:
            self.flush()

    def flush(self) -> None:
        """Drain the write-behind buffer into the log (the flush barrier).

        Idempotent and cheap when nothing is staged; every read entry
        point calls it before touching the log.
        """
        if not self._staged:
            return
        with self._flush_lock:
            self._drain_staged()
        self._maybe_compact()

    def _drain_staged(self) -> None:
        staged = self._staged
        if not staged:
            return
        self._staged = {}
        for record_id, (record, key) in staged.items():
            self._append_row(record_id, record, key)
        self.stats.flushes += 1
        self.stats.flushed_records += len(staged)

    def _append_row(self, record_id: int, record: PathFlowRecord,
                    key: ArchiveKey) -> None:
        """Append one row to the tail and index it (shared by direct
        appends and write-behind flushes).  An earlier row of a re-archived
        id stops being live here: the locator moves off it and the row
        joins its position's dead set."""
        row = self._tail.append(record_id, record)
        locator = self._locator
        superseded = locator.get(record_id)
        locator[record_id] = self._tail_no << _ROW_BITS | row
        if superseded is not None:
            self._position(superseded >> _ROW_BITS)[1].add(
                superseded & _ROW_MASK)
        self._key_index[key] = record_id
        self._total_rows += 1
        self.stats.appends += 1
        if row + 1 >= self.segment_records:
            self._seal_tail()

    def _seal_tail(self) -> None:
        """Freeze the tail, its postings and its dead set into an
        immutable segment under its number."""
        if not self._tail.count:
            return
        self._segments[self._tail_no] = _Segment(
            self._tail, self._postings(self._tail), self._tail_dead)
        self.stats.segments_sealed += 1
        self._open_tail(self._tail_no + 1)

    def _position(self, segment_no: int) -> Tuple[Any, Set[int]]:
        """The readable rows and the dead set of one log position: the
        tail's lists or a sealed segment's opened blob."""
        if segment_no == self._tail_no:
            return self._tail, self._tail_dead
        segment = self._segments[segment_no]
        return segment.rows, segment.dead

    # ------------------------------------------------------------ link index
    def _postings(self, rows: Any) -> _Postings:
        """The link postings of one log position's rows: rows grouped by
        path index, each group filed under every link of its path."""
        by_path: Dict[int, List[int]] = {}
        for row, index in enumerate(rows.column(SEG_PATH)):
            group = by_path.get(index)
            if group is None:
                by_path[index] = [row]
            else:
                group.append(row)
        paths = rows.paths()
        runs: Dict[int, List[int]] = {}
        for index, group in by_path.items():
            for link in self.links.of_path(paths[index]):
                runs.setdefault(link, []).extend(group)
        return _Postings(runs, rows.count)

    def _tail_postings(self) -> _Postings:
        """The tail's postings, rebuilt only when rows were appended since
        the last read that needed them."""
        count = self._tail.count
        cached = self._tail_index
        if cached is None or cached[0] != count:
            with self._flush_lock:
                cached = self._tail_index = (count, self._postings(self._tail))
        return cached[1]

    def take(self, key: ArchiveKey) -> Tuple[int, PathFlowRecord]:
        """Remove and return the live entry for ``key`` (promotion path).

        Returns ``(record id, record)``.  A still-staged entry is popped
        straight out of the write-behind buffer; a logged row is resolved
        through the locator and its four mutable fields read at computed
        offsets (the caller's key supplies the flow id and path outright).
        The row stays in place as garbage, in its position's dead set,
        until compaction reclaims it.  The record is a fresh mutable
        object: the hot tier merges into promoted records in place.
        Raises :class:`KeyError` when the archive holds no live entry for
        ``key``.
        """
        record_id = self._key_index.pop(key)  # KeyError propagates
        self.stats.takes += 1
        staged = self._staged.pop(record_id, None)
        if staged is not None:
            return record_id, staged[0]
        position = self._locator.pop(record_id)
        rows, dead = self._position(position >> _ROW_BITS)
        row = position & _ROW_MASK
        dead.add(row)
        record = PathFlowRecord(
            parse_flow_key(key[0]), key[1],
            rows.cell(SEG_STIME, row), rows.cell(SEG_ETIME, row),
            rows.cell(SEG_BYTES, row), rows.cell(SEG_PKTS, row))
        self._maybe_compact()
        return record_id, record

    def lookup(self, key: ArchiveKey) -> Optional[int]:
        """The live entry id archived under ``key``, or ``None``."""
        return self._key_index.get(key)

    # --------------------------------------------------------------- compaction
    def _maybe_compact(self) -> None:
        ratio = self.compact_dead_ratio
        if ratio is None:
            return
        if self._total_rows >= self.COMPACT_MIN_RECORDS and \
                self.dead_ratio >= ratio:
            self.compact()

    @property
    def dead_ratio(self) -> float:
        """Fraction of log rows holding garbage: rows of promoted ids and
        rows superseded by a re-archival of their id - every row the
        locator no longer points at."""
        total = self._total_rows
        return (total - len(self._locator)) / total if total else 0.0

    def compact(self) -> None:
        """Rewrite the log without its garbage rows - no record objects.

        The log is walked in order.  Kept rows are spliced column by
        column into a fresh tail (dictionary indexes re-mapped, see the
        codec's ``SegmentBuilder.extend``) that seals every
        ``segment_records`` rows, so rewritten neighbours merge into full
        segments and each new segment's zone map, flow-key bloom and
        postings are recomputed exactly from the rows it holds (its dead
        set starts empty); what is left over stays the unsealed tail.  A
        leading run of garbage-free segments is kept as it is.
        Write-behind entries are untouched - they hold no log rows yet, so
        there is nothing to reclaim for them.
        """
        self.stats.compactions += 1
        locator = self._locator
        log = [(number, segment, segment.rows, segment.dead)
               for number, segment in self._segments.items()]
        log.append((self._tail_no, None, self._tail, self._tail_dead))
        self._segments = {}
        self._open_tail(self._tail_no + 1)
        for number, segment, rows, dead in log:
            if segment is not None and not dead and not self._tail.count:
                self._segments[number] = segment
                continue
            live = _live_rows(range(rows.count), dead)
            ids = rows.column(SEG_ID)
            while live:
                room = self.segment_records - self._tail.count
                moved, live = live[:room], live[room:]
                position = self._tail_no << _ROW_BITS | self._tail.count
                self._tail.extend(rows, moved)
                for row in moved:
                    locator[ids[row]] = position
                    position += 1
                if len(moved) == room:
                    self._seal_tail()
        self._total_rows = len(locator)

    # ------------------------------------------------------------------- reads
    def _selected(self, spec: ScanSpec
                  ) -> Iterator[Tuple[Any, Optional[Sequence[int]]]]:
        """``(rows, selection)`` for every log position that holds a live
        entry matching ``spec``, in log order: the position's readable rows
        and the non-empty row numbers selected (``None`` when that is every
        row) - the one implementation of the flush barrier, segment
        pruning, the column predicates and liveness, behind both
        :meth:`scan` and :meth:`fold`.

        The write-behind buffer flushes first; whole segments are skipped
        on zone maps, the flow-key bloom and the link postings (which skip
        exactly the segments where no row satisfies the link
        conjunction); the rows the postings select in the surviving
        segments and the tail are then filtered on columns
        (:meth:`_matching_rows`): every predicate is exact -
        :meth:`ScanSpec.matches` holds for precisely the rows selected.

        When the log holds several rows for one id (promotion then
        re-archival), only the latest is live.  Pruning stays safe across
        duplicates because a stale row is simply not live: its position's
        dead set holds it, and only the live row's segment needs to
        survive pruning.
        """
        self.flush()
        stats = self.stats
        tail = self._tail
        # The tail's postings first: building them numbers any link seen
        # only there, which the spec's constraints must be able to name.
        tail_links = (self._tail_postings() if tail.count and spec.links
                      else None)
        links = self.links.constraints(spec.links)
        flows: Optional[Set[FlowId]] = None
        fkey_masks: Optional[List[int]] = None
        if spec.flow_keys is not None:
            flows = set()
            for fkey in spec.flow_keys:
                try:
                    flow = parse_flow_key(fkey)
                except ValueError:
                    continue  # not a flow key: matches no record
                if flow_key(flow) == fkey:  # else: not canonical, ditto
                    flows.add(flow)
            fkey_masks = [_seg_fkey_mask(fkey) for fkey in spec.flow_keys]
        candidates: List[Tuple[Any, Set[int], Optional[Sequence[int]]]] = []
        for segment in self._segments.values():
            if segment.may_match(spec.start, spec.end, fkey_masks):
                on_links = select(links, segment.postings.run)
                if on_links is None or on_links:
                    candidates.append((segment.rows, segment.dead, on_links))
                    continue
            stats.segments_skipped += 1
        stats.segment_decodes += len(candidates)
        if tail.count:
            candidates.append((tail, self._tail_dead, None if tail_links
                               is None else select(links, tail_links.run)))
        for rows, dead, on_links in candidates:
            matching = self._matching_rows(rows, dead, on_links, spec, flows)
            stats.entries_skipped += rows.count - len(matching)
            if matching:
                yield rows, (None if len(matching) == rows.count
                             else matching)

    def scan(self, spec: ScanSpec) -> List[Tuple[int, PathFlowRecord]]:
        """Live entries matching ``spec``, as id-ordered ``(id, record)``
        pairs - the cold half of the tiers' shared read surface.

        Only the rows :meth:`_selected` picked are ever materialised, each
        as a fresh object.
        """
        results: List[Tuple[int, PathFlowRecord]] = []
        for rows, selection in self._selected(spec):
            results += rows.records(selection)
        self.stats.entries_decoded += len(results)
        results.sort(key=itemgetter(0))
        return results

    def fold(self, spec: ScanSpec, fields: Sequence[str]
             ) -> Iterator[Tuple[Sequence[Any], ...]]:
        """The rows :meth:`scan` would return, as columns: one chunk per
        log position holding a match, each a tuple of parallel non-empty
        sequences of the named record ``fields``
        (:data:`~repro.storage.records.COLUMN_FIELDS` names).  Nothing is
        materialised and nothing is ordered - chunks come in log order,
        not id order - which is all an aggregate needs; treat the
        sequences as read-only views.
        """
        columns = [FIELD_COLUMNS[name] for name in fields]
        for rows, selection in self._selected(spec):
            yield rows.select(columns, selection)

    @staticmethod
    def _matching_rows(rows: Any, dead: Set[int],
                       on_links: Optional[Sequence[int]], spec: ScanSpec,
                       flows: Optional[Set[FlowId]]) -> Sequence[int]:
        """Row numbers of one log position that are live and match
        ``spec``, starting from the non-empty rows its postings selected
        (``on_links``; ``None`` when the spec has no link constraint) and
        evaluated column by column over the rows still in play; a column
        or dictionary is opened only when a row that survived so far
        needs it."""
        matching: Sequence[int] = (range(rows.count) if on_links is None
                                   else on_links)
        start, end = spec.start, spec.end
        if (start is not None or end is not None) and matching:
            low = -_INF if start is None else start
            high = _INF if end is None else end
            stimes, etimes = rows.select((SEG_STIME, SEG_ETIME),
                                         on_links)
            # Negated comparisons, exactly like ScanSpec.matches rejects.
            matching = [row for row, stime, etime
                        in zip(matching, stimes, etimes)
                        if not etime < low and not stime > high]
        if flows is not None and matching:
            names = rows.names()
            probes = {(names.index(flow.src_ip), names.index(flow.dst_ip),
                       flow.src_port, flow.dst_port, flow.protocol)
                      for flow in flows
                      if flow.src_ip in names and flow.dst_ip in names}
            srcs, dsts, src_ports, dst_ports, protocols = map(
                rows.column, (SEG_SRC, SEG_DST, SEG_SRC_PORT,
                              SEG_DST_PORT, SEG_PROTOCOL))
            matching = [row for row in matching
                        if (srcs[row], dsts[row], src_ports[row],
                            dst_ports[row], protocols[row]) in probes]
        return _live_rows(matching, dead)

    # -------------------------------------------------------------- accounting
    @property
    def live_count(self) -> int:
        """Number of live archived records, staged write-behind entries
        included."""
        return len(self._key_index)

    @property
    def staged_count(self) -> int:
        """Entries waiting in the write-behind buffer."""
        return len(self._staged)

    @property
    def segment_count(self) -> int:
        """Number of sealed segments."""
        return len(self._segments)

    def archive_bytes(self) -> int:
        """*Measured* size of the log: the bytes of every sealed blob plus
        the unsealed tail at the size it would seal to (garbage rows
        included until compaction reclaims them).  Callers that must
        account staged entries too flush first (the TIB's tier accounting
        does)."""
        total = sum(len(segment.rows.data)
                    for segment in self._segments.values())
        if self._tail.count:
            total += len(self._tail.pack())
        return total

    def pruning_snapshot(self) -> Dict[str, int]:
        """The cold tier's pruning counters under their tier-qualified
        names - the cold half of ``Tib.scan_stat_snapshot``.  The plan
        executor diffs two snapshots around a scan to report how much
        pruning (zone maps, flow-key blooms, link postings) one plan's
        pushed-down ``Filter`` bought.
        """
        stats = self.stats
        return {
            "cold_segments_skipped": stats.segments_skipped,
            "cold_entries_skipped": stats.entries_skipped,
            "cold_entries_decoded": stats.entries_decoded,
        }
