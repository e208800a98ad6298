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
:mod:`repro.core.wire`.  The blob is complete by itself, but a sealed
segment also keeps the two dictionaries it was sealed from beside it (a
list of names and a list of path tuples - objects the rest of the process
already shares), so reading one never decodes a dictionary.  Each segment
carries its pruning metadata:

* a **zone map** - the ``[min stime, max etime]`` time envelope and the
  exact set of path nodes it holds;
* a **link bloom** and a **flow-key bloom** (crc32-salted, so they mean the
  same thing in every worker process).

:meth:`scan` - the cold half of the tiers' shared
:class:`~repro.storage.records.ScanSpec` read surface - prunes whole
segments on that metadata and then filters the survivors *on columns*: the
time window on the two time columns alone (nothing else of the segment is
touched when no row survives), link constraints once per distinct path of
the segment, flow keys on the five flow-id columns after one dictionary
lookup per key.  Every column predicate is exact, so a scan materialises
only its results - two dictionary lookups and two constructors a row - and
the unsealed tail is scanned the same way over its lists.  :meth:`fold` is
the same selection with no materialisation at all: it hands an aggregate
the selected rows of the columns it names, one chunk per log position, and
builds no record (``entries_decoded`` counts rows *materialised*, so a fold
leaves it alone).  There is no decoded-record cache: a sequential scan
larger than any bounded LRU never hits it, and materialising a row costs
less than the bookkeeping did.  There is no scan-mode option either:
threads under the interpreter lock never won on array-speed work.

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
id's one live row.  A row is live iff the locator points at it, which is
the whole tombstone / latest-entry-wins rule.  Two mutations exist besides
append:

* :meth:`ColdArchive.take` removes one entry (the hot tier *promotes* a
  record back when a new write merges into an archived key).  A still-
  staged entry is simply popped from the write-behind buffer; a logged
  row is found through the locator, read at computed offsets and left in
  place as garbage.
* :meth:`ColdArchive.compact` rewrites the log without its garbage rows
  (triggered automatically once the garbage fraction crosses
  :attr:`ColdArchive.compact_dead_ratio`), splicing kept rows column by
  column and recomputing each rewritten segment's pruning metadata
  exactly.

Nothing in this module imports the wire codec at import time (the codec
lives in :mod:`repro.core`, which imports this package); it is bound lazily
on first use, mirroring
:meth:`repro.storage.records.PathFlowRecord.wire_bytes`.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import (Any, Dict, FrozenSet, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from repro.counters import Counters
from repro.network.packet import FlowId
from repro.storage.records import (PathFlowRecord, ScanSpec, flow_key,
                                   parse_flow_key)

#: A hot/cold tier key: ``(flow key, path)`` - the TIB's primary key.
ArchiveKey = Tuple[str, Tuple[str, ...]]

_INF = float("inf")

_wire = None


def _codec():
    """The wire codec, bound lazily (see the module docstring)."""
    global _wire
    if _wire is None:
        from repro.core import wire
        _wire = wire
    return _wire


#: Segment-bloom geometry.  Sized for the segment granularity (256 entries
#: by default): 512 link bits with k=2 stay well under ~20% full for a
#: datacenter topology's link diversity per segment, and 2048 flow-key bits
#: with k=3 keep the per-segment false-positive rate in the low percent
#: even when every entry carries a distinct flow.  Segment blooms are plain
#: Python ints (subset test = two bitwise ops), rebuilt at seal time.
SEG_LINK_BLOOM_BITS = 512
SEG_FKEY_BLOOM_BITS = 2048
#: crc32 salts (k hash functions); crc32 instead of ``hash()`` because the
#: latter is per-process randomized and segment metadata must agree across
#: worker processes.
_SEG_LINK_SALTS = (0x51ED2701, 0x9E3779B9)
_SEG_FKEY_SALTS = (0x1B873593, 0xCC9E2D51, 0x85EBCA6B)


@lru_cache(maxsize=1 << 12)
def _seg_link_mask(a: str, b: str) -> int:
    """Segment-bloom mask of one concrete (undirected) link."""
    if b < a:
        a, b = b, a
    key = (a + "\x00" + b).encode("utf-8")
    mask = 0
    for salt in _SEG_LINK_SALTS:
        mask |= 1 << (zlib.crc32(key, salt) % SEG_LINK_BLOOM_BITS)
    return mask


@lru_cache(maxsize=1 << 14)
def _seg_path_link_bloom(path: Tuple[str, ...]) -> int:
    """Segment-bloom contribution of one path (all its undirected links)."""
    if len(path) < 2:
        return 0
    bloom = 0
    for a, b in zip(path, path[1:]):
        bloom |= _seg_link_mask(a, b)
    return bloom


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
    #: tracer reads it by name - ROADMAP item 2 removes it.
    decode_cache_hits: int = 0
    flushes: int = 0
    flushed_records: int = 0


#: Row bits of a locator position ``segment number << _ROW_BITS | row``.
_ROW_BITS = 32


@lru_cache(maxsize=1 << 16)
def _path_matches(path: Tuple[str, ...], links) -> bool:
    """:meth:`ScanSpec.matches`'s link conjunction for one path - the scan
    asks once per distinct path of a segment, not once per row, and the
    answer is memoized: a fabric has few paths and a debugging session few
    links, while a 256-row segment holds a hundred distinct paths."""
    if len(path) < 2:
        return False  # traverses no link
    for a, b in links:
        if a is None or b is None:
            if (a if b is None else b) not in path:
                return False
        elif a not in path or b not in path:
            return False
        else:
            hops = tuple(zip(path, path[1:]))
            if (a, b) not in hops and (b, a) not in hops:
                return False
    return True


class _Segment:
    """One sealed segment - the immutable blob, opened, with the two
    dictionaries it was sealed from kept beside it - plus its pruning
    metadata."""

    __slots__ = ("rows", "min_stime", "max_etime", "nodes", "link_bloom",
                 "fkey_bloom")

    def __init__(self, builder) -> None:
        """Seal a segment builder's rows: pack the blob and compute the
        zone map and blooms exactly from its columns."""
        wire = _codec()
        rows = self.rows = builder.seal()
        self.min_stime: float = min(rows.column(wire.SEG_STIME))
        self.max_etime: float = max(rows.column(wire.SEG_ETIME))
        nodes: Set[str] = set()
        self.link_bloom = 0
        for path in rows.paths():
            if len(path) >= 2:
                nodes.update(path)
            self.link_bloom |= _seg_path_link_bloom(path)
        self.nodes: FrozenSet[str] = frozenset(nodes)
        name = rows.names().__getitem__
        self.fkey_bloom = 0
        for mask in map(_seg_flow_mask,
                        map(name, rows.column(wire.SEG_SRC)),
                        map(name, rows.column(wire.SEG_DST)),
                        *map(rows.column, (wire.SEG_SRC_PORT,
                                           wire.SEG_DST_PORT,
                                           wire.SEG_PROTOCOL))):
            self.fkey_bloom |= mask

    def may_match(self, start: Optional[float], end: Optional[float],
                  link_tests: List[Tuple[Optional[str], int]],
                  fkey_masks: Optional[List[int]]) -> bool:
        """Zone-map + bloom pruning: can this segment hold a match?

        ``link_tests`` is the compiled link conjunction - ``(node, mask)``
        pairs where a non-``None`` node means "the segment must hold this
        path node" (exact set test, for wildcard-endpoint constraints) and
        otherwise ``mask`` must be a subset of the segment's link bloom.
        ``fkey_masks`` is the flow-key disjunction against the flow-key
        bloom.  False negatives are impossible: a pruned segment provably
        holds no matching entry (the pruning-soundness fuzz test asserts
        exactly this against a brute-force read of every row).
        """
        if start is not None and self.max_etime < start:
            return False
        if end is not None and self.min_stime > end:
            return False
        for node, mask in link_tests:
            if node is not None:
                if node not in self.nodes:
                    return False
            elif self.link_bloom & mask != mask:
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
        self._flush_lock = threading.Lock()
        self.stats = ArchiveStats()
        self.clear()

    def clear(self) -> None:
        """Drop every segment, the buffers and all indexes."""
        # The log: sealed segments by segment number, then the unsealed
        # tail, which will seal under the number ``_tail_no``.
        self._segments: Dict[int, _Segment] = {}
        self._tail = _codec().SegmentBuilder()
        self._tail_no = 0
        # Write-behind buffer: evictions staged here (insertion order =
        # eviction order) until a batched flush appends them to the log.
        self._staged: Dict[int, Tuple[PathFlowRecord, ArchiveKey]] = {}
        # Live-entry indexes (see the module docstring).
        self._key_index: Dict[ArchiveKey, int] = {}
        self._locator: Dict[int, int] = {}
        #: Rows in the log, garbage included.
        self._total_rows = 0

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
        id stops being live here: the locator moves off it."""
        row = self._tail.append(record_id, record)
        self._locator[record_id] = self._tail_no << _ROW_BITS | row
        self._key_index[key] = record_id
        self._total_rows += 1
        self.stats.appends += 1
        if row + 1 >= self.segment_records:
            self._seal_tail()

    def _seal_tail(self) -> None:
        """Freeze the tail into an immutable segment under its number."""
        if not self._tail.count:
            return
        self._segments[self._tail_no] = _Segment(self._tail)
        self.stats.segments_sealed += 1
        self._tail = _codec().SegmentBuilder()
        self._tail_no += 1

    def _rows(self, segment_no: int):
        """The readable rows of one log position: the tail's lists or a
        sealed segment's opened blob."""
        if segment_no == self._tail_no:
            return self._tail
        return self._segments[segment_no].rows

    def take(self, key: ArchiveKey) -> Tuple[int, PathFlowRecord]:
        """Remove and return the live entry for ``key`` (promotion path).

        Returns ``(record id, record)``.  A still-staged entry is popped
        straight out of the write-behind buffer; a logged row is resolved
        through the locator and its four mutable fields read at computed
        offsets (the caller's key supplies the flow id and path outright).
        The row stays in place as garbage until compaction reclaims it.
        The record is a fresh mutable object: the hot tier merges into
        promoted records in place.  Raises :class:`KeyError` when the
        archive holds no live entry for ``key``.
        """
        record_id = self._key_index.pop(key)  # KeyError propagates
        self.stats.takes += 1
        staged = self._staged.pop(record_id, None)
        if staged is not None:
            return record_id, staged[0]
        wire = _codec()
        position = self._locator.pop(record_id)
        rows = self._rows(position >> _ROW_BITS)
        row = position & (1 << _ROW_BITS) - 1
        record = PathFlowRecord(
            parse_flow_key(key[0]), key[1],
            rows.cell(wire.SEG_STIME, row), rows.cell(wire.SEG_ETIME, row),
            rows.cell(wire.SEG_BYTES, row), rows.cell(wire.SEG_PKTS, row))
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

    def _live_rows(self, rows, segment_no: int,
                   candidates: Sequence[int]) -> Sequence[int]:
        """The ``candidates`` of one log position the locator points at."""
        if self._total_rows == len(self._locator):
            return candidates  # no garbage anywhere in the log
        ids = rows.column(_codec().SEG_ID)
        base = segment_no << _ROW_BITS
        locate = self._locator.get
        return [row for row in candidates if locate(ids[row]) == base + row]

    def compact(self) -> None:
        """Rewrite the log without its garbage rows - no record objects.

        The log is walked in order.  Kept rows are spliced column by
        column into a fresh tail (dictionary indexes re-mapped, see the
        codec's ``SegmentBuilder.extend``) that seals every
        ``segment_records`` rows, so rewritten neighbours merge into full
        segments and each new segment's zone map and blooms are recomputed
        exactly from the rows it holds; what is left over stays the
        unsealed tail.  A leading run of garbage-free segments is kept as
        it is.  Write-behind entries are untouched - they hold no log rows
        yet, so there is nothing to reclaim for them.
        """
        self.stats.compactions += 1
        wire = _codec()
        locator = self._locator
        log = [(number, segment, segment.rows)
               for number, segment in self._segments.items()]
        log.append((self._tail_no, None, self._tail))
        self._segments = {}
        self._tail = wire.SegmentBuilder()
        self._tail_no += 1
        for number, segment, rows in log:
            live = self._live_rows(rows, number, range(rows.count))
            if segment is not None and len(live) == rows.count and \
                    not self._tail.count:
                self._segments[number] = segment
                continue
            ids = rows.column(wire.SEG_ID)
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

        The write-behind buffer flushes first, whole segments are skipped
        on zone maps + blooms, and the surviving segments and the tail are
        filtered on columns (:meth:`_matching_rows`): every predicate is
        exact - :meth:`ScanSpec.matches` holds for precisely the rows
        selected.

        When the log holds several rows for one id (promotion then
        re-archival), only the latest is live.  Pruning stays safe across
        duplicates because a stale row is simply not live: the locator
        points at the authoritative row and only that row's segment needs
        to survive pruning.
        """
        self.flush()
        stats = self.stats
        # Compile the spec once into segment-level and row-level filters.
        link_tests: List[Tuple[Optional[str], int]] = []
        for a, b in spec.links:
            if a is None or b is None:
                link_tests.append((a if b is None else b, 0))
            else:
                link_tests.append((None, _seg_link_mask(a, b)))
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
        candidates = []
        for number, segment in self._segments.items():
            if segment.may_match(spec.start, spec.end, link_tests,
                                 fkey_masks):
                candidates.append(number)
            else:
                stats.segments_skipped += 1
        stats.segment_decodes += len(candidates)
        if self._tail.count:
            candidates.append(self._tail_no)
        for number in candidates:
            rows = self._rows(number)
            matching = self._matching_rows(rows, number, spec, flows)
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
        columns = [_codec().FIELD_COLUMNS[name] for name in fields]
        for rows, selection in self._selected(spec):
            yield rows.select(columns, selection)

    def _matching_rows(self, rows, segment_no: int, spec: ScanSpec,
                       flows: Optional[Set[FlowId]]) -> Sequence[int]:
        """Row numbers of one log position that are live and match
        ``spec``, evaluated column by column; a column or dictionary is
        opened only when a row that survived so far needs it."""
        wire = _codec()
        matching: Sequence[int] = range(rows.count)
        start, end = spec.start, spec.end
        if start is not None or end is not None:
            low = -_INF if start is None else start
            high = _INF if end is None else end
            # Negated comparisons, exactly like ScanSpec.matches rejects.
            matching = [row for row, (stime, etime) in enumerate(zip(
                            rows.column(wire.SEG_STIME),
                            rows.column(wire.SEG_ETIME)))
                        if not etime < low and not stime > high]
        if spec.links and matching:
            indexes = rows.column(wire.SEG_PATH)
            paths = rows.paths()
            wanted = {index
                      for index in set(map(indexes.__getitem__, matching))
                      if _path_matches(paths[index], spec.links)}
            matching = [row for row in matching if indexes[row] in wanted]
        if flows is not None and matching:
            names = rows.names()
            probes = {(names.index(flow.src_ip), names.index(flow.dst_ip),
                       flow.src_port, flow.dst_port, flow.protocol)
                      for flow in flows
                      if flow.src_ip in names and flow.dst_ip in names}
            srcs, dsts, src_ports, dst_ports, protocols = map(
                rows.column, (wire.SEG_SRC, wire.SEG_DST, wire.SEG_SRC_PORT,
                              wire.SEG_DST_PORT, wire.SEG_PROTOCOL))
            matching = [row for row in matching
                        if (srcs[row], dsts[row], src_ports[row],
                            dst_ports[row], protocols[row]) in probes]
        return self._live_rows(rows, segment_no, matching)

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
        zone-map/bloom pruning one plan's pushed-down ``Filter`` bought.
        """
        stats = self.stats
        return {
            "cold_segments_skipped": stats.segments_skipped,
            "cold_entries_skipped": stats.entries_skipped,
            "cold_entries_decoded": stats.entries_decoded,
        }
