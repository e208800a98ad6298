"""An in-memory document store backing the Trajectory Information Base.

The original PathDump builds its TIB on MongoDB.  Nothing in the system
depends on MongoDB specifics - the TIB needs insertion of small flow-record
documents, filtered scans (by flow, by link, by time range) and counts - so
this module provides a compact, dependency-free document store with a
Mongo-flavoured query subset:

* equality matches: ``{"field": value}``
* comparison operators: ``{"field": {"$gte": x, "$lt": y}}``
* membership: ``{"field": {"$in": [...]}}``
* containment for list-valued fields: ``{"field": {"$contains": value}}``

Two index kinds accelerate queries:

* **hash indexes** (:meth:`Collection.create_index`) serve equality lookups;
* **sorted indexes** (:meth:`Collection.create_sorted_index`) serve range
  queries (``$gt``/``$gte``/``$lt``/``$lte``/``$eq``) via bisection.

All indexes are maintained *incrementally*: inserts, in-place updates
(:meth:`Collection.update`) and deletes touch only the affected postings -
there is no full index rebuild outside :meth:`Collection.create_index`,
:meth:`Collection.create_sorted_index` and :meth:`Collection.compact`.
Deletion tombstones document slots to keep index positions stable; a
compaction reclaiming the space runs automatically once the tombstone ratio
crosses ``auto_compact_ratio``.  The store also tracks an estimate of its
storage footprint so the Section 5.3 overhead numbers have a concrete
counterpart, and per-collection counters (``Collection.stats``, a
:class:`CollectionStats`) expose how often full scans, index rebuilds and
compactions actually happen.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.counters import Counters

#: Comparison operators supported in query documents.
_OPERATORS = {
    "$eq": lambda value, ref: value == ref,
    "$ne": lambda value, ref: value != ref,
    "$gt": lambda value, ref: value is not None and value > ref,
    "$gte": lambda value, ref: value is not None and value >= ref,
    "$lt": lambda value, ref: value is not None and value < ref,
    "$lte": lambda value, ref: value is not None and value <= ref,
    "$in": lambda value, ref: value in ref,
    "$nin": lambda value, ref: value not in ref,
    "$contains": lambda value, ref: isinstance(value, (list, tuple, set))
    and ref in value,
}

#: Range operators a sorted index can answer by bisection.
_RANGE_OPERATORS = ("$eq", "$gt", "$gte", "$lt", "$lte")

#: Upper sentinel for bisecting "all entries with this exact value".
_POS_INF = float("inf")


class QueryError(ValueError):
    """Raised for malformed query documents."""


def _matches(document: Dict[str, Any], query: Dict[str, Any]) -> bool:
    """Evaluate a query document against one stored document."""
    for field, condition in query.items():
        value = document.get(field)
        if isinstance(condition, dict):
            for op, ref in condition.items():
                func = _OPERATORS.get(op)
                if func is None:
                    raise QueryError(f"unsupported operator {op!r}")
                if not func(value, ref):
                    return False
        else:
            if value != condition:
                return False
    return True


@dataclass(slots=True)
class CollectionStats(Counters):
    """How often a collection's expensive operations actually happen."""

    full_scans: int = 0
    index_rebuilds: int = 0
    compactions: int = 0


class Collection:
    """A named collection of documents with hash and sorted indexes.

    Args:
        name: the collection name.
        auto_compact_ratio: tombstone fraction above which a delete triggers
            an automatic :meth:`compact` (set to ``None`` to disable).
    """

    #: Minimum number of slots before auto-compaction is considered; keeps
    #: tiny collections from compacting on every other delete.
    AUTO_COMPACT_MIN_SLOTS = 64

    def __init__(self, name: str,
                 auto_compact_ratio: Optional[float] = 0.3) -> None:
        self.name = name
        self.auto_compact_ratio = auto_compact_ratio
        self._documents: List[Optional[Dict[str, Any]]] = []
        # Serialized-size of each slot, parallel to _documents: deletes and
        # footprint accounting read the cached size instead of re-walking
        # the document (which made heavy eviction churn quadratic-ish).
        self._doc_bytes: List[int] = []
        self._id_to_pos: Dict[Any, int] = {}
        # Hash-index postings are insertion-ordered dicts (position -> None)
        # rather than lists: removal is O(1) instead of O(len(posting)),
        # which matters when one hot key (e.g. a single busy dst host)
        # accumulates most of the collection.
        self._indexes: Dict[str, Dict[Any, Dict[int, None]]] = {}
        self._sorted_indexes: Dict[str, List[Tuple[Any, int]]] = {}
        self._next_id = 0
        self._tombstones = 0
        # Incrementally maintained storage-footprint estimate: adjusted on
        # every insert/update/delete instead of walked O(n) per call.
        self._estimated_bytes = 0
        self.stats = CollectionStats()

    # ---------------------------------------------------------------- indexes
    def create_index(self, field: str) -> None:
        """Create (or rebuild) a hash index on ``field``."""
        self.stats.index_rebuilds += 1
        self._build_hash_index(field)

    def create_sorted_index(self, field: str) -> None:
        """Create (or rebuild) a sorted index on ``field``.

        Sorted indexes answer range queries by bisection.  Documents whose
        ``field`` is missing or ``None`` are excluded; queries whose bounds
        are all ``None`` (e.g. ``{"$eq": None}``) therefore fall back to a
        scan instead of the index.  Values must be mutually comparable.
        """
        self.stats.index_rebuilds += 1
        self._build_sorted_index(field)

    def _build_hash_index(self, field: str) -> None:
        index: Dict[Any, Dict[int, None]] = defaultdict(dict)
        for position, document in enumerate(self._documents):
            if document is None:
                continue
            index[self._index_key(document.get(field))][position] = None
        self._indexes[field] = dict(index)

    def _build_sorted_index(self, field: str) -> None:
        entries = [(document[field], position)
                   for position, document in enumerate(self._documents)
                   if document is not None
                   and document.get(field) is not None]
        entries.sort()
        self._sorted_indexes[field] = entries

    # ---------------------------------------------------------------- writes
    def insert(self, document: Dict[str, Any]) -> int:
        """Insert a document; returns its assigned ``_id``."""
        doc = dict(document)
        doc.setdefault("_id", self._next_id)
        if doc["_id"] in self._id_to_pos:
            raise QueryError(f"duplicate _id {doc['_id']!r}")
        self._next_id += 1
        if isinstance(doc["_id"], int) and doc["_id"] >= self._next_id:
            self._next_id = doc["_id"] + 1
        position = len(self._documents)
        self._documents.append(doc)
        doc_bytes = _estimate_document_bytes(doc)
        self._doc_bytes.append(doc_bytes)
        self._id_to_pos[doc["_id"]] = position
        self._estimated_bytes += doc_bytes
        for field, index in self._indexes.items():
            index.setdefault(self._index_key(doc.get(field)),
                             {})[position] = None
        for field, entries in self._sorted_indexes.items():
            value = doc.get(field)
            if value is not None:
                insort(entries, (value, position))
        return doc["_id"]

    def insert_many(self, documents: Iterable[Dict[str, Any]]) -> int:
        """Insert many documents; returns the number inserted."""
        count = 0
        for document in documents:
            self.insert(document)
            count += 1
        return count

    def update(self, doc_id: Any, changes: Dict[str, Any]) -> bool:
        """Update fields of the document ``doc_id`` in place.

        Indexes over the changed fields are maintained incrementally (the
        old posting is removed, the new one added); unchanged fields cost
        nothing.  Returns whether the document existed.  ``_id`` cannot be
        changed.
        """
        if "_id" in changes:
            raise QueryError("_id is immutable")
        position = self._id_to_pos.get(doc_id)
        if position is None:
            return False
        document = self._documents[position]
        for field, new_value in changes.items():
            old_value = document.get(field)
            if old_value == new_value:
                continue
            delta = _estimate_value_bytes(new_value)
            if field in document:
                delta -= _estimate_value_bytes(old_value)
            else:
                delta += len(field)
            self._estimated_bytes += delta
            self._doc_bytes[position] += delta
            index = self._indexes.get(field)
            if index is not None:
                self._posting_remove(index, self._index_key(old_value),
                                     position)
                index.setdefault(self._index_key(new_value),
                                 {})[position] = None
            entries = self._sorted_indexes.get(field)
            if entries is not None:
                if old_value is not None:
                    self._sorted_remove(entries, old_value, position)
                if new_value is not None:
                    insort(entries, (new_value, position))
            document[field] = new_value
        return True

    def delete(self, query: Dict[str, Any]) -> int:
        """Delete matching documents; returns the number removed.

        Deletion marks slots as tombstones to keep index positions stable
        and removes only the affected index postings; a tombstone-ratio
        triggered :meth:`compact` reclaims the space.
        """
        positions = self._candidate_positions(query)
        if positions is None:
            if query:
                self.stats.full_scans += 1
            positions = range(len(self._documents))
        removed = 0
        # Copy: postings are mutated while we iterate over them.
        for position in list(positions):
            document = self._documents[position]
            if document is None:
                continue
            if _matches(document, query):
                self._remove_at(position, document)
                removed += 1
        if removed:
            self._maybe_auto_compact()
        return removed

    def delete_by_id(self, doc_id: Any) -> bool:
        """Delete the document ``doc_id``; returns whether it existed."""
        position = self._id_to_pos.get(doc_id)
        if position is None:
            return False
        document = self._documents[position]
        self._remove_at(position, document)
        self._maybe_auto_compact()
        return True

    def _remove_at(self, position: int, document: Dict[str, Any]) -> None:
        """Tombstone one slot and strip its postings from every index."""
        self._documents[position] = None
        self._tombstones += 1
        self._estimated_bytes -= self._doc_bytes[position]
        self._doc_bytes[position] = 0
        self._id_to_pos.pop(document["_id"], None)
        for field, index in self._indexes.items():
            self._posting_remove(index, self._index_key(document.get(field)),
                                 position)
        for field, entries in self._sorted_indexes.items():
            value = document.get(field)
            if value is not None:
                self._sorted_remove(entries, value, position)

    @staticmethod
    def _posting_remove(index: Dict[Any, Dict[int, None]], key: Any,
                        position: int) -> None:
        posting = index.get(key)
        if posting is None:
            return
        posting.pop(position, None)
        if not posting:
            del index[key]

    @staticmethod
    def _sorted_remove(entries: List[Tuple[Any, int]], value: Any,
                       position: int) -> None:
        i = bisect_left(entries, (value, position))
        if i < len(entries) and entries[i] == (value, position):
            del entries[i]

    def _maybe_auto_compact(self) -> None:
        ratio = self.auto_compact_ratio
        if ratio is None:
            return
        slots = len(self._documents)
        if slots >= self.AUTO_COMPACT_MIN_SLOTS and \
                self._tombstones / slots >= ratio:
            self.compact()

    @property
    def tombstone_ratio(self) -> float:
        """Fraction of document slots holding tombstones."""
        slots = len(self._documents)
        return self._tombstones / slots if slots else 0.0

    def compact(self) -> None:
        """Drop tombstones and rebuild indexes over the compacted slots."""
        self.stats.compactions += 1
        self._doc_bytes = [b for d, b in zip(self._documents, self._doc_bytes)
                           if d is not None]
        self._documents = [d for d in self._documents if d is not None]
        self._tombstones = 0
        self._id_to_pos = {d["_id"]: i for i, d in enumerate(self._documents)}
        for field in self._indexes:
            self._build_hash_index(field)
        for field in self._sorted_indexes:
            self._build_sorted_index(field)

    def clear(self) -> None:
        """Remove every document."""
        self._documents.clear()
        self._doc_bytes.clear()
        self._id_to_pos.clear()
        self._tombstones = 0
        self._estimated_bytes = 0
        for index in self._indexes.values():
            index.clear()
        for entries in self._sorted_indexes.values():
            entries.clear()

    # ----------------------------------------------------------------- reads
    def get(self, doc_id: Any) -> Optional[Dict[str, Any]]:
        """Return the document with ``_id == doc_id`` (O(1)) or ``None``."""
        position = self._id_to_pos.get(doc_id)
        return self._documents[position] if position is not None else None

    def find(self, query: Optional[Dict[str, Any]] = None,
             limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Return documents matching ``query`` (all documents when omitted)."""
        results: List[Dict[str, Any]] = []
        if query is None:
            for document in self._documents:
                if document is not None:
                    results.append(document)
                    if limit is not None and len(results) >= limit:
                        break
            return results
        positions = self._candidate_positions(query)
        if positions is None:
            self.stats.full_scans += 1
            positions = range(len(self._documents))
        for position in positions:
            document = self._documents[position]
            if document is None:
                continue
            if _matches(document, query):
                results.append(document)
                if limit is not None and len(results) >= limit:
                    break
        return results

    def find_one(self, query: Optional[Dict[str, Any]] = None
                 ) -> Optional[Dict[str, Any]]:
        """Return one matching document or ``None``."""
        found = self.find(query, limit=1)
        return found[0] if found else None

    def count(self, query: Optional[Dict[str, Any]] = None) -> int:
        """Count matching documents.

        Counts directly over the candidate positions - no result list is
        built (``len(self.find(query))`` used to materialize every match
        just to throw it away).  Uses the same index routing as
        :meth:`find`, so the two can never disagree.
        """
        if query is None:
            return len(self._documents) - self._tombstones
        positions = self._candidate_positions(query)
        if positions is None:
            self.stats.full_scans += 1
            positions = range(len(self._documents))
        matched = 0
        documents = self._documents
        for position in positions:
            document = documents[position]
            if document is not None and _matches(document, query):
                matched += 1
        return matched

    def distinct(self, field: str,
                 query: Optional[Dict[str, Any]] = None) -> List[Any]:
        """Distinct values of ``field`` among matching documents."""
        seen = []
        seen_keys = set()
        for document in self.find(query):
            value = document.get(field)
            key = self._index_key(value)
            if key not in seen_keys:
                seen_keys.add(key)
                seen.append(value)
        return seen

    def __len__(self) -> int:
        return self.count()

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return (d for d in self._documents if d is not None)

    # ------------------------------------------------------------- internals
    def _candidate_positions(self, query: Dict[str, Any]
                             ) -> Optional[Iterable[int]]:
        """Narrow the scan with an index when one covers a query term.

        Returns candidate positions (a superset of the matches - ``find``
        and ``delete`` still verify every term), or ``None`` when no index
        applies and a full scan is required.
        """
        for field, condition in query.items():
            if not isinstance(condition, dict):
                if field == "_id":
                    position = self._id_to_pos.get(condition)
                    return [] if position is None else [position]
                index = self._indexes.get(field)
                if index is not None:
                    return index.get(self._index_key(condition), [])
                continue
            entries = self._sorted_indexes.get(field)
            # None bounds cannot be bisected (and None-valued documents are
            # not in the sorted index), so only non-None refs qualify.
            if entries is not None and any(condition.get(op) is not None
                                           for op in _RANGE_OPERATORS):
                return self._sorted_candidates(entries, condition)
        return None

    @staticmethod
    def _sorted_candidates(entries: List[Tuple[Any, int]],
                           condition: Dict[str, Any]) -> List[int]:
        """Bisect a sorted index down to the slice a range query allows."""
        lo, hi = 0, len(entries)
        eq = condition.get("$eq")
        if eq is not None:
            lo = max(lo, bisect_left(entries, (eq,)))
            hi = min(hi, bisect_right(entries, (eq, _POS_INF)))
        if "$gte" in condition:
            lo = max(lo, bisect_left(entries, (condition["$gte"],)))
        if "$gt" in condition:
            lo = max(lo, bisect_right(entries, (condition["$gt"], _POS_INF)))
        if "$lte" in condition:
            hi = min(hi, bisect_right(entries, (condition["$lte"], _POS_INF)))
        if "$lt" in condition:
            hi = min(hi, bisect_left(entries, (condition["$lt"],)))
        return [position for _, position in entries[lo:hi]]

    @staticmethod
    def _index_key(value: Any) -> Any:
        """Hashable representation of a field value."""
        if isinstance(value, list):
            return tuple(value)
        return value

    # ------------------------------------------------------------ accounting
    def estimated_bytes(self) -> int:
        """Rough storage footprint of the collection in bytes.

        O(1): the estimate is maintained incrementally by every
        insert/update/delete (it used to be an O(n) walk per call, which
        made per-experiment storage accounting quadratic).
        """
        return self._estimated_bytes

    def recompute_estimated_bytes(self) -> int:
        """The O(n) reference walk (cross-checks the incremental counter)."""
        total = 0
        for document in self._documents:
            if document is None:
                continue
            total += _estimate_document_bytes(document)
        return total


def _estimate_document_bytes(document: Dict[str, Any]) -> int:
    """Estimate the serialized size of one document."""
    total = 16  # per-document overhead
    for key, value in document.items():
        total += len(key)
        total += _estimate_value_bytes(value)
    return total


def _estimate_value_bytes(value: Any) -> int:
    if isinstance(value, str):
        # UTF-8 length, not code-point count: non-ASCII characters occupy
        # 2-4 bytes serialized, and the wire codec measures them that way.
        # (For ASCII - the overwhelmingly common case on this write path -
        # the code-point count already is the UTF-8 length; isascii()
        # avoids allocating an encoded copy per string per insert.)
        if value.isascii():
            return len(value) + 1
        return len(value.encode("utf-8")) + 1
    if isinstance(value, (int, float, bool)) or value is None:
        return 8
    if isinstance(value, (list, tuple)):
        return 4 + sum(_estimate_value_bytes(v) for v in value)
    if isinstance(value, dict):
        return _estimate_document_bytes(value)
    return sys.getsizeof(value)


class DocumentStore:
    """A set of named collections (one 'database' per end host)."""

    def __init__(self) -> None:
        self._collections: Dict[str, Collection] = {}

    def collection(self, name: str) -> Collection:
        """Get or create the collection ``name``."""
        if name not in self._collections:
            self._collections[name] = Collection(name)
        return self._collections[name]

    def drop(self, name: str) -> None:
        """Drop the collection ``name`` (no-op when absent)."""
        self._collections.pop(name, None)

    def collection_names(self) -> List[str]:
        """All collection names, sorted."""
        return sorted(self._collections)

    def estimated_bytes(self) -> int:
        """Total estimated footprint of the store."""
        return sum(c.estimated_bytes() for c in self._collections.values())

    def reset_stats(self) -> None:
        """Zero the instrumentation counters of every collection (documents
        and indexes stay intact)."""
        for collection in self._collections.values():
            collection.stats.reset()
