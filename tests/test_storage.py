"""Tests for the document store and flow-record schema."""

import random

import pytest

from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import (Collection, DocumentStore, PathFlowRecord,
                           QueryError, TrajectoryMemoryRecord, flow_key,
                           parse_flow_key)


@pytest.fixture()
def people():
    collection = Collection("people")
    collection.create_index("city")
    collection.insert_many([
        {"name": "ada", "age": 36, "city": "london", "tags": ["math"]},
        {"name": "bob", "age": 25, "city": "paris", "tags": ["art", "math"]},
        {"name": "eve", "age": 30, "city": "london", "tags": []},
    ])
    return collection


class TestCollection:
    def test_equality_and_index_lookup(self, people):
        assert len(people.find({"city": "london"})) == 2
        assert people.find_one({"name": "bob"})["age"] == 25
        assert people.find_one({"name": "nobody"}) is None

    def test_comparison_operators(self, people):
        assert len(people.find({"age": {"$gte": 30}})) == 2
        assert len(people.find({"age": {"$gt": 30, "$lt": 40}})) == 1
        assert len(people.find({"age": {"$in": [25, 36]}})) == 2
        assert len(people.find({"age": {"$nin": [25, 36]}})) == 1
        assert len(people.find({"tags": {"$contains": "math"}})) == 2

    def test_unknown_operator_raises(self, people):
        with pytest.raises(QueryError):
            people.find({"age": {"$weird": 1}})

    def test_limit_and_count_and_distinct(self, people):
        assert len(people.find(limit=2)) == 2
        assert people.count({"city": "london"}) == 2
        assert sorted(people.distinct("city")) == ["london", "paris"]

    def test_delete_and_compact(self, people):
        removed = people.delete({"city": "london"})
        assert removed == 2
        assert people.count() == 1
        people.compact()
        assert people.count() == 1

    def test_insert_assigns_ids(self):
        collection = Collection("c")
        first = collection.insert({"x": 1})
        second = collection.insert({"x": 2})
        assert first != second

    def test_estimated_bytes_grows(self, people):
        before = people.estimated_bytes()
        people.insert({"name": "zoe", "age": 99, "city": "rome", "tags": []})
        assert people.estimated_bytes() > before


class TestIncrementalIndexMaintenance:
    def _collection(self, auto_compact_ratio=None):
        collection = Collection("c", auto_compact_ratio=auto_compact_ratio)
        collection.create_index("city")
        for i in range(10):
            collection.insert({"n": i, "city": "london" if i % 2 else "paris"})
        return collection

    def test_delete_updates_postings_without_rebuild(self):
        collection = self._collection()
        rebuilds = collection.stats.index_rebuilds
        removed = collection.delete({"city": "paris"})
        assert removed == 5
        assert collection.stats.index_rebuilds == rebuilds
        assert collection.find({"city": "paris"}) == []
        assert len(collection.find({"city": "london"})) == 5
        # The index keeps serving inserts after the incremental delete.
        collection.insert({"n": 99, "city": "paris"})
        assert len(collection.find({"city": "paris"})) == 1

    def test_delete_by_id_and_get(self):
        collection = Collection("c")
        doc_id = collection.insert({"x": 1})
        assert collection.get(doc_id)["x"] == 1
        assert collection.delete_by_id(doc_id)
        assert collection.get(doc_id) is None
        assert not collection.delete_by_id(doc_id)

    def test_update_moves_index_postings(self):
        collection = self._collection()
        doc = collection.find_one({"n": 0})
        assert collection.update(doc["_id"], {"city": "rome"})
        assert len(collection.find({"city": "paris"})) == 4
        assert collection.find_one({"city": "rome"})["n"] == 0

    def test_update_rejects_id_change(self):
        collection = Collection("c")
        doc_id = collection.insert({"x": 1})
        with pytest.raises(QueryError):
            collection.update(doc_id, {"_id": 5})

    def test_update_unknown_id(self):
        collection = Collection("c")
        assert not collection.update(12345, {"x": 1})

    def test_duplicate_explicit_id_rejected(self):
        collection = Collection("c")
        collection.insert({"_id": 5, "x": "first"})
        with pytest.raises(QueryError):
            collection.insert({"_id": 5, "x": "second"})
        # The original document stays reachable by id.
        assert collection.get(5)["x"] == "first"
        assert collection.count() == 1
        # Auto-assigned ids continue past the explicit one.
        assert collection.insert({"x": "next"}) > 5

    def test_auto_compact_on_tombstone_ratio(self):
        collection = Collection("c", auto_compact_ratio=0.3)
        collection.create_index("bucket")
        for i in range(100):
            collection.insert({"n": i, "bucket": i % 4})
        assert collection.stats.compactions == 0
        collection.delete({"bucket": 0})
        collection.delete({"bucket": 1})
        assert collection.stats.compactions >= 1
        assert collection.tombstone_ratio == 0.0
        assert collection.count() == 50
        assert len(collection.find({"bucket": 2})) == 25
        assert len(collection.find({"bucket": 0})) == 0

    def test_indexes_consistent_after_delete_compact_clear(self):
        collection = self._collection()
        collection.delete({"n": {"$lt": 4}})
        collection.compact()
        assert collection.count() == 6
        assert sorted(d["n"] for d in collection.find({"city": "paris"})) == \
            [4, 6, 8]
        collection.clear()
        assert collection.count() == 0
        assert collection.find({"city": "paris"}) == []
        collection.insert({"n": 1, "city": "paris"})
        assert len(collection.find({"city": "paris"})) == 1


class TestSortedIndex:
    def _collection(self):
        collection = Collection("c")
        collection.create_sorted_index("age")
        for age in (30, 10, 20, 40, 20, None):
            collection.insert({"age": age})
        return collection

    def test_range_queries_use_bisection(self):
        collection = self._collection()
        scans = collection.stats.full_scans
        assert sorted(d["age"] for d in
                      collection.find({"age": {"$gte": 20}})) == [20, 20, 30, 40]
        assert sorted(d["age"] for d in
                      collection.find({"age": {"$gt": 20}})) == [30, 40]
        assert sorted(d["age"] for d in
                      collection.find({"age": {"$lt": 20}})) == [10]
        assert sorted(d["age"] for d in
                      collection.find({"age": {"$lte": 20}})) == [10, 20, 20]
        assert sorted(d["age"] for d in
                      collection.find({"age": {"$eq": 20}})) == [20, 20]
        assert sorted(d["age"] for d in
                      collection.find({"age": {"$gt": 10, "$lt": 40}})) == \
            [20, 20, 30]
        # Every query above was answered from the sorted index.
        assert collection.stats.full_scans == scans

    def test_boundary_values_exact(self):
        collection = self._collection()
        assert len(collection.find({"age": {"$gte": 40}})) == 1
        assert len(collection.find({"age": {"$gt": 40}})) == 0
        assert len(collection.find({"age": {"$lte": 10}})) == 1
        assert len(collection.find({"age": {"$lt": 10}})) == 0

    def test_missing_values_never_match_ranges(self):
        collection = self._collection()
        assert all(d["age"] is not None
                   for d in collection.find({"age": {"$gte": 0}}))

    def test_eq_none_falls_back_to_scan(self):
        # {"$eq": None} cannot be answered from the sorted index (None
        # values are excluded from it); it must still find the document.
        collection = self._collection()
        hits = collection.find({"age": {"$eq": None}})
        assert len(hits) == 1 and hits[0]["age"] is None

    def test_id_equality_uses_id_map(self):
        collection = self._collection()
        doc = collection.find_one({"age": 40})
        scans = collection.stats.full_scans
        assert collection.find({"_id": doc["_id"]}) == [doc]
        assert collection.find({"_id": "no-such-id"}) == []
        assert collection.delete({"_id": doc["_id"]}) == 1
        assert collection.stats.full_scans == scans

    def test_maintained_through_update_and_delete(self):
        collection = self._collection()
        doc = collection.find_one({"age": 30})
        collection.update(doc["_id"], {"age": 5})
        assert sorted(d["age"] for d in
                      collection.find({"age": {"$lt": 10}})) == [5]
        collection.delete({"age": {"$lte": 5}})
        assert collection.find({"age": {"$lt": 10}}) == []
        collection.compact()
        assert sorted(d["age"] for d in
                      collection.find({"age": {"$gte": 20}})) == [20, 20, 40]


class TestDocumentStore:
    def test_collections_are_cached(self):
        store = DocumentStore()
        assert store.collection("a") is store.collection("a")
        store.collection("b").insert({"x": 1})
        assert store.collection_names() == ["a", "b"]
        assert store.estimated_bytes() > 0
        store.drop("b")
        assert store.collection_names() == ["a"]


class TestRecords:
    def _flow(self):
        return FlowId("h-0-0-0", "h-1-0-0", 1234, 80, PROTO_TCP)

    def test_round_trip_serialization(self):
        record = PathFlowRecord(self._flow(),
                                ("h-0-0-0", "tor-0-0", "h-1-0-0"),
                                stime=1.0, etime=2.0, bytes=100, pkts=2)
        doc = record.to_document()
        rebuilt = PathFlowRecord.from_document(doc)
        assert rebuilt == record

    def test_document_bytes_is_what_a_collection_charges(self):
        """``document_bytes()`` == the docstore's price for ``to_document()``
        plus its ``_id``, for any strings, path length and number size -
        and stays put under a merge-style update (every number is 8 B)."""
        rng = random.Random(53)
        names = ["", "h", "host-a1", "tor-0-0", "zürich", "中中", "😀-edge",
                 "x" * 40]
        huge = (0, 1, 80, 65_535, 2 ** 63, 2 ** 63 + 1, 2 ** 200, -2 ** 64)
        for _ in range(300):
            flow = FlowId(rng.choice(names), rng.choice(names),
                          rng.choice(huge), rng.choice(huge),
                          rng.choice(huge))
            path = tuple(rng.choice(names)
                         for _ in range(rng.choice((0, 1, 2, 5, 9))))
            record = PathFlowRecord(
                flow, path, rng.choice((0, 0.5, 2 ** 70)),
                rng.choice((1, 1e300)), rng.choice(huge), rng.choice(huge))
            collection = Collection("c")
            document = record.to_document()
            if rng.random() < 0.5:  # a promotion's explicit (any-size) _id
                document["_id"] = rng.choice(huge)
            doc_id = collection.insert(document)
            assert record.document_bytes() == collection.estimated_bytes()
            assert record.document_bytes() == \
                collection.recompute_estimated_bytes()
            collection.update(doc_id, {"bytes": 2 ** 90, "pkts": 7,
                                       "stime": -1.0, "etime": 2 ** 80})
            assert record.document_bytes() == collection.estimated_bytes()

    def test_links_and_traversal(self):
        record = PathFlowRecord(self._flow(),
                                ("h", "s1", "s2", "h2"), 0.0, 1.0)
        assert record.links() == [("h", "s1"), ("s1", "s2"), ("s2", "h2")]
        assert record.traverses_link("s2", "s1")
        assert not record.traverses_link("s1", "h2")

    def test_update_extends_interval(self):
        record = PathFlowRecord(self._flow(), ("a", "b"), 5.0, 6.0, 10, 1)
        record.update(20, 2, when=8.0)
        assert record.bytes == 30 and record.pkts == 3
        assert record.etime == 8.0
        assert record.duration == 3.0

    def test_flow_key_round_trip(self):
        flow = self._flow()
        assert parse_flow_key(flow_key(flow)) == flow

    def test_memory_record_update(self):
        memory = TrajectoryMemoryRecord(self._flow(), (3, 5), 0.0, 0.0)
        memory.update(100, when=1.0)
        memory.update(200, when=2.0)
        assert memory.bytes == 300 and memory.pkts == 2
        assert memory.etime == 2.0


class TestEstimatedBytesAccounting:
    """The storage-footprint estimate is maintained incrementally (O(1)
    reads) and counts strings at their UTF-8 length."""

    def test_incremental_matches_reference_walk(self, people):
        assert people.estimated_bytes() == people.recompute_estimated_bytes()
        people.insert({"name": "zoë", "age": 1, "city": "zürich"})
        people.update(1, {"age": 26, "city": "london"})
        people.update(2, {"nickname": "evie"})  # adds a new field
        people.delete({"name": "ada"})
        assert people.estimated_bytes() == people.recompute_estimated_bytes()
        people.compact()
        assert people.estimated_bytes() == people.recompute_estimated_bytes()
        people.clear()
        assert people.estimated_bytes() == 0
        assert people.recompute_estimated_bytes() == 0

    def test_update_adjusts_estimate_both_directions(self):
        collection = Collection("c")
        doc_id = collection.insert({"value": "short"})
        before = collection.estimated_bytes()
        collection.update(doc_id, {"value": "a much longer string value"})
        grown = collection.estimated_bytes()
        assert grown > before
        collection.update(doc_id, {"value": "s"})
        assert collection.estimated_bytes() < grown
        assert collection.estimated_bytes() == \
            collection.recompute_estimated_bytes()

    def test_unicode_counted_at_utf8_length(self):
        ascii_coll = Collection("a")
        unicode_coll = Collection("u")
        ascii_coll.insert({"name": "xx"})
        unicode_coll.insert({"name": "中中"})  # 2 chars, 6 UTF-8 bytes
        assert unicode_coll.estimated_bytes() == \
            ascii_coll.estimated_bytes() + 4
        assert unicode_coll.estimated_bytes() == \
            unicode_coll.recompute_estimated_bytes()


class TestCountWithoutMaterializing:
    """``count(query)`` must agree with ``len(find(query))`` while building
    no result list (it counts straight over the candidate positions)."""

    QUERIES = [
        {"city": "london"},
        {"city": "nowhere"},
        {"age": {"$gte": 26}},
        {"age": {"$gte": 26, "$lt": 36}},
        {"tags": {"$contains": "math"}},
        {"city": "london", "age": {"$gt": 30}},
        {"_id": 0},
        {},
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_count_matches_find(self, people, query):
        assert people.count(query or None) == len(people.find(query or None))

    def test_count_uses_index_not_full_scan(self, people):
        people.stats.reset()
        assert people.count({"city": "london"}) == 2
        assert people.stats.full_scans == 0
        # un-indexed field: the full scan is counted, like find's
        assert people.count({"age": 25}) == 1
        assert people.stats.full_scans == 1

    def test_count_skips_tombstones(self, people):
        people.delete({"name": "ada"})
        assert people.count({"city": "london"}) == \
            len(people.find({"city": "london"})) == 1
        assert people.count() == 2

    def test_count_with_sorted_index(self):
        collection = Collection("events")
        collection.create_sorted_index("when")
        for i in range(50):
            collection.insert({"when": float(i % 10), "seq": i})
        query = {"when": {"$gte": 3.0, "$lt": 6.0}}
        collection.stats.reset()
        assert collection.count(query) == len(collection.find(query)) == 15
        assert collection.stats.full_scans == 0
