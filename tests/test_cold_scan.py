"""Tests for the cold-tier query engine behind the unified ScanSpec API.

Covers: ScanSpec normalisation, its exact match predicate and every
field narrowing both tiers' scans alike, the
write-behind buffer and its flush barrier, pinned pruning and index cases
(direction and one-hop twins, unparseable flow keys, a superseded
re-append, racing first reads), compaction keeping a garbage-free prefix,
scan results never aliasing promoted records, byte-equal segment blobs for
equal streams, the column read's surface, the aggregate handlers' edge
cases, capped answers byte-identical to uncapped ones across serial /
process / socket modes (including a kill while staged evictions are in
flight), and the consolidated ``controller.report(sections=...)``.  The
fuzzed properties are the state machine's, in ``test_tib_machine.py``.
"""

import dataclasses
import random
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core import (AgentServerError, MODE_PROCESS, MODE_SERIAL,
                        MODE_SOCKET, PathDumpController,
                        Q_FLOW_SIZE_DISTRIBUTION, Q_GET_FLOWS, Q_TOP_K_FLOWS,
                        Q_TRAFFIC_MATRIX, Query, QueryCluster, Tib, wire)
from repro.core.plan import Aggregate, Filter, Plan, reference_evaluate
from repro.core.query import Q_PLAN, QueryEngine
from repro.core.supervisor import ChaosPolicy, Supervisor
from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import ColdArchive, PathFlowRecord, RetentionPolicy, ScanSpec
from repro.storage.records import COLUMN_FIELDS, flow_key
from repro.storage.segment import SEG_ID, Segment
from test_supervisor import FAST, STARTUP_FRAMES, small_topology
from test_tib import get_count
from test_two_tier_tib import (HOT_CAP, SWITCHES, make_record, populate,
                               record_values)


class TestScanSpec:
    def test_wildcards_normalise_to_none(self):
        spec = ScanSpec(start="*", end="?", links=(("*", "s1"), ("?", "*")))
        assert spec.start is None and spec.end is None
        # the fully-wild pair constrains nothing and is dropped
        assert spec.links == ((None, "s1"),)

    def test_flow_keys_coerced_to_frozenset(self):
        spec = ScanSpec(flow_keys={"a", "b"})
        assert isinstance(spec.flow_keys, frozenset)
        assert spec.flow_keys == frozenset(("a", "b"))

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            ScanSpec(start=5.0, end=1.0)

    def test_unconstrained(self):
        assert ScanSpec().unconstrained
        assert ScanSpec(links=(("*", None),)).unconstrained
        assert not ScanSpec(start=1.0).unconstrained
        assert not ScanSpec(flow_keys=frozenset()).unconstrained

    def test_matches_window_overlap(self):
        record = make_record(0, stime=10.0, etime=20.0)
        assert ScanSpec(start=20.0, end=25.0).matches(record)
        assert ScanSpec(start=5.0, end=10.0).matches(record)
        assert not ScanSpec(end=9.9).matches(record)
        assert not ScanSpec(start=20.1).matches(record)

    def test_matches_links_are_a_conjunction(self):
        record = make_record(0)  # path (src, s0, s1, dst)
        a, b = record.path[1], record.path[2]
        assert ScanSpec(links=((a, b),)).matches(record)
        assert ScanSpec(links=((b, a),)).matches(record)  # undirected
        assert ScanSpec(links=((a, b), (None, record.path[0]))).matches(record)
        assert not ScanSpec(links=((a, b), ("nope", None))).matches(record)
        assert not ScanSpec(links=((a, "not-adjacent"),)).matches(record)

    def test_wildcard_endpoint_needs_a_real_link(self):
        lone = PathFlowRecord(make_record(0).flow_id, ("only",), 0.0, 1.0, 1, 1)
        assert not ScanSpec(links=(("only", None),)).matches(lone)

    def test_matches_flow_keys_are_a_disjunction(self):
        record = make_record(0)
        fkey = flow_key(record.flow_id)
        assert ScanSpec(flow_keys=frozenset((fkey, "other"))).matches(record)
        assert not ScanSpec(flow_keys=frozenset(("other",))).matches(record)
        assert not ScanSpec(flow_keys=frozenset()).matches(record)

    #: A spec constraining one field alone, for every ScanSpec field.
    ONE_FIELD = {"start": ScanSpec(start=20.0), "end": ScanSpec(end=20.0),
                 "links": ScanSpec(links=(("s1", "s0"),)),
                 "flow_keys": ScanSpec(flow_keys=frozenset(
                     (flow_key(make_record(0).flow_id), "no:1|such:2|6")))}

    @pytest.mark.parametrize(
        "field", [field.name for field in dataclasses.fields(ScanSpec)])
    def test_every_field_narrows_both_tiers(self, field):
        """A spec constraining one field selects strictly fewer rows than
        the unconstrained spec - exactly its ``matches`` rows - in the hot
        tier and in the archive alike; a field with no case fails."""
        spec = self.ONE_FIELD[field]
        tib, archive = Tib("h"), ColdArchive(segment_records=16)
        for i in range(40):
            tib.add_record(make_record(i))
            archive.append(i, make_record(i))
        for scan in (tib.scan, archive.scan):
            everything = scan(ScanSpec())
            want = [(i, r) for i, r in everything if spec.matches(r)]
            got = scan(spec)
            assert [i for i, _ in got] == [i for i, _ in want], scan
            assert record_values(r for _, r in got) == \
                record_values(r for _, r in want)
            assert 0 < len(got) < len(everything), scan


class TestWriteBehind:
    def test_staged_entries_are_live_without_log_bytes(self):
        archive = ColdArchive()
        record = make_record(0)
        key = (flow_key(record.flow_id), record.path)
        archive.stage(7, record, key)
        assert archive.staged_count == 1
        assert archive.live_count == 1
        assert archive.lookup(key) == 7
        assert archive.archive_bytes() == 0  # nothing encoded yet
        assert archive.stats.appends == 0

    def test_take_of_staged_entry_is_a_pop(self):
        """Promoting a still-staged entry creates no tombstone and no
        compaction pressure - churn absorbed by the buffer never touches
        the log."""
        archive = ColdArchive()
        record = make_record(0)
        key = (flow_key(record.flow_id), record.path)
        archive.stage(7, record, key)
        got_id, got = archive.take(key)
        assert (got_id, got) == (7, record)
        assert archive.staged_count == 0
        assert archive.live_count == 0
        assert archive.dead_ratio == 0.0
        assert archive.stats.takes == 1
        archive.flush()
        assert archive.archive_bytes() == 0

    def test_scan_flushes_first(self):
        """The flush barrier: a read never observes a torn tier."""
        archive = ColdArchive()
        for i in range(5):
            record = make_record(i, stime=float(i), etime=float(i) + 1.0)
            archive.stage(i, record)
        assert archive.staged_count == 5
        hits = archive.scan(ScanSpec())
        assert [record_id for record_id, _ in hits] == list(range(5))
        assert archive.staged_count == 0
        assert archive.stats.flushes == 1
        assert archive.stats.flushed_records == 5

    def test_buffer_bound_forces_inline_flush(self):
        archive = ColdArchive(write_behind_records=4)
        for i in range(4):
            archive.stage(i, make_record(i))
        assert archive.staged_count == 0  # the 4th stage flushed inline
        assert archive.stats.flushes == 1
        assert archive.live_count == 4

    def test_duplicate_key_rejected_while_staged(self):
        archive = ColdArchive()
        record = make_record(0)
        archive.stage(1, record)
        with pytest.raises(ValueError, match="live entry"):
            archive.stage(2, record)

    def test_eviction_stages_instead_of_encoding(self):
        tib = Tib("h", retention=RetentionPolicy(max_records=4))
        for i in range(12):
            tib.add_record(make_record(i))
        assert tib.archive.staged_count > 0
        assert tib.archive.live_count == 8
        # any read path settles the tier before touching the log
        assert len(tib.records()) == 12
        assert tib.archive.staged_count == 0

    def test_tier_stats_count_staged_bytes(self):
        """tier_stats is a flush barrier too: cold_bytes covers evictions
        still sitting in the write-behind buffer."""
        tib = Tib("h", retention=RetentionPolicy(max_records=4))
        for i in range(12):
            tib.add_record(make_record(i))
        stats = tib.tier_stats()
        assert stats["cold_records"] == 8
        assert stats["cold_bytes"] > 0
        assert stats["write_behind_flushes"] >= 1
        assert stats["write_behind_records"] == stats["cold_records"]
        assert tib.archive.staged_count == 0


def brute_force(archive, spec):
    """Reference scan: materialise *every* log row - each sealed blob
    re-opened from its bytes alone, then the tail - keep the live ones,
    filter with the spec's exact predicate.  Shares none of the fast
    path's filtering."""
    archive.flush()
    sources = [(number, Segment(segment.rows.data))
               for number, segment in archive._segments.items()]
    sources.append((archive._tail_no, archive._tail))
    return sorted(((record_id, record) for number, rows in sources
                   for row, (record_id, record) in enumerate(rows.records())
                   if archive._locator.get(record_id) == number << 32 | row
                   and spec.matches(record)), key=lambda pair: pair[0])


def fuzz_archive(seed, **kwargs):
    """A churned archive and the records it was fed.  Beside the regular
    stream it holds pairs of rows whose paths differ only in direction or
    in one hop (same flow endpoints, same times - only the per-distinct-
    path link test can tell them apart) and degenerate 1-hop / 0-hop
    paths that traverse no switch link at all."""
    rng = random.Random(seed)
    archive = ColdArchive(segment_records=16, compact_dead_ratio=None,
                          **kwargs)
    records = [make_record(i, rng=rng) for i in range(240)]
    for i in range(0, 240, 12):
        twin = records[i]
        src, a, b, dst = twin.path
        for offset, path in enumerate(((src, b, a, dst),
                                       (src, a, "s9", dst)), start=1):
            flow_id = twin.flow_id._replace(src_port=40_000 + 2 * i + offset)
            records.append(PathFlowRecord(flow_id, path, twin.stime,
                                          twin.etime, twin.bytes, twin.pkts))
    rng.shuffle(records)
    for i, record in enumerate(records):
        archive.append(i, record)
    for i, path in enumerate((("host-a0", "host-b"), ("host-b",), ())):
        archive.append(1000 + i, PathFlowRecord(
            FlowId("host-a0", "host-b", 50_000 + i, 80, PROTO_TCP), path,
            5.0, 6.0, 10, 1))
    # churn: promote a slice and re-archive half of it (garbage rows and
    # superseded duplicates must not confuse pruning or liveness)
    for i in rng.sample(range(len(records)), 40):
        record = records[i]
        key = (flow_key(record.flow_id), record.path)
        taken_id, taken = archive.take(key)
        if rng.random() < 0.5:
            merged = PathFlowRecord(taken.flow_id, taken.path,
                                    taken.stime - rng.uniform(0.0, 5.0),
                                    taken.etime + rng.uniform(0.0, 5.0),
                                    taken.bytes + 1, taken.pkts + 1)
            archive.append(taken_id, merged)
    return rng, archive, records


def assert_scan_is_brute_force(archive, spec):
    want = brute_force(archive, spec)
    got = archive.scan(spec)
    assert record_values(r for _, r in got) == \
        record_values(r for _, r in want), spec
    assert [i for i, _ in got] == [i for i, _ in want], spec
    return got


class TestPruningSoundnessFuzz:
    """Pinned cases of pruning soundness: no prune or column predicate may
    hide a matching entry."""

    def test_direction_and_one_hop_twins_are_told_apart(self):
        """Two rows that differ only in path direction both traverse the
        (undirected) link; a row that differs in one hop does not."""
        _, archive, records = fuzz_archive(5)
        twin = next(r for r in records if r.path[2] == "s9")
        src, a, _, dst = twin.path
        siblings = [r for r in records if r.stime == twin.stime
                    and r.flow_id.dst_port == twin.flow_id.dst_port
                    and r.path[0] == src and r.bytes == twin.bytes]
        b = next(r.path[2] for r in siblings if r.path[1] == a
                 and r.path[2] != "s9")
        for spec, hops in [
                (ScanSpec(links=((a, b),)), {(a, b), (b, a)}),
                (ScanSpec(links=((b, a),)), {(a, b), (b, a)}),
                (ScanSpec(links=((a, "s9"),)), {(a, "s9")}),
                (ScanSpec(links=((a, b), (b, dst))), {(a, b)})]:
            got = assert_scan_is_brute_force(archive, spec)
            assert got and {r.path[1:3] for _, r in got} <= hops, spec

    def test_unparseable_flow_keys_match_nothing(self):
        archive = ColdArchive(segment_records=8)
        for i in range(20):
            archive.append(i, make_record(i))
        fkey = flow_key(make_record(3).flow_id)
        assert archive.scan(ScanSpec(flow_keys=frozenset(("other",)))) == []
        padded = fkey.replace(":80|", ":080|")  # parses, but not canonical
        assert archive.scan(ScanSpec(flow_keys=frozenset((padded,)))) == []
        assert archive.scan(ScanSpec(
            flow_keys=frozenset(("other", padded, fkey))))

    def test_pruning_counters_reset(self):
        archive = ColdArchive(segment_records=8)
        for i in range(40):
            archive.append(i, make_record(i, stime=float(i),
                                          etime=float(i) + 1.0))
        archive.scan(ScanSpec(start=0.0, end=2.0))
        assert archive.stats.segments_skipped > 0
        archive.stats.reset()
        assert archive.stats.segments_skipped == 0
        assert archive.stats.entries_decoded == 0


def positions(archive):
    """``(number, rows, postings, dead set)`` of every log position, the
    tail last - what the archive indexes, read without flushing."""
    for number, segment in archive._segments.items():
        yield number, segment.rows, segment.postings, segment.dead
    yield (archive._tail_no, archive._tail, archive._tail_postings(),
           archive._tail_dead)


def assert_dead_sets_agree(archive):
    """The liveness invariant: a row is live iff the locator points at it
    iff its position's dead set does not hold it."""
    garbage = 0
    for number, rows, _, dead in positions(archive):
        ids = rows.column(SEG_ID)
        pointed = {row for row in range(rows.count)
                   if archive._locator.get(ids[row]) == number << 32 | row}
        assert dead == set(range(rows.count)) - pointed, number
        garbage += len(dead)
    assert garbage == archive._total_rows - len(archive._locator)


class TestSegmentIndex:
    """Pinned cases of the postings and dead sets: a re-appended id and
    racing first reads."""

    def test_reappended_id_supersedes_its_live_row(self):
        """Appending an id whose row is still live moves the locator off
        that row and puts it in its position's dead set: no read sees
        both rows."""
        archive = ColdArchive(segment_records=4, compact_dead_ratio=None)
        records = [make_record(i) for i in range(6)]
        for i, record in enumerate(records):
            archive.append(i, record)
        records[1] = make_record(9)  # another key, same id
        archive.append(1, records[1])
        assert_dead_sets_agree(archive)
        assert archive._segments[0].dead == {1}
        assert assert_scan_is_brute_force(archive, ScanSpec()) == \
            list(enumerate(records))

    def test_concurrent_first_reads_number_each_link_once(self):
        """Several callers may read at once, and the first
        link read after the tail grew numbers the links only the tail
        holds: racing readers must agree on one ordinal per link."""
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(100):
                archive = ColdArchive(segment_records=64)
                # distinct hosts: every path brings links not seen yet
                records = [make_record(i, src=f"h{trial}-{i}", dst=f"d{i % 7}")
                           for i in range(40)]
                for i, record in enumerate(records):
                    archive.append(i, record)  # all in the tail
                specs = [ScanSpec(links=(record.path[1:3],))
                         for record in records[:6]]
                start = threading.Barrier(6)
                got = [None] * 6

                def read(slot):
                    start.wait(timeout=10)
                    got[slot] = archive.scan(specs[slot])

                threads = [threading.Thread(target=read, args=(slot,))
                           for slot in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                ordinals = list(archive.links.ordinal.values())
                assert sorted(ordinals) == list(range(len(ordinals))), trial
                for spec, hits in zip(specs, got):
                    assert hits == brute_force(archive, spec), trial
        finally:
            sys.setswitchinterval(switch_interval)


def fold_rows(chunks):
    """The field tuples a fold yielded, sorted (a fold has no row order);
    no chunk may be empty and a chunk's sequences run in parallel."""
    rows = []
    for chunk in chunks:
        lengths = {len(values) for values in chunk}
        assert len(lengths) == 1 and lengths != {0}, chunk
        rows.extend(zip(*chunk))
    return sorted(rows)


class TestFoldSoundness:
    """The order-free column read's surface: every field from both tiers,
    shared path objects, unknown fields."""

    def test_every_column_field_reads_back_from_both_tiers(self):
        assert COLUMN_FIELDS == ("path", "stime", "etime", "bytes", "pkts")
        _, archive, records = fuzz_archive(4)
        want = sorted((r.path, r.stime, r.etime, r.bytes, r.pkts)
                      for _, r in brute_force(archive, ScanSpec()))
        assert fold_rows(archive.fold(ScanSpec(), COLUMN_FIELDS)) == want
        tib = Tib("h")
        tib.add_records(records)
        assert fold_rows(tib.fold(ScanSpec(), COLUMN_FIELDS)) == sorted(
            (r.path, r.stime, r.etime, r.bytes, r.pkts) for r in records)

    def test_path_column_is_one_object_per_distinct_path(self):
        """What lets an aggregate key on paths cheaply: a segment's rows
        share the path table's tuples."""
        archive = ColdArchive(segment_records=64)
        for i in range(64):
            archive.append(i, make_record(i))
        (paths,), = archive.fold(ScanSpec(), ("path",))
        assert len({id(path) for path in paths}) == len(set(paths)) == 15

    def test_unknown_fields_are_rejected_by_both_tiers(self):
        tib = Tib("h", retention=RetentionPolicy(max_records=4))
        for i in range(12):
            tib.add_record(make_record(i))
        for fields in (("flow",), ("bytes", "flow_id")):  # not stored as is
            with pytest.raises(KeyError):
                list(tib.fold(ScanSpec(), fields))
            with pytest.raises(KeyError):
                list(tib.archive.fold(ScanSpec(), fields))


class TestAggregateHandlersReadColumns:
    """``flow_size_distribution``, ``traffic_matrix`` and any keyed plan
    of stored columns fold them: a reversed window, degenerate paths and
    a fully-cold TIB."""

    @pytest.fixture(scope="class")
    def tibs(self):
        rng = random.Random(11)
        stream = [make_record(i, rng=rng) for i in range(300)]
        stream += [make_record(i, rng=rng) for i in rng.sample(range(300), 60)]
        for i, path in enumerate((("host-a0", "host-b"), ("host-b",), ())):
            # degenerate: scanned, but between no pair of ToRs
            stream.insert(50 * i, PathFlowRecord(
                FlowId("host-a0", "host-b", 50_000 + i, 80, PROTO_TCP),
                path, 12.0, 14.0, 640, 1))
        tibs = {"hot-only": Tib("h"),
                "spanning": Tib("h", retention=RetentionPolicy(max_records=40),
                                archive=ColdArchive(segment_records=16,
                                                    write_behind_records=32)),
                "fully-cold": Tib("h", retention=RetentionPolicy(max_records=0),
                                  archive=ColdArchive(segment_records=16))}
        for tib in tibs.values():
            tib.add_records(stream)
        spanning = tibs["spanning"]
        assert spanning.stats.promotions and spanning.record_count()
        assert not tibs["fully-cold"].record_count()
        return tibs

    def test_reversed_window_is_rejected(self, tibs):
        agent = SimpleNamespace(host="h", tib=tibs["spanning"])
        for name in (Q_FLOW_SIZE_DISTRIBUTION, Q_TRAFFIC_MATRIX):
            with pytest.raises(ValueError, match="precedes"):
                QueryEngine().execute(
                    agent, Query(name, {"time_range": (5.0, 1.0)}))

    def test_degenerate_rows_are_scanned_but_not_in_the_matrix(self, tibs):
        for tib in tibs.values():
            result = QueryEngine().execute(
                SimpleNamespace(host="h", tib=tib), Query(Q_TRAFFIC_MATRIX, {}))
            assert result.records_scanned == tib.total_record_count() == 303
            assert all(a in SWITCHES and b in SWITCHES
                       for a, b in result.payload)

    def test_no_cold_row_is_materialised(self, tibs):
        tib = tibs["fully-cold"]
        tib.reset_stats()
        engine = QueryEngine()
        agent = SimpleNamespace(host="h", tib=tib)
        engine.execute(agent, Query(Q_FLOW_SIZE_DISTRIBUTION, {}))
        engine.execute(agent, Query(Q_TRAFFIC_MATRIX, {}))
        stats = tib.tier_stats()
        assert stats["segment_decodes"] > 0
        assert stats["entries_decoded"] == 0

    def test_a_plan_sum_by_path_decodes_no_cold_entry(self, tibs):
        """The per-path byte read of a load-imbalance diagnosis, as a
        ``Q_PLAN``: answered off the columns, sorted by path, with its
        per-plan stats saying no cold entry was decoded."""
        tib = tibs["fully-cold"]
        tib.reset_stats()
        plan = Plan(ops=(Filter(start=0.0), Aggregate(
            func="sum", fields=("bytes",), by=("path",))))
        result = QueryEngine().execute(SimpleNamespace(host="h", tib=tib),
                                       Query(Q_PLAN, {"plan": plan}))
        assert result.scan_stats["cold_entries_decoded"] == 0
        assert tib.tier_stats()["entries_decoded"] == 0
        assert result.records_scanned == tib.total_record_count() == 303
        want = reference_evaluate(tib.records(), plan)
        assert list(result.payload.items()) == sorted(want.items())


class TestCompaction:
    def test_garbage_free_prefix_is_kept_as_it_is(self):
        archive = ColdArchive(segment_records=8, compact_dead_ratio=None)
        records = [make_record(i) for i in range(40)]
        for i, record in enumerate(records):
            archive.append(i, record)
        untouched = [archive._segments[n].rows.data for n in (0, 1)]
        archive.take((flow_key(records[20].flow_id), records[20].path))
        archive.compact()
        assert [archive._segments[n].rows.data for n in (0, 1)] == untouched
        assert [i for i, _ in archive.scan(ScanSpec())] == \
            [i for i in range(40) if i != 20]


class TestScanResultsNeverAlias:
    """Promotions merge into records in place, so a record a scan handed
    out must not be the object a later promotion mutates - for a sealed
    row and for a tail row."""

    @pytest.mark.parametrize("sealed", [True, False])
    def test_held_record_survives_a_merge_upsert(self, sealed):
        archive = ColdArchive(segment_records=4 if sealed else 64)
        tib = Tib("h", retention=RetentionPolicy(max_records=2),
                  archive=archive)
        first = make_record(0, stime=1.0, etime=2.0, nbytes=100)
        tib.add_record(first)
        for i in range(1, 9):
            tib.add_record(make_record(i, stime=10.0 + i, etime=11.0 + i))
        key = (flow_key(first.flow_id), first.path)
        assert archive.lookup(key) is not None
        held = next(r for _, r in archive.scan(ScanSpec())
                    if r.flow_id == first.flow_id and r.path == first.path)
        assert (archive.segment_count > 0) == sealed
        assert archive.staged_count == 0  # the scan flushed: a log row
        snapshot = record_values([held])
        tib.add_record(PathFlowRecord(first.flow_id, first.path, 0.5, 30.0,
                                      50, 1))
        assert tib.stats.promotions == 1
        assert get_count(tib, first.flow_id) == (150, 3)
        assert record_values([held]) == snapshot
        again = archive.scan(ScanSpec())
        assert all(r is not held for _, r in again)


class TestDeterminism:
    def test_same_stream_yields_byte_equal_segments(self):
        """Dictionaries are in first-appearance order, never set order, so
        a worker's segment bytes equal its controller mirror's."""
        blobs = []
        for _ in range(2):
            _, archive, _ = fuzz_archive(7)
            archive.compact()
            blobs.append(([segment.rows.data
                           for segment in archive._segments.values()],
                          archive._tail.pack(), archive.archive_bytes()))
        assert blobs[0] == blobs[1]
        assert len(blobs[0][0]) > 2


class TestClusterCrossModeIdentity:
    """Spanning scans and folds answer byte-identically to an uncapped
    cluster in every mode - serial, process, socket."""

    QUERIES = [
        Query(Q_GET_FLOWS, {}),
        Query(Q_GET_FLOWS, {"time_range": (10.0, 60.0)}),
        Query(Q_GET_FLOWS, {"link": ("leaf-0", None)}),
        Query(Q_TOP_K_FLOWS, {"k": 30, "time_range": (10.0, 60.0)}),
        # Unconstrained: slices of each TIB's flow ranking.
        Query(Q_TOP_K_FLOWS, {"k": 30}),
        Query(Q_TOP_K_FLOWS, {"k": 10_000}),  # more than every flow
        Query(Q_FLOW_SIZE_DISTRIBUTION, {
            "links": [("leaf-0", None), None], "binsize": 4000}),
        Query(Q_FLOW_SIZE_DISTRIBUTION, {
            "link": (None, "leaf-1"), "time_range": (10.0, 60.0)}),
        Query(Q_TRAFFIC_MATRIX, {}),
        Query(Q_TRAFFIC_MATRIX, {"time_range": (10.0, 60.0)}),
    ]

    def test_capped_identical_to_uncapped_across_executors(self):
        plain = QueryCluster(small_topology())
        capped = QueryCluster(small_topology(),
                              retention=RetentionPolicy(max_records=HOT_CAP))
        populate(plain)
        populate(capped)
        try:
            references = [wire.encode_value(plain.execute(q).payload)
                          for q in self.QUERIES]
            for mode in (MODE_SERIAL, MODE_PROCESS, MODE_SOCKET):
                capped.configure_executor(mode=mode)
                for query, want in zip(self.QUERIES, references):
                    result = capped.execute(query)
                    assert not result.partial
                    assert wire.encode_value(result.payload) == want, \
                        f"{query.name} {mode}"
        finally:
            plain.close()
            capped.close()

    def test_kill_with_staged_evictions_in_flight(self):
        """A worker killed with mirrored ingest - staged evictions
        included - still in the outbox: the envelope that would have
        carried it is dropped, the restart re-seeds from the local TIB,
        the flush barrier settles both sides, and answers stay
        byte-identical."""
        query = Query(Q_GET_FLOWS, {})
        with QueryCluster(small_topology(),
                          retention=RetentionPolicy(max_records=8)) as plain:
            populate(plain, records_per_host=25)
            reference = wire.encode_value(plain.execute(query).payload)
        # The kill lands on the first envelope after the pool is up: the
        # outbox flush ahead of the first probe.
        chaos = ChaosPolicy(kill_at_frame={"group-1": STARTUP_FRAMES + 1})
        cluster = QueryCluster(small_topology(), supervisor=Supervisor(FAST),
                               chaos=chaos,
                               retention=RetentionPolicy(max_records=8))
        try:
            populate(cluster, records_per_host=20)
            cluster.configure_executor(mode=MODE_PROCESS)
            host = "server-1"
            agent = cluster.agent(host)
            index = cluster.hosts.index(host)
            src = cluster.hosts[(index + 1) % len(cluster.hosts)]
            for flow in range(20, 25):  # mirrored: queued on the outbox
                record = PathFlowRecord(
                    FlowId(src, host, 30_000 + flow, 80, PROTO_TCP),
                    (src, f"leaf-{index // 2}", host), float(flow),
                    flow + 0.5, 1000 * (flow + 1), flow + 1)
                agent.ingest_path_record(record)
            for other_index, other in enumerate(cluster.hosts):
                if other == host:
                    continue
                other_src = cluster.hosts[(other_index + 1) %
                                          len(cluster.hosts)]
                for flow in range(20, 25):
                    cluster.agent(other).ingest_path_record(PathFlowRecord(
                        FlowId(other_src, other, 30_000 + flow, 80,
                               PROTO_TCP),
                        (other_src, f"leaf-{other_index // 2}", other),
                        float(flow), flow + 0.5, 1000 * (flow + 1),
                        flow + 1))
            pool = cluster.agent_servers
            assert not chaos.injected  # nothing has left the controller
            with pytest.raises(AgentServerError):
                pool.ping(host)  # its flush is the killed frame
            assert chaos.injected
            assert pool.stats.restarts == 1
            assert pool.stats.mirror_detaches == 0
            # the pong flush barrier settles the worker's cold tier too
            local = cluster.tier_report()
            remote = cluster.tier_report(from_workers=True)
            for key in ("hot_records", "hot_bytes", "cold_records",
                        "cold_bytes"):
                assert remote[key] == local[key], key
            for mode in (MODE_PROCESS, MODE_SERIAL):
                cluster.configure_executor(mode=mode)
                result = cluster.execute(query)
                assert not result.partial
                assert wire.encode_value(result.payload) == reference, mode
        finally:
            cluster.close()


class TestReportConsolidation:
    @pytest.fixture()
    def controller(self):
        cluster = QueryCluster(small_topology(),
                               retention=RetentionPolicy(max_records=HOT_CAP))
        populate(cluster)
        controller = PathDumpController(cluster)
        yield controller
        cluster.close()

    def test_report_has_every_section_in_order(self, controller):
        report = controller.report()
        assert list(report) == ["storage", "tier", "recovery"]
        assert report["storage"]["tib_archive"] > 0
        assert report["tier"]["cold_records"] > 0
        assert report["recovery"]["restarts"] == 0

    def test_sections_filter(self, controller):
        report = controller.report(sections=("tier",))
        assert list(report) == ["tier"]
        # order is canonical regardless of how sections are spelled
        report = controller.report(sections=("recovery", "storage"))
        assert list(report) == ["storage", "recovery"]

    def test_unknown_section_rejected(self, controller):
        with pytest.raises(ValueError, match="unknown report section"):
            controller.report(sections=("tier", "bogus"))

    def test_old_methods_delegate(self, controller):
        assert controller.storage_report() == \
            controller.report()["storage"]
        assert controller.tier_report() == controller.report()["tier"]
        assert controller.recovery_report() == \
            controller.report()["recovery"]

    def test_pruning_counters_land_in_the_tier_section(self, controller):
        controller.reset_stats()
        controller.execute(None, Query(Q_GET_FLOWS,
                                       {"time_range": (0.0, 5.0)}))
        tier = controller.report(sections=("tier",))["tier"]
        assert tier["segment_decodes"] >= 0
        assert "segments_skipped" in tier
        assert "entries_decoded" in tier
        assert "write_behind_flushes" in tier
        controller.reset_stats()
        tier = controller.report(sections=("tier",))["tier"]
        assert tier["segments_skipped"] == 0
        assert tier["entries_decoded"] == 0
        assert tier["write_behind_records"] == 0
