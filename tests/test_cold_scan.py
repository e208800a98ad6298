"""Tests for the cold-tier query engine behind the unified ScanSpec API.

Covers: ScanSpec normalisation and its exact match predicate, the
write-behind buffer and its flush barrier, pruning soundness (seeded fuzz
comparing the pruned scan against brute-force segment decode - a pruned
segment must never hide a matching entry), segment-parallel scans being
byte-identical to serial ones (archive-level and whole-cluster across
serial / thread / process modes, including a kill while staged evictions
are in flight), and the consolidated ``controller.report(sections=...)``.
"""

import random

import pytest

from repro.core import (AgentServerError, MODE_CONCURRENT, MODE_PROCESS,
                        MODE_SERIAL, PathDumpController, Q_GET_FLOWS,
                        Q_TOP_K_FLOWS, Query, QueryCluster, Tib, wire)
from repro.core.supervisor import ChaosPolicy, Supervisor
from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import ColdArchive, PathFlowRecord, RetentionPolicy, ScanSpec
from repro.storage.records import flow_key
from test_supervisor import FAST, STARTUP_FRAMES, small_topology
from test_two_tier_tib import HOT_CAP, make_record, populate, record_values


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

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            ScanSpec(limit=-1)

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
        assert archive.stats["appends"] == 0

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
        assert archive.stats["takes"] == 1
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
        assert archive.stats["flushes"] == 1
        assert archive.stats["flushed_records"] == 5

    def test_buffer_bound_forces_inline_flush(self):
        archive = ColdArchive(write_behind_records=4)
        for i in range(4):
            archive.stage(i, make_record(i))
        assert archive.staged_count == 0  # the 4th stage flushed inline
        assert archive.stats["flushes"] == 1
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
    """Reference scan: decode *every* log entry, fold latest-per-id, filter
    with the spec's exact predicate.  No pruning, no lazy decode."""
    archive.flush()
    latest = {}
    blobs = [segment.data for segment in archive._segments]
    blobs.append(archive._active)
    for data in blobs:
        for record_id, record in wire.iter_record_entries(data):
            latest[record_id] = record
    return sorted((record_id, record)
                  for record_id, record in latest.items()
                  if record_id not in archive._dead and spec.matches(record))


def fuzz_specs(rng, records):
    """A generous mix of windows, links, flow keys and conjunctions."""
    sample = rng.choice(records)
    a, b = sample.path[1], sample.path[2]
    fkey = flow_key(sample.flow_id)
    times = sorted((rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)))
    return [
        ScanSpec(),
        ScanSpec(start=times[0], end=times[1]),
        ScanSpec(start=times[1]),
        ScanSpec(end=times[0]),
        ScanSpec(links=((a, b),)),
        ScanSpec(links=((b, a),)),
        ScanSpec(links=((a, None),)),
        ScanSpec(links=(("no-such-switch", None),)),
        ScanSpec(links=((a, "no-such-switch"),)),
        ScanSpec(flow_keys=frozenset((fkey,))),
        ScanSpec(flow_keys=frozenset((fkey, "no:1|such:2|6"))),
        ScanSpec(flow_keys=frozenset(("no:1|such:2|6",))),
        ScanSpec(start=times[0], end=times[1], links=((a, b),)),
        ScanSpec(start=times[0], end=times[1],
                 flow_keys=frozenset((fkey,))),
        ScanSpec(links=((a, b), (None, sample.path[0]))),
        ScanSpec(start=times[0], end=times[1], links=((a, None),),
                 flow_keys=frozenset((fkey,))),
        ScanSpec(limit=3),
        ScanSpec(start=times[0], limit=5),
    ]


class TestPruningSoundnessFuzz:
    """The acceptance property of zone-map/bloom pruning: a pruned segment
    must never contain a matching entry.  Equality with the brute-force
    decode proves exactly that - any unsound prune would lose a hit."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_pruned_scan_matches_brute_force(self, seed):
        rng = random.Random(seed)
        archive = ColdArchive(segment_records=16,
                              compact_dead_ratio=None)
        records = []
        for i in range(240):
            record = make_record(i, rng=rng)
            records.append(record)
            archive.append(i, record)
        # churn: promote a slice and re-archive half of it (tombstones +
        # superseded duplicates must not confuse pruning)
        for i in rng.sample(range(240), 40):
            record = records[i]
            key = (flow_key(record.flow_id), record.path)
            if archive.lookup(key) is None:
                continue
            taken_id, taken = archive.take(key)
            if rng.random() < 0.5:
                merged = PathFlowRecord(taken.flow_id, taken.path,
                                        taken.stime - rng.uniform(0.0, 5.0),
                                        taken.etime + rng.uniform(0.0, 5.0),
                                        taken.bytes + 1, taken.pkts + 1)
                archive.append(taken_id, merged)
        archive.reset_stats()
        for round_ in range(6):
            for spec in fuzz_specs(rng, records):
                want = brute_force(archive, spec)
                if spec.limit is not None:
                    want = want[:spec.limit]
                got = archive.scan(spec)
                assert record_values(r for _, r in got) == \
                    record_values(r for _, r in want), spec
                assert [i for i, _ in got] == [i for i, _ in want], spec
        # the test is not vacuous: pruning fired and decode work was saved
        assert archive.stats["segments_skipped"] > 0
        assert archive.stats["entries_skipped"] > 0
        assert archive.stats["entries_decoded"] > 0

    def test_pruning_counters_reset(self):
        archive = ColdArchive(segment_records=8)
        for i in range(40):
            archive.append(i, make_record(i, stime=float(i),
                                          etime=float(i) + 1.0))
        archive.scan(ScanSpec(start=0.0, end=2.0))
        assert archive.stats["segments_skipped"] > 0
        archive.reset_stats()
        assert archive.stats["segments_skipped"] == 0
        assert archive.stats["entries_decoded"] == 0

    def test_search_wrapper_is_scan(self):
        archive = ColdArchive(segment_records=8)
        for i in range(40):
            archive.append(i, make_record(i))
        target = make_record(3)
        fkey = flow_key(target.flow_id)
        with pytest.warns(DeprecationWarning, match="ScanSpec"):
            legacy = archive.search(fkey=fkey, start=0.0, end=50.0)
        assert legacy == archive.scan(ScanSpec(start=0.0, end=50.0,
                                               flow_keys=frozenset((fkey,))))
        with pytest.warns(DeprecationWarning):
            legacy_all = archive.search()
        assert legacy_all == archive.scan(ScanSpec())


class TestSegmentParallelScan:
    def _filled(self, count=200):
        rng = random.Random(11)
        archive = ColdArchive(segment_records=16)
        records = [make_record(i, rng=rng) for i in range(count)]
        for i, record in enumerate(records):
            archive.append(i, record)
        return archive, records

    def test_parallel_identical_to_serial(self):
        archive, records = self._filled()
        rng = random.Random(12)
        specs = fuzz_specs(rng, records) + fuzz_specs(rng, records)
        serial = [archive.scan(spec) for spec in specs]
        archive.configure_scan(mode="concurrent", max_workers=4)
        parallel = [archive.scan(spec) for spec in specs]
        assert [record_values(r for _, r in hits) for hits in parallel] == \
            [record_values(r for _, r in hits) for hits in serial]
        archive.configure_scan(mode="serial")
        assert archive._scan_executor is None

    def test_parallel_scan_stats_match_serial(self):
        """Stats fold in the caller's thread, so the pruning counters are
        deterministic even for a concurrent scan."""
        spec = ScanSpec(start=0.0, end=10.0)
        baseline, _ = self._filled()
        baseline.reset_stats()
        baseline.scan(spec)
        archive, _ = self._filled()
        archive.configure_scan(mode="concurrent", max_workers=4)
        archive.reset_stats()
        archive.scan(spec)
        for key in ("segments_skipped", "segment_decodes",
                    "entries_decoded", "entries_skipped"):
            assert archive.stats[key] == baseline.stats[key], key


class TestClusterParallelIdentity:
    """Spanning scans - segment-parallel and serial - answer every mode
    byte-identically (the tentpole's identity criterion)."""

    QUERIES = [
        Query(Q_GET_FLOWS, {}),
        Query(Q_GET_FLOWS, {"time_range": (10.0, 60.0)}),
        Query(Q_GET_FLOWS, {"link": ("leaf-0", None)}),
        Query(Q_TOP_K_FLOWS, {"k": 30, "time_range": (10.0, 60.0)}),
    ]

    def test_parallel_cold_scans_identical_across_modes(self):
        plain = QueryCluster(small_topology())
        capped = QueryCluster(small_topology(),
                              retention=RetentionPolicy(max_records=HOT_CAP))
        populate(plain)
        populate(capped)
        try:
            references = [wire.encode_value(plain.execute(q).payload)
                          for q in self.QUERIES]
            for scan_mode in ("serial", "concurrent"):
                capped.configure_cold_scan(scan_mode, max_workers=4)
                for mode in (MODE_SERIAL, MODE_CONCURRENT, MODE_PROCESS):
                    capped.configure_executor(mode=mode)
                    for query, want in zip(self.QUERIES, references):
                        result = capped.execute(query)
                        assert not result.partial
                        assert wire.encode_value(result.payload) == want, \
                            f"{query.name} {scan_mode} {mode}"
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
            for mode in (MODE_PROCESS, MODE_SERIAL, MODE_CONCURRENT):
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

    def test_controller_exposes_the_scan_knob(self, controller):
        controller.configure_cold_scan("concurrent", max_workers=2)
        query = Query(Q_GET_FLOWS, {"time_range": (10.0, 60.0)})
        serial_payload = None
        for _ in range(2):
            result = controller.execute(None, query)
            payload = wire.encode_value(result.payload)
            serial_payload = serial_payload or payload
            assert payload == serial_payload
        controller.configure_cold_scan("serial")
