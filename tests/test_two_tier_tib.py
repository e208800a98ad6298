"""Tests for the two-tier TIB: bounded hot memory + log-structured archive.

Covers: the retention bound holding under sustained ingest (10x the cap),
query payloads byte-identical between capped and uncapped TIBs
(whole-cluster across serial and process mode), the
promote-on-merge upsert path, the archive's segment/sparse-index/compaction
mechanics, and the tier stats travelling over the wire protocol.
"""

import random

import pytest

from repro.core import (MECHANISM_DIRECT, MECHANISM_MULTILEVEL,
                        MODE_PROCESS, MODE_SERIAL, Q_FLOW_SIZE_DISTRIBUTION,
                        Q_GET_COUNT, Q_GET_DURATION, Q_GET_FLOWS, Q_GET_PATHS,
                        Q_TOP_K_FLOWS, Q_TRAFFIC_MATRIX, Query, QueryCluster,
                        Tib, wire)
from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import ColdArchive, PathFlowRecord, RetentionPolicy
from repro.storage.archive import ArchiveKey  # noqa: F401  (public name)
from repro.storage.records import ScanSpec, flow_key
from test_supervisor import small_topology
from test_tib import get_count

SWITCHES = ("s0", "s1", "s2")


def make_record(i, rng=None, src=None, dst="host-b", stime=None, etime=None,
                nbytes=None):
    rng = rng or random.Random(i)
    src = src or f"host-a{i % 5}"
    stime = rng.uniform(0.0, 40.0) if stime is None else stime
    etime = stime + rng.uniform(0.0, 10.0) if etime is None else etime
    flow_id = FlowId(src, dst, 20_000 + i % 23, 80, PROTO_TCP)
    path = (src, SWITCHES[i % 3], SWITCHES[(i + 1) % 3], dst)
    return PathFlowRecord(flow_id, path, stime, etime,
                          nbytes if nbytes is not None else 100 * (i + 1), 2)


def record_values(records):
    return [(r.flow_id, r.path, r.stime, r.etime, r.bytes, r.pkts)
            for r in records]


class TestRetentionBounds:
    def test_record_cap_holds_under_10x_ingest(self):
        cap = 50
        tib = Tib("h", retention=RetentionPolicy(max_records=cap))
        for i in range(10 * cap):
            tib.add_record(make_record(i))
        assert tib.record_count() <= cap
        assert tib.total_record_count() > cap
        assert tib.archive.live_count == tib.total_record_count() - \
            tib.record_count()
        # every record beyond the cap was aged out at least once
        assert tib.stats.evictions >= tib.total_record_count() - cap
        assert tib.archive_bytes() > 0

    def test_byte_cap_holds_under_10x_ingest(self):
        probe = Tib("probe")
        for i in range(40):
            probe.add_record(make_record(i))
        cap_bytes = probe.estimated_bytes()  # ~40 records worth
        tib = Tib("h", retention=RetentionPolicy(max_bytes=cap_bytes))
        for i in range(400):
            tib.add_record(make_record(i))
        assert tib.estimated_bytes() <= cap_bytes
        assert tib.total_record_count() > tib.record_count()

    def test_oldest_etime_records_age_out_first(self):
        tib = Tib("h", retention=RetentionPolicy(max_records=4))
        for i in range(12):
            tib.add_record(make_record(i, stime=float(i), etime=float(i)))
        hot_etimes = [r.etime for r in tib._cache.values()]
        cold_etimes = [r.etime for _, r in tib.archive.scan(ScanSpec())]
        assert min(hot_etimes) > max(cold_etimes)

    def test_configure_retention_later_enforces_immediately(self):
        tib = Tib("h")
        for i in range(30):
            tib.add_record(make_record(i))
        assert tib.archive is None
        tib.configure_retention(max_records=10)
        assert tib.archive.links is tib.links  # one numbering, both tiers
        assert tib.record_count() <= 10
        assert tib.total_record_count() == 30

    def test_unbounding_stops_aging_but_keeps_spanning(self):
        tib = Tib("h", retention=RetentionPolicy(max_records=5))
        for i in range(20):
            tib.add_record(make_record(i))
        cold_before = tib.archive.live_count
        tib.configure_retention()  # both bounds off
        tib.add_record(make_record(999))
        assert tib.archive.live_count == cold_before
        assert tib.total_record_count() == 21

    def test_clear_drops_both_tiers(self):
        tib = Tib("h", retention=RetentionPolicy(max_records=5))
        for i in range(20):
            tib.add_record(make_record(i))
        tib.clear()
        assert tib.record_count() == 0
        assert tib.total_record_count() == 0
        assert tib.archive_bytes() == 0

    def test_reset_stats_zeroes_tier_counters(self):
        tib = Tib("h", retention=RetentionPolicy(max_records=5))
        for i in range(20):
            tib.add_record(make_record(i))
        assert tib.stats.evictions > 0
        tib.reset_stats()
        stats = tib.tier_stats()
        assert stats["evictions"] == 0
        assert stats["promotions"] == 0
        assert tib.archive.stats.appends == 0
        # data survives a stats reset
        assert stats["cold_records"] > 0


class TestPromotion:
    def test_merge_into_archived_key_promotes_and_merges(self):
        capped = Tib("c", retention=RetentionPolicy(max_records=3))
        plain = Tib("p")
        first = make_record(0, stime=1.0, etime=2.0, nbytes=100)
        capped.add_record(first)
        plain.add_record(first)
        # push the first record into the archive
        for i in range(1, 10):
            filler = make_record(i, stime=10.0 + i, etime=11.0 + i)
            capped.add_record(filler)
            plain.add_record(filler)
        key = (flow_key(first.flow_id), first.path)
        assert capped.archive.lookup(key) is not None
        # a new record for the same (flow, path) must merge, not duplicate
        update = PathFlowRecord(first.flow_id, first.path, 0.5, 30.0, 50, 1)
        capped.add_record(update)
        plain.add_record(update)
        assert capped.stats.promotions == 1
        assert record_values(capped.records()) == record_values(
            plain.records())
        nbytes, pkts = get_count(capped, first.flow_id)
        assert (nbytes, pkts) == get_count(plain, first.flow_id)

class TestColdArchiveUnit:
    def _fill(self, archive, count, **kwargs):
        for i in range(count):
            record = make_record(i, stime=float(i), etime=float(i) + 1.0)
            archive.append(i, record)

    def test_segments_seal_at_target(self):
        archive = ColdArchive(segment_records=10)
        self._fill(archive, 35)
        assert archive.segment_count == 3
        assert archive.live_count == 35
        assert archive.archive_bytes() > 0

    def test_sparse_index_prunes_segments(self):
        archive = ColdArchive(segment_records=10)
        self._fill(archive, 40)
        archive.stats.reset()
        # A window covering only the first segment decodes only it (the
        # active buffer holds entries 40..; segments are [0..9], [10..19]...)
        hits = archive.scan(ScanSpec(start=0.0, end=5.0))
        assert [record_id for record_id, _ in hits] == list(range(6))
        assert archive.stats.segment_decodes == 1

    def test_flow_key_pruning(self):
        archive = ColdArchive(segment_records=5)
        self._fill(archive, 20)
        archive.stats.reset()
        target = make_record(3)
        fkey = flow_key(target.flow_id)
        hits = archive.scan(ScanSpec(flow_keys=frozenset((fkey,))))
        assert hits and all(flow_key(r.flow_id) == fkey for _, r in hits)
        assert archive.stats.segment_decodes <= archive.segment_count

    def test_take_tombstones_and_compaction_reclaims(self):
        archive = ColdArchive(segment_records=8, compact_dead_ratio=0.25)
        # enough entries to clear the auto-compaction minimum
        for i in range(80):
            archive.append(i, make_record(i, stime=float(i),
                                          etime=float(i) + 1.0))
        bytes_before = archive.archive_bytes()
        keys = [(flow_key(make_record(i).flow_id), make_record(i).path)
                for i in range(30)]
        for key in keys:
            archive.take(key)
        assert archive.stats.compactions >= 1
        assert archive.live_count == 50
        assert archive.archive_bytes() < bytes_before
        # compaction keeps the dead fraction below the trigger threshold
        assert archive.dead_ratio < archive.compact_dead_ratio

    def test_promotion_churn_does_not_grow_log_unboundedly(self):
        """Regression: entries superseded by re-archival of a promoted id
        count as garbage toward the compaction trigger, so a cyclic
        promote/re-evict workload cannot grow the log without bound."""
        capped = Tib("c", retention=RetentionPolicy(max_records=2))
        base = [make_record(i, stime=1.0 + i, etime=2.0 + i)
                for i in range(70)]
        for record in base:
            capped.add_record(record)
        settled = capped.archive_bytes()  # flush barrier included
        # cyclically touch aged-out keys: each touch promotes + re-evicts.
        # Flush between rounds: churn the write-behind buffer absorbs never
        # creates log garbage at all, and this regression is about *logged*
        # churn growing the segments.
        for round_ in range(12):
            for record in base:
                update = PathFlowRecord(record.flow_id, record.path,
                                        record.stime,
                                        record.etime + round_ + 1, 1, 1)
                capped.add_record(update)
            capped.flush_archive()
        assert capped.archive.stats.compactions > 0
        live = capped.archive.live_count
        # the log may carry garbage up to the compaction threshold plus an
        # unsealed tail, but not the 12x churn history
        assert capped.archive.archive_bytes() < 3 * settled
        assert capped.archive.dead_ratio < capped.archive.compact_dead_ratio
        assert live == capped.total_record_count() - capped.record_count()

    def test_rearchived_id_latest_entry_wins(self):
        archive = ColdArchive(segment_records=4)
        old = make_record(0, stime=1.0, etime=2.0, nbytes=10)
        archive.append(7, old)
        key = (flow_key(old.flow_id), old.path)
        taken_id, taken = archive.take(key)
        assert taken_id == 7 and taken.bytes == 10
        newer = PathFlowRecord(old.flow_id, old.path, 0.5, 9.0, 99, 3)
        archive.append(7, newer)
        hits = archive.scan(ScanSpec())
        assert [(record_id, r.bytes) for record_id, r in hits
                if record_id == 7] == [(7, 99)]
        _, got = archive.take(key)
        assert got.bytes == 99


HOT_CAP = 12
RECORDS_PER_HOST = 10 * HOT_CAP  # the acceptance criterion's 10x ingest


def populate(cluster, records_per_host=RECORDS_PER_HOST):
    hosts = cluster.hosts
    for index, host in enumerate(hosts):
        agent = cluster.agent(host)
        src = hosts[(index + 1) % len(hosts)]
        for flow in range(records_per_host):
            flow_id = FlowId(src, host, 30_000 + flow, 80, PROTO_TCP)
            record = PathFlowRecord(
                flow_id, (src, f"leaf-{index // 2}", host), float(flow),
                flow + 0.5, 1000 * (flow + 1), flow + 1)
            agent.ingest_path_record(record)


CLUSTER_QUERIES = [
    (Q_GET_FLOWS, {}),
    (Q_GET_FLOWS, {"time_range": (10.0, 60.0)}),
    (Q_TOP_K_FLOWS, {"k": 30}),
    (Q_TOP_K_FLOWS, {"k": 30, "time_range": (10.0, 60.0)}),
    (Q_FLOW_SIZE_DISTRIBUTION, {"links": [None], "binsize": 4000}),
    (Q_TRAFFIC_MATRIX, {}),
]


class TestClusterTwoTier:
    """The acceptance criterion end to end: 10x-cap ingest stays bounded
    and every built-in query's payload is byte-identical to an uncapped
    cluster's, across serial and process mode."""

    @pytest.fixture()
    def clusters(self):
        capped = QueryCluster(small_topology(),
                              retention=RetentionPolicy(max_records=HOT_CAP))
        plain = QueryCluster(small_topology())
        populate(capped)
        populate(plain)
        yield capped, plain
        capped.close()
        plain.close()

    def test_hot_tier_bounded_after_10x_ingest(self, clusters):
        capped, _ = clusters
        for host in capped.hosts:
            tib = capped.agent(host).tib
            assert tib.record_count() <= HOT_CAP
            assert tib.total_record_count() == RECORDS_PER_HOST
        report = capped.tier_report()
        assert report["hot_records"] <= HOT_CAP * len(capped.hosts)
        assert report["cold_records"] == \
            (RECORDS_PER_HOST - HOT_CAP) * len(capped.hosts)

    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    @pytest.mark.parametrize("name,params", CLUSTER_QUERIES)
    def test_capped_payloads_identical_across_modes(self, clusters,
                                                    mechanism, name, params):
        capped, plain = clusters
        query = Query(name, dict(params))
        reference = plain.execute(query, mechanism=mechanism)
        expected = wire.encode_value(reference.payload)
        for mode in (MODE_SERIAL, MODE_PROCESS):
            capped.configure_executor(mode=mode)
            result = capped.execute(query, mechanism=mechanism)
            assert wire.encode_value(result.payload) == expected, \
                f"{name} {mechanism} {mode}"
            assert not result.partial

    def test_per_flow_builtins_identical(self, clusters):
        """The scalar built-ins (paths/count/duration) answer identically
        from a capped host - in-process and on its worker over the wire."""
        capped, plain = clusters
        host = capped.hosts[0]
        flow_id = next(iter(r.flow_id
                            for r in plain.agent(host).tib.records()))
        capped.configure_executor(mode=MODE_PROCESS)
        pool = capped.agent_servers
        for name, params in [
                (Q_GET_PATHS, {"flow_id": flow_id}),
                (Q_GET_COUNT, {"flow": flow_id}),
                (Q_GET_COUNT, {"flow": flow_id, "time_range": (10.0, 60.0)}),
                (Q_GET_DURATION, {"flow": flow_id,
                                  "time_range": (10.0, 60.0)})]:
            query = Query(name, params)
            want = wire.encode_value(
                plain.agent(host).execute_query(query).payload)
            local = wire.encode_value(
                capped.agent(host).execute_query(query).payload)
            remote = wire.encode_value(pool.query(host, query).payload)
            assert local == want, name
            assert remote == want, name

    def test_worker_tier_stats_match_local_mirror(self, clusters):
        capped, _ = clusters
        capped.configure_executor(mode=MODE_PROCESS)
        local = capped.tier_report()
        remote = capped.tier_report(from_workers=True)
        for key in ("hot_records", "hot_bytes", "cold_records", "cold_bytes"):
            assert remote[key] == local[key], key
        assert remote["hot_records"] <= HOT_CAP * len(capped.hosts)

    def test_mirrored_ingest_keeps_tiers_identical(self, clusters):
        """Records ingested after the workers started (through the record
        sink mirror) age identically on both sides, including the
        promote-on-merge path."""
        capped, _ = clusters
        capped.configure_executor(mode=MODE_PROCESS)
        host = capped.hosts[0]
        agent = capped.agent(host)
        src = capped.hosts[1]
        # one brand-new record and one merging into an archived key
        fresh = PathFlowRecord(
            FlowId(src, host, 40_000, 80, PROTO_TCP),
            (src, "leaf-0", host), 200.0, 201.0, 5, 1)
        merging = PathFlowRecord(
            FlowId(src, host, 30_000, 80, PROTO_TCP),
            (src, "leaf-0", host), 0.0, 300.0, 7, 1)
        agent.ingest_path_record(fresh)
        agent.ingest_path_record(merging)
        local = capped.tier_report()
        remote = capped.tier_report(from_workers=True)
        for key in ("hot_records", "hot_bytes", "cold_records", "cold_bytes"):
            assert remote[key] == local[key], key

    def test_configure_retention_reaches_workers(self, clusters):
        capped, _ = clusters
        capped.configure_executor(mode=MODE_PROCESS)
        capped.configure_retention(max_records=5)
        local = capped.tier_report()
        remote = capped.tier_report(from_workers=True)
        assert local["hot_records"] <= 5 * len(capped.hosts)
        assert remote["hot_records"] == local["hot_records"]
        assert remote["cold_records"] == local["cold_records"]

    def test_controller_exposes_the_knobs(self, clusters):
        from repro.core import PathDumpController
        capped, _ = clusters
        controller = PathDumpController(capped)
        controller.configure_retention(max_records=6)
        report = controller.tier_report()
        assert report["hot_records"] <= 6 * len(capped.hosts)
        controller.reset_stats()
        assert controller.tier_report()["evictions"] == 0


class TestDebugAppsUnderCap:
    """The debugging applications' assumptions survive the tier split: a
    capped deployment reaches the same diagnosis as an uncapped one."""

    def test_path_conformance_diagnosis_unchanged(self):
        from repro.debug.path_conformance import (
            run_path_conformance_experiment)
        plain = run_path_conformance_experiment(k=4, seed=3)
        capped = run_path_conformance_experiment(
            k=4, seed=3, retention=RetentionPolicy(max_records=5))
        assert plain.violation_detected
        assert capped.violation_detected == plain.violation_detected
        assert capped.detection_paths == plain.detection_paths
        assert [(a.flow_id, a.reason, a.paths) for a in capped.alarms] == \
            [(a.flow_id, a.reason, a.paths) for a in plain.alarms]

    def test_blackhole_diagnosis_unchanged(self):
        from repro.debug.blackhole import run_blackhole_experiment
        plain = run_blackhole_experiment(k=4, seed=3, background_flows=40)
        capped = run_blackhole_experiment(
            k=4, seed=3, background_flows=40,
            retention=RetentionPolicy(max_records=8))
        assert capped.diagnosis.missing_paths == plain.diagnosis.missing_paths
        assert capped.diagnosis.prioritized_switches == \
            plain.diagnosis.prioritized_switches
        assert capped.diagnosis.observed_paths == \
            plain.diagnosis.observed_paths


class TestSnapshotSyncWithPromotionHistory:
    """Hardest sync case: promotions happened *before* the workers started
    (the local archive log carries tombstoned garbage), then mirrored
    ingest keeps promoting on both sides.  Payloads, result frames and
    measured tier stats must all stay identical - the pool start compacts
    the local log so the worker's replayed archive is its byte-equal
    twin."""

    def test_payloads_frames_and_tiers_stay_identical(self):
        cluster = QueryCluster(small_topology(2),
                               retention=RetentionPolicy(max_records=6))
        rng = random.Random(3)
        host, src = cluster.hosts[0], cluster.hosts[1]
        agent = cluster.agent(host)

        def record(i):
            flow_id = FlowId(src, host, 30_000 + i % 15, 80, PROTO_TCP)
            stime = rng.uniform(0.0, 100.0)
            return PathFlowRecord(flow_id, (src, "leaf-0", host), stime,
                                  stime + rng.uniform(0.0, 20.0),
                                  10 * (i + 1), 1)

        for i in range(80):  # pre-start: merges promote archived keys
            agent.ingest_path_record(record(i))
        assert agent.tib.stats.promotions > 0
        cluster.configure_executor(mode=MODE_PROCESS)  # snapshot sync
        for i in range(80, 200):  # mirrored: promotions on both sides
            agent.ingest_path_record(record(i))
        try:
            pool = cluster.agent_servers
            for query in (Query(Q_GET_FLOWS, {}),
                          Query(Q_GET_FLOWS, {"time_range": (20.0, 70.0)}),
                          Query(Q_TOP_K_FLOWS, {"k": 10})):
                local = agent.execute_query(query)
                remote = pool.query(host, query)
                assert wire.encode_value(local.payload) == \
                    wire.encode_value(remote.payload), query.name
                assert local.wire_bytes == remote.wire_bytes, query.name
            local_tiers = cluster.tier_report()
            worker_tiers = cluster.tier_report(from_workers=True)
            for key in ("hot_records", "hot_bytes", "cold_records",
                        "cold_bytes"):
                assert worker_tiers[key] == local_tiers[key], key
        finally:
            cluster.close()
