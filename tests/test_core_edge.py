"""Tests for the edge stack: trajectory memory/cache, vswitch, monitor, alarms."""

import pytest

from repro.core import (ActiveMonitor, Alarm, AlarmBus, EdgeVSwitch,
                        POOR_PERF, QueryCluster, TrajectoryCache,
                        TrajectoryConstructor, TrajectoryMemory)
from repro.network.packet import FlowId, PROTO_TCP, make_tcp_packet
from repro.storage.records import TrajectoryMemoryRecord
from repro.tracing import PathReconstructor
from repro.topology import assign_link_ids


def _flow(sport=1000, src="h-0-0-0", dst="h-2-0-0"):
    return FlowId(src, dst, sport, 80, PROTO_TCP)


class TestTrajectoryMemory:
    def test_aggregates_per_flow_and_linkset(self):
        memory = TrajectoryMemory()
        flow = _flow()
        memory.update(flow, [3], 100, when=0.0)
        memory.update(flow, [3], 200, when=0.5)
        memory.update(flow, [5], 50, when=0.6)  # different path
        assert len(memory) == 2
        records = {r.link_ids: r for r in memory.live_records()}
        assert records[(3,)].bytes == 300 and records[(3,)].pkts == 2
        assert records[(5,)].bytes == 50

    def test_fin_evicts_immediately(self):
        memory = TrajectoryMemory()
        flow = _flow()
        assert memory.update(flow, [3], 100, 0.0) is None
        evicted = memory.update(flow, [3], 10, 0.1, terminate=True)
        assert evicted is not None
        assert evicted.bytes == 110
        assert len(memory) == 0

    def test_idle_eviction(self):
        memory = TrajectoryMemory(idle_timeout=5.0)
        memory.update(_flow(1), [3], 100, when=0.0)
        memory.update(_flow(2), [3], 100, when=3.0)
        evicted = memory.evict_idle(now=6.0)
        assert len(evicted) == 1
        assert len(memory) == 1
        assert memory.evict_all() and len(memory) == 0


class TestTrajectoryCache:
    def test_lru_eviction_and_hit_ratio(self):
        cache = TrajectoryCache(capacity=2)
        cache.put("h1", "b", [1], ["a", "b"])
        cache.put("h1", "c", [2], ["a", "c"])
        assert cache.get("h1", "b", [1]) == ("a", "b")
        cache.put("h1", "d", [3], ["a", "d"])  # evicts [2] (LRU)
        assert cache.get("h1", "c", [2]) is None
        assert cache.get("h1", "b", [1]) is not None
        assert 0 < cache.hit_ratio < 1
        assert cache.estimated_bytes() > 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TrajectoryCache(capacity=0)


class TestTrajectoryConstructor:
    def test_constructs_and_caches(self, fattree4, fattree4_assignment):
        reconstructor = PathReconstructor(fattree4, fattree4_assignment)
        constructor = TrajectoryConstructor(reconstructor)
        link_id = fattree4_assignment.lookup("agg-0-0", "core-0-0")
        memory_record = TrajectoryMemoryRecord(
            _flow(), (link_id,), 0.0, 1.0, 500, 5)
        record = constructor.construct(memory_record)
        assert record is not None
        assert record.path[0] == "h-0-0-0" and record.path[-1] == "h-2-0-0"
        assert record.bytes == 500
        # Second construction hits the cache.
        constructor.construct(memory_record)
        assert constructor.cache.hits == 1

    def test_shared_cache_keeps_destinations_apart(self, fattree4,
                                                   fattree4_assignment):
        """Two destinations under one ToR see the same source and sampled
        links; sharing a cache (``QueryCluster(shared_cache=True)``) must
        not hand one host the other's path."""
        destinations = ("h-2-0-0", "h-2-0-1")
        cluster = QueryCluster(fattree4, fattree4_assignment,
                               hosts=destinations, shared_cache=True)
        first, second = (cluster.agent(dst).constructor
                         for dst in destinations)
        assert first.cache is second.cache
        link_id = fattree4_assignment.lookup("agg-0-0", "core-0-0")
        for constructor, dst in zip((first, second), destinations):
            record = constructor.construct(TrajectoryMemoryRecord(
                _flow(dst=dst), (link_id,), 0.0, 1.0, 500, 5))
            assert record.path[0] == "h-0-0-0" and record.path[-1] == dst

    def test_invalid_samples_reported(self, fattree4, fattree4_assignment):
        invalid = []
        constructor = TrajectoryConstructor(
            PathReconstructor(fattree4, fattree4_assignment),
            on_invalid=lambda record, error: invalid.append(record))
        memory_record = TrajectoryMemoryRecord(_flow(), (4000,), 0.0, 1.0)
        assert constructor.construct(memory_record) is None
        assert len(invalid) == 1
        assert constructor.invalid == 1


class TestEdgeVSwitch:
    def test_extracts_strips_and_updates_memory(self):
        memory = TrajectoryMemory()
        delivered = []
        vswitch = EdgeVSwitch("h-2-0-0", memory,
                              upper_stack=lambda p, t: delivered.append(p))
        packet = make_tcp_packet("h-0-0-0", "h-2-0-0", size=500)
        packet.push_vlan(7)
        samples = vswitch.receive(packet, when=1.0)
        assert list(samples) == [7]
        assert packet.vlan_count == 0  # stripped before the upper stack
        assert len(memory) == 1
        assert delivered and delivered[0] is packet
        assert vswitch.stats.tagged_packets == 1

    def test_fin_packet_produces_pending_eviction(self):
        memory = TrajectoryMemory()
        vswitch = EdgeVSwitch("h-2-0-0", memory)
        packet = make_tcp_packet("h-0-0-0", "h-2-0-0", fin=True)
        packet.push_vlan(7)
        vswitch.receive(packet, when=1.0)
        assert len(vswitch.drain_evictions()) == 1
        assert vswitch.drain_evictions() == []

    def test_memory_update_matches_reference_fold(self):
        """TrajectoryMemory.update inlines TrajectoryMemoryRecord.update;
        pin the fast path to the reference implementation."""
        import random

        rng = random.Random(17)
        memory = TrajectoryMemory()
        flow = _flow()
        reference = TrajectoryMemoryRecord(flow, (3, 5), 2.0, 2.0,
                                           src_host=flow.src_ip)
        memory.update(flow, (3, 5), 0, when=2.0)
        reference.update(0, when=2.0)
        for _ in range(50):
            nbytes = rng.randrange(0, 2000)
            when = rng.uniform(0.0, 10.0)
            memory.update(flow, (3, 5), nbytes, when)
            reference.update(nbytes, when)
        (resident,) = memory.live_records()
        assert (resident.stime, resident.etime, resident.bytes,
                resident.pkts) == (reference.stime, reference.etime,
                                   reference.bytes, reference.pkts)

    def test_inlined_extraction_matches_cherrypick_helper(self):
        """The fast path's inlined decode must track the shared helper.

        ``EdgeVSwitch.receive`` hand-inlines
        ``CherryPickTagger.samples_in_traversal_order`` (and the header
        strip) for speed; this pins the two implementations together.
        """
        import random

        from repro.tracing.cherrypick import CherryPickTagger

        rng = random.Random(11)
        for _ in range(100):
            packet = make_tcp_packet("h-0-0-0", "h-2-0-0")
            for _ in range(rng.randrange(0, 4)):
                packet.push_vlan(1 + rng.randrange(0, 4000))
            if rng.random() < 0.5:
                packet.set_dscp(rng.randrange(0, 64))
            expected = CherryPickTagger.samples_in_traversal_order(packet)
            vswitch = EdgeVSwitch("h-2-0-0", TrajectoryMemory())
            samples = vswitch.receive(packet, when=0.0)
            assert list(samples) == expected
            assert packet.vlan_count == 0 and packet.dscp is None

    def test_disabled_mode_is_passthrough(self):
        memory = TrajectoryMemory()
        vswitch = EdgeVSwitch("h", memory, pathdump_enabled=False)
        packet = make_tcp_packet("h-0-0-0", "h-2-0-0")
        packet.push_vlan(7)
        vswitch.receive(packet, when=0.0)
        assert packet.vlan_count == 1  # untouched
        assert len(memory) == 0
        assert vswitch.throughput_counters()[0] == 1


class TestActiveMonitor:
    def test_poor_flow_detection_and_alarm(self):
        alarms = []
        monitor = ActiveMonitor("h-0-0-0", alarm_sink=alarms.append,
                                poor_threshold=3)
        good = _flow(1)
        bad = _flow(2)
        monitor.observe_flow(good, retransmissions=1, consecutive=1)
        monitor.observe_flow(bad, retransmissions=9, consecutive=5)
        assert monitor.get_poor_tcp_flows() == [bad]
        assert monitor.get_poor_tcp_flows(threshold=1) == [good, bad]
        raised = monitor.run_check(now=1.0)
        assert len(raised) == 1
        assert raised[0].reason == POOR_PERF
        assert alarms and alarms[0].flow_id == bad
        # A second check does not re-alert the same flow.
        assert monitor.run_check(now=2.0) == []

    def test_timeout_flags_flow_poor(self):
        monitor = ActiveMonitor("h")
        flow = _flow(3)
        monitor.observe_flow(flow, retransmissions=0, consecutive=0,
                             timeouts=1)
        assert flow in monitor.get_poor_tcp_flows()


class TestAlarmBus:
    def test_subscription_by_reason(self):
        bus = AlarmBus()
        seen_all, seen_poor = [], []
        bus.subscribe(seen_all.append)
        bus.subscribe(seen_poor.append, reason=POOR_PERF)
        bus.raise_alarm(Alarm(_flow(), POOR_PERF, host="h1", time=1.0))
        bus.raise_alarm(Alarm(_flow(), "OTHER", host="h2", time=2.0))
        assert len(seen_all) == 2
        assert len(seen_poor) == 1
        assert bus.count(POOR_PERF) == 1
        assert len(bus.involving_destination("h-2-0-0")) == 2
        bus.clear()
        assert bus.count() == 0


class TestIdleEvictionRecencyOrder:
    """The idle scan walks the recency-ordered prefix and stops early; its
    eviction *set* must equal the old exhaustive scan's."""

    @staticmethod
    def _reference_idle_set(memory, now):
        return {(r.flow_id, r.link_ids) for r in memory.live_records()
                if now - r.etime >= memory.idle_timeout}

    def test_eviction_set_matches_full_scan(self):
        import random
        rng = random.Random(42)
        memory = TrajectoryMemory(idle_timeout=5.0)
        when = 0.0
        for step in range(400):
            when += rng.uniform(0.0, 0.4)  # non-decreasing timestamps
            memory.update(_flow(rng.randint(1, 40)),
                          [rng.randint(1, 6)], 100, when=when)
            if step % 50 == 49:
                expected = self._reference_idle_set(memory, when)
                evicted = memory.evict_idle(when)
                assert {(r.flow_id, r.link_ids) for r in evicted} == expected
                assert not self._reference_idle_set(memory, when)

    def test_touch_refreshes_recency(self):
        memory = TrajectoryMemory(idle_timeout=5.0)
        memory.update(_flow(1), [3], 100, when=0.0)
        memory.update(_flow(2), [3], 100, when=1.0)
        memory.update(_flow(1), [3], 100, when=4.0)  # flow 1 touched again
        evicted = memory.evict_idle(now=6.5)  # only flow 2 is idle
        assert [r.flow_id for r in evicted] == [_flow(2)]
        assert len(memory) == 1

    def test_out_of_order_timestamps_fall_back_to_full_scan(self):
        memory = TrajectoryMemory(idle_timeout=5.0)
        memory.update(_flow(1), [3], 100, when=10.0)
        memory.update(_flow(2), [3], 100, when=2.0)  # time went backwards
        assert not memory._monotonic
        # recency order is (1, 2) but flow 2 has the older etime; the
        # fallback scan must still find it
        expected = self._reference_idle_set(memory, 8.0)
        evicted = memory.evict_idle(now=8.0)
        assert {(r.flow_id, r.link_ids) for r in evicted} == expected
        assert [r.flow_id for r in evicted] == [_flow(2)]
        assert len(memory) == 1

    def test_early_stop_leaves_fresh_suffix_untouched(self):
        memory = TrajectoryMemory(idle_timeout=5.0)
        for i in range(10):
            memory.update(_flow(i), [3], 100, when=float(i))
        evicted = memory.evict_idle(now=9.0)  # idle: etimes 0..4
        assert sorted(r.etime for r in evicted) == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert len(memory) == 5
