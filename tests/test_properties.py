"""Property-based tests (hypothesis) for core data structures and invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.analysis import Cdf, imbalance_rate, score_localization
from repro.core.tib import Tib
from repro.core.trajectory import TrajectoryCache, TrajectoryMemory
from repro.debug.maxcoverage import path_to_signature
from repro.network.packet import FlowId, PROTO_TCP, Packet
from repro.storage import PathFlowRecord, flow_key, parse_flow_key
from repro.storage.docstore import Collection
from repro.topology import FatTreeTopology, assign_link_ids
from repro.tracing import PathReconstructor
from repro.workloads.websearch import web_search_cdf
from test_tib import get_count

#: Shared read-only fat-tree for the reconstruction property test.
_TOPO = FatTreeTopology(4)
_ASSIGNMENT = assign_link_ids(_TOPO)
_RECONSTRUCTOR = PathReconstructor(_TOPO, _ASSIGNMENT)
_HOSTS = _TOPO.hosts

host_names = st.sampled_from(_HOSTS)
ports = st.integers(min_value=1, max_value=65535)


@st.composite
def flow_ids(draw):
    src = draw(host_names)
    dst = draw(host_names.filter(lambda h: True))
    return FlowId(src, dst, draw(ports), draw(ports), PROTO_TCP)


class TestPacketProperties:
    @given(st.lists(st.integers(min_value=0, max_value=4095), max_size=6))
    def test_vlan_push_pop_is_lifo(self, vids):
        packet = Packet(flow=FlowId("a", "b", 1, 2, PROTO_TCP))
        for vid in vids:
            packet.push_vlan(vid)
        popped = [packet.pop_vlan() for _ in range(len(vids))]
        assert popped == list(reversed(vids))
        assert packet.vlan_count == 0

    @given(st.lists(st.integers(min_value=0, max_value=4095), max_size=5),
           st.one_of(st.none(), st.integers(min_value=0, max_value=63)))
    def test_strip_trajectory_clears_everything(self, vids, dscp):
        packet = Packet(flow=FlowId("a", "b", 1, 2, PROTO_TCP))
        for vid in vids:
            packet.push_vlan(vid)
        if dscp is not None:
            packet.set_dscp(dscp)
        stripped_vids, stripped_dscp = packet.strip_trajectory()
        assert stripped_vids == list(reversed(vids))
        assert stripped_dscp == dscp
        assert packet.vlan_count == 0 and packet.dscp is None


class TestFlowKeyProperties:
    @given(flow_ids())
    def test_flow_key_round_trip(self, flow):
        assert parse_flow_key(flow_key(flow)) == flow


class TestReconstructionProperties:
    @given(st.sampled_from(_HOSTS), st.sampled_from(_HOSTS))
    @settings(max_examples=40, deadline=None)
    def test_shortest_paths_reconstruct_to_valid_paths(self, src, dst):
        """Reconstruction from the single agg-core sample of any inter-pod
        shortest path yields a valid topology path between the endpoints of
        the expected length."""
        if src == dst:
            return
        path = _TOPO.shortest_path(src, dst)
        samples = []
        for a, b in zip(path, path[1:]):
            if (_TOPO.node(a).role, _TOPO.node(b).role) == ("aggregate",
                                                            "core"):
                samples.append(_ASSIGNMENT.lookup(a, b))
            if (_TOPO.node(a).role, _TOPO.node(b).role) == ("edge",
                                                            "aggregate") \
                    and _TOPO.node(src).pod == _TOPO.node(dst).pod \
                    and src != dst and not samples:
                samples.append(_ASSIGNMENT.lookup(a, b))
        rebuilt = _RECONSTRUCTOR.reconstruct(src, dst, samples)
        assert _TOPO.is_valid_path(rebuilt.path)
        assert rebuilt.path[0] == src and rebuilt.path[-1] == dst
        assert len(rebuilt.path) == len(path)


class TestDocstoreProperties:
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                    max_size=60),
           st.integers(min_value=0, max_value=50))
    def test_find_matches_manual_filter(self, values, threshold):
        collection = Collection("numbers")
        collection.insert_many([{"v": v} for v in values])
        found = collection.find({"v": {"$gte": threshold}})
        assert len(found) == sum(1 for v in values if v >= threshold)
        assert collection.count() == len(values)


class TestTibProperties:
    @given(st.lists(st.tuples(st.integers(1000, 1010),
                              st.integers(1, 10_000)),
                    min_size=1, max_size=30))
    def test_get_count_equals_sum_of_inserted_bytes(self, entries):
        tib = Tib("h-2-0-0")
        flow_totals = {}
        path = ("h-0-0-0", "tor-0-0", "agg-0-0", "tor-0-1", "h-2-0-0")
        for sport, nbytes in entries:
            flow = FlowId("h-0-0-0", "h-2-0-0", sport, 80, PROTO_TCP)
            tib.add_record(PathFlowRecord(flow, path, 0.0, 1.0, nbytes, 1))
            flow_totals[flow] = flow_totals.get(flow, 0) + nbytes
        for flow, total in flow_totals.items():
            assert get_count(tib, flow)[0] == total


class TestTrajectoryMemoryProperties:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 1500)),
                    min_size=1, max_size=100))
    def test_byte_conservation(self, packets):
        memory = TrajectoryMemory()
        flow = FlowId("a", "b", 1, 2, PROTO_TCP)
        total = 0
        for link, size in packets:
            memory.update(flow, [link], size, when=0.0)
            total += size
        assert sum(r.bytes for r in memory.live_records()) == total
        assert sum(r.pkts for r in memory.live_records()) == len(packets)


class TestCacheProperties:
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                    min_size=1, max_size=200),
           st.integers(min_value=1, max_value=16))
    def test_cache_never_exceeds_capacity(self, operations, capacity):
        cache = TrajectoryCache(capacity=capacity)
        for src, link in operations:
            cache.put(f"h{src}", "dst", [link], [f"n{link}"])
            assert len(cache) <= capacity


class TestMetricProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=50))
    def test_imbalance_rate_non_negative(self, loads):
        assert imbalance_rate(loads) >= 0.0

    @given(st.lists(st.floats(min_value=0.001, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=100))
    def test_cdf_quantile_within_range(self, values):
        cdf = Cdf(values)
        assert min(values) <= cdf.quantile(0.5) <= max(values)
        assert cdf.probability_at(max(values)) == 1.0

    @given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
    def test_precision_recall_bounds(self, reported, truth):
        score = score_localization(reported, truth)
        assert 0.0 <= score.recall <= 1.0
        assert 0.0 <= score.precision <= 1.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_web_search_quantile_monotone_and_positive(self, q):
        cdf = web_search_cdf()
        assert cdf.quantile(q) >= 1


class TestSignatureProperties:
    @given(st.lists(st.sampled_from(_TOPO.switches), min_size=2, max_size=8))
    def test_signature_only_contains_adjacent_pairs(self, nodes):
        signature = path_to_signature(["h-0-0-0"] + nodes + ["h-3-1-1"])
        for cable in signature:
            assert len(cable) == 2
            assert all(not n.startswith("h-") for n in cable)
