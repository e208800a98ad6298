"""Tests for the TIB and the Table 1 host query API."""

import random
import sys
import threading

import pytest

from repro.core import plan as planlib
from repro.core.tib import Tib, normalise_time_range
from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import PathFlowRecord, ScanSpec


def _flow(src="h-0-0-0", dst="h-2-0-0", sport=1000):
    return FlowId(src, dst, sport, 80, PROTO_TCP)


def _record(flow, path, stime=0.0, etime=1.0, nbytes=1000, pkts=10):
    return PathFlowRecord(flow, tuple(path), stime, etime, nbytes, pkts)


PATH_A = ("h-0-0-0", "tor-0-0", "agg-0-0", "core-0-0", "agg-2-0", "tor-2-0",
          "h-2-0-0")
PATH_B = ("h-0-0-0", "tor-0-0", "agg-0-1", "core-1-0", "agg-2-1", "tor-2-0",
          "h-2-0-0")


def get_count(tib, flow, time_range=None):
    """``getCount(Flow, timeRange)``: its plan, pushed down into ``tib``."""
    return planlib.execute_plan(
        tib, planlib.compile_get_count(flow, time_range)).payload


def get_duration(tib, flow, time_range=None):
    """``getDuration(Flow, timeRange)``: the length of its plan's span."""
    return planlib.span_length(planlib.execute_plan(
        tib, planlib.compile_get_duration(flow, time_range)).payload)


@pytest.fixture()
def tib():
    tib = Tib("h-2-0-0")
    flow = _flow()
    tib.add_record(_record(flow, PATH_A, 0.0, 1.0, 1000, 10))
    tib.add_record(_record(flow, PATH_B, 1.0, 2.0, 500, 5))
    tib.add_record(_record(_flow(sport=2000), PATH_A, 5.0, 6.0, 200, 2))
    return tib


class TestHelpers:
    def test_normalise_time_range(self):
        assert normalise_time_range(None) == (None, None)
        assert normalise_time_range(("*", 5)) == (None, 5.0)
        assert normalise_time_range((1, "*")) == (1.0, None)
        with pytest.raises(ValueError):
            normalise_time_range((5, 1))

    def test_link_constraint_wildcards(self):
        record = _record(_flow(), PATH_A)
        assert ScanSpec().matches(record)
        for link in (("*", "*"), ("agg-0-0", "core-0-0"),
                     ("core-0-0", "agg-0-0"), ("?", "core-0-0"),
                     ("agg-0-0", "*")):
            assert ScanSpec(links=(link,)).matches(record), link
        assert not ScanSpec(links=(("agg-0-1", "core-1-0"),)).matches(record)


class TestTib:
    def test_get_flows_on_link(self, tib):
        flows = tib.get_flows(("agg-0-0", "core-0-0"))
        assert len(flows) == 2  # two flows used PATH_A
        flows_b = tib.get_flows(("agg-0-1", "core-1-0"))
        assert len(flows_b) == 1

    def test_get_flows_time_range(self, tib):
        flows = tib.get_flows(None, (4.0, None))
        assert len(flows) == 1
        flows = tib.get_flows(None, (0.0, 2.0))
        assert len(flows) == 2

    def test_get_paths(self, tib):
        paths = tib.get_paths(_flow())
        assert set(paths) == {PATH_A, PATH_B}
        paths = tib.get_paths(_flow(), link=("core-1-0", "?"))
        assert paths == [PATH_B]

    def test_get_count_per_path_and_total(self, tib):
        flow = _flow()
        assert get_count(tib, (flow, PATH_A)) == (1000, 10)
        assert get_count(tib, flow) == (1500, 15)
        assert get_count(tib, (flow, PATH_A), time_range=(10, 20)) == (0, 0)

    def test_get_duration(self, tib):
        assert get_duration(tib, _flow()) == pytest.approx(2.0)
        assert get_duration(tib, (_flow(), PATH_B)) == pytest.approx(1.0)
        assert get_duration(tib, _flow(sport=9999)) == 0.0

    def test_records_merge_same_flow_path(self):
        tib = Tib("h")
        flow = _flow()
        tib.add_record(_record(flow, PATH_A, 0.0, 1.0, 100, 1))
        tib.add_record(_record(flow, PATH_A, 1.0, 3.0, 200, 2))
        assert tib.record_count() == 1
        assert get_count(tib, (flow, PATH_A)) == (300, 3)
        assert get_duration(tib, (flow, PATH_A)) == pytest.approx(3.0)

    def test_clear_and_footprint(self, tib):
        assert tib.estimated_bytes() > 0
        assert tib.record_count() == 3
        tib.clear()
        assert tib.record_count() == 0


class TestWindow:
    """Boundary behaviour of time-window reads."""

    def _tib(self):
        tib = Tib("h")
        for sport, (stime, etime) in enumerate(
                [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (5.0, 5.0)]):
            tib.add_record(_record(_flow(sport=sport), PATH_A, stime, etime))
        return tib

    def test_start_boundary_inclusive(self):
        tib = self._tib()
        # etime == start overlaps; etime < start does not.
        assert len(tib.records(time_range=(1.0, None))) == 4
        assert len(tib.records(time_range=(1.0 + 1e-9, None))) == 3
        assert len(tib.records(time_range=(5.0, None))) == 1
        assert len(tib.records(time_range=(5.1, None))) == 0

    def test_end_boundary_inclusive(self):
        tib = self._tib()
        # stime == end overlaps; stime > end does not.
        assert len(tib.records(time_range=(None, 0.0))) == 1
        assert len(tib.records(time_range=(None, 1.0))) == 2
        assert len(tib.records(time_range=(None, 4.999))) == 3
        assert len(tib.records(time_range=(None, 5.0))) == 4

    def test_both_bounds_match_brute_force(self):
        tib = self._tib()
        full = tib.records()
        for start in (None, 0.0, 0.5, 1.0, 2.5, 5.0, 6.0):
            for end in (0.0, 0.5, 1.0, 2.5, 5.0, 6.0, None):
                if start is not None and end is not None and end < start:
                    continue
                expected = [r for r in full
                            if ScanSpec(start, end).matches(r)]
                assert tib.records(time_range=(start, end)) == expected

    def test_point_range_and_instant_record(self):
        tib = self._tib()
        hits = tib.records(time_range=(5.0, 5.0))
        assert len(hits) == 1 and hits[0].stime == 5.0

    def test_merge_extends_indexed_interval(self):
        tib = Tib("h")
        flow = _flow()
        tib.add_record(_record(flow, PATH_A, 1.0, 2.0))
        assert tib.records(time_range=(3.0, None)) == []
        tib.add_record(_record(flow, PATH_A, 3.5, 4.0))
        assert len(tib.records(time_range=(3.0, None))) == 1
        assert len(tib.records(time_range=(None, 1.0))) == 1

    def test_exact_boundaries_inclusive(self):
        tib = Tib("h")
        flow = _flow()
        tib.add_record(_record(flow, PATH_A, 2.0, 5.0))
        # etime == start and stime == end both qualify (closed interval)
        assert tib.records(time_range=(5.0, 9.0))
        assert tib.records(time_range=(0.0, 2.0))
        assert not tib.records(time_range=(5.0 + 1e-9, 9.0))
        assert not tib.records(time_range=(0.0, 2.0 - 1e-9))


class TestLinkIndex:
    def _tib(self):
        tib = Tib("h")
        tib.add_record(_record(_flow(sport=1), PATH_A))
        tib.add_record(_record(_flow(sport=2), PATH_B))
        return tib

    def test_concrete_link_both_directions(self):
        tib = self._tib()
        assert len(tib.records(link=("agg-0-0", "core-0-0"))) == 1
        assert len(tib.records(link=("core-0-0", "agg-0-0"))) == 1
        assert len(tib.records(link=("agg-0-0", "core-1-0"))) == 0

    def test_wildcard_endpoint(self):
        tib = self._tib()
        assert len(tib.records(link=("*", "core-0-0"))) == 1
        assert len(tib.records(link=("core-1-0", "?"))) == 1
        assert len(tib.records(link=(None, "tor-0-0"))) == 2
        assert len(tib.records(link=("*", "nowhere"))) == 0
        assert len(tib.records(link=("*", "*"))) == 2

    def test_matches_scanspec_predicate(self):
        tib = self._tib()
        full = tib.records()
        for link in [("agg-0-0", "core-0-0"), ("*", "agg-2-1"),
                     ("tor-2-0", "*"), ("h-0-0-0", "tor-0-0"),
                     ("nowhere", "*"), ("*", "*")]:
            expected = [r for r in full
                        if ScanSpec(links=(link,)).matches(r)]
            assert tib.records(link=link) == expected

    def test_index_reset_on_clear(self):
        tib = self._tib()
        tib.clear()
        assert tib.records(link=("agg-0-0", "core-0-0")) == []
        tib.add_record(_record(_flow(sport=3), PATH_A))
        assert len(tib.records(link=("agg-0-0", "core-0-0"))) == 1


class TestUpsertMerge:
    def test_add_records_bulk(self):
        tib = Tib("h")
        flow = _flow()
        count = tib.add_records([_record(flow, PATH_A, 0.0, 1.0, 100, 1),
                                 _record(flow, PATH_A, 1.0, 2.0, 200, 2),
                                 _record(flow, PATH_B, 0.0, 1.0, 50, 1)])
        assert count == 3
        assert tib.record_count() == 2
        assert get_count(tib, flow) == (350, 4)

    def test_list_path_normalised(self):
        tib = Tib("h")
        record = PathFlowRecord(_flow(), list(PATH_A), 0.0, 1.0, 10, 1)
        tib.add_record(record)
        tib.add_record(_record(_flow(), PATH_A, 1.0, 2.0, 10, 1))
        assert tib.record_count() == 1
        assert tib.get_paths(_flow()) == [PATH_A]


def _brute_force_ranking(tib, k, descending):
    """``rank_select`` over ``flow_byte_totals()``'s pairs: what the
    unconstrained top-k returned before the TIB kept a ranking."""
    pairs = [(nbytes, key) for key, nbytes in tib.flow_byte_totals().items()]
    return planlib.rank_select(pairs, k, planlib.ORDER_DESC if descending
                               else planlib.ORDER_ASC)


class TestFlowRanking:
    """``ranked_flow_bytes`` - the maintained ranking behind unconstrained
    top-k - under racing readers."""

    def test_concurrent_readers_agree(self):
        """Readers racing to fold the same stale flows (no write between
        them, as the TIB requires) all get the brute-force answer and
        leave nothing stale."""
        rng = random.Random(5)
        tib = Tib("h")
        for pair in range(2_000):
            tib.add_record(_record(_flow(sport=pair), PATH_A, 0.0, 1.0,
                                   rng.randrange(1, 50), 1))
        readers = 4
        barrier = threading.Barrier(readers)
        answers = []

        def read():
            barrier.wait(timeout=10.0)
            answers.append(tib.ranked_flow_bytes(100))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(20):
                # Alternate a few stale flows (repair) with many (rebuild).
                for _ in range(5 if round_ % 2 else 400):
                    tib.add_record(_record(_flow(sport=rng.randrange(2_000)),
                                           PATH_A, 0.0, 1.0,
                                           rng.randrange(0, 50), 1))
                answers.clear()
                threads = [threading.Thread(target=read)
                           for _ in range(readers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                expected = _brute_force_ranking(tib, 100, True)
                assert answers == [expected] * readers
                assert not tib._rank_stale
        finally:
            sys.setswitchinterval(previous)


class TestEngineDiscipline:
    def test_records_are_memoized(self):
        tib = Tib("h")
        tib.add_record(_record(_flow(), PATH_A, 0.0, 1.0, 10, 1))
        first = tib.records()[0]
        assert tib.records()[0] is first
        assert tib.records(flow_id=_flow())[0] is first
        assert tib.records(link=("agg-0-0", "core-0-0"))[0] is first

    def test_count_fast_path_matches_scan(self):
        tib = Tib("h")
        flow = _flow()
        tib.add_record(_record(flow, PATH_A, 0.0, 1.0, 100, 2))
        tib.add_record(_record(flow, PATH_B, 1.0, 2.0, 50, 1))
        assert get_count(tib, flow) == (150, 3)
        assert get_count(tib, flow, time_range=(0.0, 10.0)) == (150, 3)
        assert tib.flow_byte_totals() == {
            "h-0-0-0:1000|h-2-0-0:80|6": 150}


class TestNoMutateContract:
    """``add_record`` never mutates (or silently retains) a caller's record."""

    def test_list_path_not_rewritten_in_place(self):
        tib = Tib("h")
        record = PathFlowRecord(_flow(), list(PATH_A), 0.0, 1.0, 100, 1)
        tib.add_record(record)
        assert type(record.path) is list  # caller's object untouched
        assert tib.records()[0].path == PATH_A  # stored form normalised

    def test_merge_does_not_mutate_first_callers_record(self):
        """The old engine retained the first record and folded later merges
        into it, so the *caller's* object grew byte counts behind its back."""
        tib = Tib("h")
        first = _record(_flow(), PATH_A, 1.0, 2.0, 100, 1)
        second = _record(_flow(), PATH_A, 0.5, 3.0, 50, 2)
        tib.add_record(first)
        tib.add_record(second)
        assert (first.bytes, first.pkts) == (100, 1)
        assert (first.stime, first.etime) == (1.0, 2.0)
        assert (second.bytes, second.pkts) == (50, 2)
        stored = tib.records()[0]
        assert stored is not first and stored is not second
        assert (stored.bytes, stored.pkts) == (150, 3)
        assert (stored.stime, stored.etime) == (0.5, 3.0)

    def test_caller_mutation_cannot_corrupt_the_tib(self):
        tib = Tib("h")
        record = _record(_flow(), PATH_A, 0.0, 1.0, 100, 1)
        tib.add_record(record)
        record.bytes = 999_999
        record.path = ("garbage",)
        assert get_count(tib, _flow()) == (100, 1)
        assert tib.records()[0].path == PATH_A

    def test_adopt_transfers_ownership_without_copy(self):
        tib = Tib("h")
        record = _record(_flow(), PATH_A)
        tib.add_record(record, adopt=True)
        assert tib.records()[0] is record
        listy = PathFlowRecord(_flow(sport=9), list(PATH_B), 0.0, 1.0, 1, 1)
        tib.add_record(listy, adopt=True)
        assert type(listy.path) is tuple  # adopted records are normalised


class TestGetDurationClamp:
    """Regression: with a ``time_range``, a record's extent must be clamped
    to the window - full extents used to leak outside it, so the reported
    duration could exceed the window's own length."""

    @pytest.fixture()
    def long_flow(self):
        tib = Tib("h")
        flow = _flow()
        tib.add_record(_record(flow, PATH_A, 0.0, 100.0))
        return tib, flow

    def test_duration_never_exceeds_window_length(self, long_flow):
        tib, flow = long_flow
        assert get_duration(tib, flow, (10.0, 20.0)) == 10.0

    def test_one_sided_windows_clamp_one_bound(self, long_flow):
        tib, flow = long_flow
        assert get_duration(tib, flow, (40.0, None)) == 60.0
        assert get_duration(tib, flow, (None, 30.0)) == 30.0
        assert get_duration(tib, flow, ("*", "*")) == 100.0

    def test_unconstrained_duration_unchanged(self, long_flow):
        tib, flow = long_flow
        assert get_duration(tib, flow) == 100.0

    def test_empty_result_is_zero(self, long_flow):
        tib, flow = long_flow
        assert get_duration(tib, flow, (200.0, 300.0)) == 0.0
        assert get_duration(tib, _flow(sport=9999), (10.0, 20.0)) == 0.0

    def test_multi_record_spread_is_clamped_per_record(self):
        tib = Tib("h")
        flow = _flow()
        tib.add_record(_record(flow, PATH_A, 0.0, 12.0))
        tib.add_record(_record(flow, PATH_B, 18.0, 50.0))
        # window [10, 20]: extents clamp to [10, 12] and [18, 20]
        assert get_duration(tib, flow, (10.0, 20.0)) == 10.0

    def test_point_window(self, long_flow):
        tib, flow = long_flow
        assert get_duration(tib, flow, (50.0, 50.0)) == 0.0
