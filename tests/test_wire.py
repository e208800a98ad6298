"""Round-trip and property tests for the binary wire codec.

The codec is what the byte accounting measures and what the agent-server
workers speak, so these tests pin down: lossless round-trips over every
supported value shape (including the edge values the fuzzer favours - empty
paths, huge counters, unicode flow keys), frame validation, exact sizes
without encoding, and golden frames pinning every message's bytes.
"""

import math
import random
import sys

import pytest

from repro.core import Query, QueryEngine, QueryResult, plan, wire
from repro.core.aggregation import AggregationTree
from repro.core.alarms import Alarm, POOR_PERF, REASON_CODES
from repro.core.monitor import (ActiveMonitor, MonitorSnapshot, TcpFlowStats,
                                TransferObservation)
from repro.network.packet import PROTO_TCP, PROTO_UDP, FlowId
from repro.storage import PathFlowRecord, flow_key
from repro.storage.docstore import _estimate_value_bytes
from repro.storage.segment import (SEG_BYTES, SEG_ETIME, SEG_PKTS, SEG_STIME,
                                   SEGMENT_COLUMNS, Segment, SegmentBuilder)
from test_plan import random_plan


UNICODE_HOST = "hôst-中心-9"


def sample_record(path=("h1", "tor-a", "h2"), nbytes=1234, pkts=3):
    flow = FlowId("h1", "h2", 43210, 80, PROTO_TCP)
    return PathFlowRecord(flow_id=flow, path=tuple(path), stime=1.25,
                          etime=9.5, bytes=nbytes, pkts=pkts)


class TestValueRoundTrip:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -1, 7, 255, -(1 << 40), 1 << 100,
        -(1 << 99) - 17, 0.0, -2.5, 1e308, "", "plain", "hôst-中",
        b"", b"\x00\xff raw", [], (), {}, set(), frozenset(),
        [1, "two", None], ("a", ("b", ("c",))),
        {"k": 1, ("tor", 3): [1, 2]}, {1, 2, 3}, frozenset({"x", "y"}),
        FlowId("srv-é", "dst", 1, 2, PROTO_UDP),
        [(FlowId("a", "b", 1, 2, 6), ("a", "s", "b"))],
    ])
    def test_round_trip(self, value):
        assert wire.decode_value(wire.encode_value(value)) == value

    def test_types_preserved(self):
        """Containers and FlowId keep their exact types (payload identity
        across execution modes is checked byte for byte)."""
        value = {"t": (1, 2), "l": [1, 2], "f": FlowId("a", "b", 1, 2, 6),
                 "s": {1}, "fs": frozenset({2})}
        decoded = wire.decode_value(wire.encode_value(value))
        assert type(decoded["t"]) is tuple
        assert type(decoded["l"]) is list
        assert type(decoded["f"]) is FlowId
        assert type(decoded["s"]) is set
        assert type(decoded["fs"]) is frozenset

    def test_equal_sets_encode_identically(self):
        a = wire.encode_value({"x", "y", "zz", "w"})
        b = wire.encode_value({"w", "zz", "y", "x"})
        assert a == b

    def test_nan_round_trips(self):
        decoded = wire.decode_value(wire.encode_value(float("nan")))
        assert math.isnan(decoded)

    def test_unencodable_type_rejected(self):
        with pytest.raises(wire.WireError):
            wire.encode_value(object())

    def test_fuzz_round_trip(self):
        rng = random.Random(20260726)

        def make(depth):
            kind = rng.randrange(10 if depth < 3 else 7)
            if kind == 0:
                return None
            if kind == 1:
                return rng.random() < 0.5
            if kind == 2:
                return rng.randint(-(1 << rng.randrange(1, 128)),
                                   1 << rng.randrange(1, 128))
            if kind == 3:
                return rng.uniform(-1e12, 1e12)
            if kind == 4:
                alphabet = "abé中\U0001f409 -:"
                return "".join(rng.choice(alphabet)
                               for _ in range(rng.randrange(8)))
            if kind == 5:
                return bytes(rng.randrange(256)
                             for _ in range(rng.randrange(8)))
            if kind == 6:
                return FlowId(f"h{rng.randrange(99)}", UNICODE_HOST,
                              rng.randrange(1 << 16), rng.randrange(1 << 16),
                              rng.choice([6, 17, 1]))
            if kind == 7:
                return [make(depth + 1) for _ in range(rng.randrange(4))]
            if kind == 8:
                return tuple(make(depth + 1)
                             for _ in range(rng.randrange(4)))
            return {f"k{i}": make(depth + 1)
                    for i in range(rng.randrange(4))}

        for _ in range(300):
            value = make(0)
            assert wire.decode_value(wire.encode_value(value)) == value


class TestRecordBatches:
    @pytest.mark.parametrize("record", [
        sample_record(),
        sample_record(path=()),                     # empty path
        sample_record(nbytes=1 << 80, pkts=1 << 70),  # huge counters
        PathFlowRecord(FlowId(UNICODE_HOST, "dst-ü", 0, 0, PROTO_UDP),
                       (UNICODE_HOST, "sw", "dst-ü"), 0.0, 0.0),
    ])
    def test_batch_round_trip(self, record):
        decoded = wire.decode_record_batch(
            wire.encode_record_batch([record]))
        assert len(decoded) == 1
        got = decoded[0]
        assert got.flow_id == record.flow_id
        assert got.path == record.path
        assert got.stime == record.stime and got.etime == record.etime
        assert got.bytes == record.bytes and got.pkts == record.pkts

    def test_empty_batch(self):
        assert wire.decode_record_batch(wire.encode_record_batch([])) == []

    def test_record_wire_bytes_matches_batch_layout(self):
        """A single-record batch is exactly header + count varint + body."""
        record = sample_record()
        frame = wire.encode_record_batch([record])
        assert len(frame) == wire.HEADER_BYTES + 1 + \
            wire.record_wire_bytes(record)

    @staticmethod
    def _random_records(rng, count=100):
        records = []
        for i in range(count):
            flow = FlowId(f"src-{rng.randrange(16)}", UNICODE_HOST,
                          rng.randrange(1 << 16), 80, PROTO_TCP)
            path = tuple(f"sw{j}" for j in range(rng.randrange(7)))
            records.append(PathFlowRecord(
                flow, path, rng.uniform(0, 1e6), rng.uniform(1e6, 2e6),
                rng.randrange(1 << rng.randrange(1, 77)),
                rng.randrange(1 << 20)))
        return records

    def test_fuzz_batch_round_trip(self):
        records = self._random_records(random.Random(7))
        decoded = wire.decode_record_batch(
            wire.encode_record_batch(records))
        assert [(r.flow_id, r.path, r.bytes, r.pkts) for r in decoded] == \
            [(r.flow_id, r.path, r.bytes, r.pkts) for r in records]

    @pytest.mark.parametrize("pieces", [1, 3, 100])
    def test_incremental_batch_is_the_one_shot_frame(self, pieces):
        """Bodies appended as records arrive - one at a time, or in
        separately encoded pieces concatenated later, as the worker
        plane's outbox combines them - and framed once build exactly
        ``encode_record_batch(all of them)``; same for observations."""
        rng = random.Random(pieces)
        for items, kind, append, encode, decode in (
                (self._random_records(rng), wire.MSG_RECORD_BATCH,
                 wire.append_record, wire.encode_record_batch,
                 wire.decode_record_batch),
                ([_random_observation(rng) for _ in range(100)],
                 wire.MSG_OBSERVATION_BATCH, wire.append_observation,
                 wire.encode_observation_batch,
                 wire.decode_observation_batch)):
            body = bytearray()
            for start in range(0, len(items), len(items) // pieces):
                piece = bytearray()
                for item in items[start:start + len(items) // pieces]:
                    append(piece, item)
                body += piece
            frame = wire.finish_batch(kind, len(items), body)
            assert frame == encode(items)
            assert decode(frame) == items


class TestQueryFrames:
    def test_query_round_trip(self):
        query = Query("top_k_flows",
                      {"k": 50, "time_range": (None, 12.5),
                       "flow_id": FlowId("a", "b", 1, 2, 6),
                       "forbidden": {"sw-1", "sw-2"}},
                      period=1.5)
        decoded, spec, traced = wire.decode_query_request(
            wire.encode_query(query))
        assert decoded.name == query.name
        assert decoded.params == query.params
        assert decoded.period == query.period
        assert spec is None and not traced

    def test_query_with_subtree_spec(self):
        query = Query("get_flows", {})
        spec = wire.SubtreeSpec("h0", ("h0", "h1", UNICODE_HOST))
        frame = wire.encode_query_request(query, spec)
        decoded, got_spec, _traced = wire.decode_query_request(frame)
        assert got_spec == spec
        # The batched frame carries both logical parts; its size is the
        # parts' sizes minus the one duplicated header.
        assert len(frame) == len(wire.encode_query(query)) + \
            len(wire.encode_subtree_spec(spec)) - wire.HEADER_BYTES
        assert wire.decode_subtree_spec(wire.encode_subtree_spec(spec)) == \
            spec

    def test_tree_spec_bytes_are_measured(self):
        tree = AggregationTree([f"h{i}" for i in range(13)], fanout=(3, 2))
        for node in tree.host_nodes():
            spec = node.spec
            assert wire.spec_len(spec.root, len(spec.hosts),
                                 sum(map(wire.str_len, spec.hosts))) == \
                len(wire.encode_subtree_spec(spec)) - wire.HEADER_BYTES
            assert spec.hosts == tuple(n.host for n in node.descend())

    def test_request_bytes_are_measured(self):
        query = Query("get_flows", {"link": ("a", "b")})
        assert query.request_bytes() == len(wire.encode_query(query))


class TestResultFrames:
    def test_result_round_trip(self):
        query = Query("traffic_matrix", {})
        result = QueryResult(query=query,
                             payload={("tor-a", "tor-b"): 12345},
                             wire_bytes=0, records_scanned=77,
                             host=UNICODE_HOST)
        frame = wire.encode_result(result)
        decoded = wire.decode_result(frame, query)
        assert decoded.payload == result.payload
        assert decoded.records_scanned == 77
        assert decoded.scan_stats == {}
        assert decoded.host == UNICODE_HOST
        assert decoded.wire_bytes == len(frame)
        assert wire.result_wire_bytes(result) == len(frame)

    def test_result_for_wrong_query_rejected(self):
        result = QueryResult(query=Query("get_flows", {}), payload=[],
                             wire_bytes=0)
        frame = wire.encode_result(result)
        with pytest.raises(wire.WireError):
            wire.decode_result(frame, Query("top_k_flows", {}))

    def test_engine_sets_measured_wire_bytes(self):
        """QueryEngine.execute defines wire_bytes exactly as the frame an
        agent-server worker would put on the pipe."""
        class TibStub:
            def record_count(self):
                return 4

            def total_record_count(self):
                return 4

            def get_flows(self, link, time_range):
                return [(FlowId("a", "b", 1, 2, 6), ("a", "s", "b"))]

        class AgentStub:
            host = "h0"
            tib = TibStub()

        result = QueryEngine().execute(AgentStub(), Query("get_flows", {}))
        assert result.wire_bytes == len(wire.encode_result(result))


def _random_flow_id(rng):
    return FlowId(f"h{rng.randrange(99)}", UNICODE_HOST,
                  rng.randrange(1 << 16), rng.randrange(1 << 16),
                  rng.choice([6, 17, 1]))


def _random_alarm(rng):
    paths = [tuple(f"sw-{rng.randrange(9)}" for _ in range(rng.randrange(6)))
             for _ in range(rng.randrange(4))]
    return Alarm(flow_id=_random_flow_id(rng),
                 reason=rng.choice(REASON_CODES + ("opérator-défined",)),
                 paths=paths, host=f"h{rng.randrange(32)}",
                 time=rng.uniform(0, 1e6),
                 detail="".join(rng.choice("abé中 :=,") for _ in
                                range(rng.randrange(24))))


def _random_observation(rng):
    return TransferObservation(
        flow_id=_random_flow_id(rng),
        retransmissions=rng.randrange(1 << rng.randrange(1, 40)),
        consecutive=rng.randrange(1 << 10),
        timeouts=rng.randrange(8),
        bytes_sent=rng.randrange(1 << rng.randrange(1, 60)),
        when=rng.uniform(0, 1e6))


def _random_flow_stats(rng):
    return TcpFlowStats(
        flow_id=_random_flow_id(rng),
        retransmissions=rng.randrange(1 << 20),
        consecutive_retransmissions=rng.randrange(1 << 10),
        max_consecutive_retransmissions=rng.randrange(1 << 10),
        timeouts=rng.randrange(8),
        bytes_sent=rng.randrange(1 << 50),
        last_update=rng.uniform(0, 1e6),
        alerted=rng.random() < 0.5)


class TestEventPlaneFrames:
    """Round-trip + fuzz coverage for the event-plane frame kinds."""

    def test_alarm_batch_round_trip(self):
        alarm = Alarm(flow_id=FlowId("a", "b", 1, 2, PROTO_TCP),
                      reason=POOR_PERF, paths=[("a", "sw", "b"), ()],
                      host=UNICODE_HOST, time=1.25, detail="retx=3, 中")
        decoded = wire.decode_alarm_batch(wire.encode_alarm_batch([alarm]))
        assert decoded == [alarm]
        assert wire.decode_alarm_batch(wire.encode_alarm_batch([])) == []

    def test_alarms_wire_bytes_matches_batch_layout(self):
        rng = random.Random(3)
        alarms = [_random_alarm(rng) for _ in range(5)]
        frame = wire.encode_alarm_batch(alarms)
        body = frame[wire.HEADER_BYTES:-1]  # less the empty span tail
        assert wire.alarms_wire_bytes(alarms) == len(body)

    def test_fuzz_alarm_batch(self):
        rng = random.Random(20260726)
        alarms = [_random_alarm(rng) for _ in range(150)]
        assert wire.decode_alarm_batch(
            wire.encode_alarm_batch(alarms)) == alarms

    def test_fuzz_observation_batch(self):
        rng = random.Random(11)
        observations = [_random_observation(rng) for _ in range(150)]
        assert wire.decode_observation_batch(
            wire.encode_observation_batch(observations)) == observations

    def test_monitor_tick_round_trip(self):
        assert wire.decode_monitor_tick(
            wire.encode_monitor_tick(12.5)) == (12.5, None, False)
        assert wire.decode_monitor_tick(
            wire.encode_monitor_tick(0.0, 1)) == (0.0, 1, False)
        assert wire.frame_type(wire.encode_monitor_tick(1.0)) == \
            wire.MSG_MONITOR_TICK

    def test_fuzz_monitor_state(self):
        rng = random.Random(99)
        for _ in range(40):
            snapshot = MonitorSnapshot(
                host=f"hôst-{rng.randrange(16)}",
                period=rng.uniform(0.01, 5.0),
                poor_threshold=rng.randrange(1, 10),
                alerts_raised=rng.randrange(1 << 20),
                flows=tuple(_random_flow_stats(rng)
                            for _ in range(rng.randrange(12))))
            assert wire.decode_monitor_state(
                wire.encode_monitor_state(snapshot)) == snapshot

    def test_monitor_snapshot_restore_round_trips_over_the_wire(self):
        """A monitor restored from the decoded snapshot answers
        getPoorTCPFlows byte-identically (flow order preserved)."""
        monitor = ActiveMonitor("h0", poor_threshold=2)
        rng = random.Random(5)
        for index in range(20):
            monitor.observe_flow(FlowId(f"s{index}", "h0", index, 80,
                                        PROTO_TCP),
                                 retransmissions=rng.randrange(6),
                                 consecutive=rng.randrange(5),
                                 timeouts=rng.randrange(2),
                                 when=float(index))
        monitor.run_check(now=21.0)
        twin = ActiveMonitor("h0")
        twin.restore(wire.decode_monitor_state(
            wire.encode_monitor_state(monitor.snapshot())))
        assert wire.encode_value(twin.get_poor_tcp_flows()) == \
            wire.encode_value(monitor.get_poor_tcp_flows())
        assert twin.stats.alerts_raised == monitor.stats.alerts_raised
        assert twin.run_check(now=22.0) == []  # latches survived the trip

    def test_monitor_pull_frame(self):
        assert wire.frame_type(wire.encode_monitor_pull()) == \
            wire.MSG_MONITOR_PULL

    def test_result_alarm_piggyback_round_trip(self):
        rng = random.Random(42)
        alarms = tuple(_random_alarm(rng) for _ in range(3))
        query = Query("path_conformance", {"max_hops": 4})
        result = QueryResult(query=query, payload=[], wire_bytes=0,
                             host="h1", alarms=alarms)
        frame = wire.encode_result(result)
        decoded = wire.decode_result(frame, query)
        assert decoded.alarms == alarms
        assert decoded.wire_bytes == len(frame)
        # An alarm-free result costs exactly one count byte for the ride.
        bare = QueryResult(query=query, payload=[], wire_bytes=0, host="h1")
        assert wire.alarms_wire_bytes(()) == 1
        assert wire.alarms_wire_bytes(alarms) == \
            len(frame) - len(wire.encode_result(bare)) + 1

    def test_pong_state_round_trip(self):
        frame = wire.encode_pong(123456, 789)
        assert wire.decode_pong(frame) == (123456, 789, 0, 0, 0, 0)

    def test_pong_tier_stats_round_trip(self):
        frame = wire.encode_pong(500, 7, hot_records=50, hot_bytes=9000,
                                 cold_records=450, cold_bytes=123456)
        assert wire.decode_pong(frame) == (500, 7, 50, 9000, 450, 123456)


class TestTwoTierFrames:
    @pytest.mark.parametrize("bounds", [(None, None), (100, None),
                                        (None, 1 << 40), (0, 0),
                                        (12345, 67890)])
    def test_retention_round_trip(self, bounds):
        frame = wire.encode_retention(*bounds)
        assert wire.frame_type(frame) == wire.MSG_RETENTION
        assert wire.decode_retention(frame) == bounds


BOUNDARY_INTS = [0, 1, -1, 255, 256, 65535, 65536, (1 << 32) - 1, 1 << 32,
                 -(1 << 31), -(1 << 31) - 1, (1 << 63) - 1, 1 << 63,
                 (1 << 64) - 1, 1 << 64, -(1 << 63), -(1 << 63) - 1,
                 1 << 100, -(1 << 99) - 17]


def random_segment_rows(rng, count):
    """Random ``(record id, record)`` rows: unicode node names (NUL and
    empty included), 0-hop and 1-hop paths, repeated and distinct paths,
    boundary ints in every integer column."""
    names = ["h1", "h2", UNICODE_HOST, "sw\x00nul", "", "tor-a", "dst-ü",
             "コア-1"] + [f"sw{i}" for i in range(20)]
    paths = [(), ("h1",), ("h1", "h2")] + [
        tuple(rng.choice(names) for _ in range(rng.randrange(2, 7)))
        for _ in range(6)]

    def integer():
        if rng.random() < 0.15:
            return rng.choice(BOUNDARY_INTS)
        return rng.randrange(1 << rng.choice((7, 15, 31, 40)))

    rows = []
    for _ in range(count):
        flow = FlowId(rng.choice(names), rng.choice(names), integer(),
                      integer(), integer())
        path = rng.choice(paths) if rng.random() < 0.7 else tuple(
            rng.choice(names) for _ in range(rng.randrange(7)))
        stime = rng.choice((0.0, -2.5, 1e308, rng.uniform(0, 1e6)))
        rows.append((integer(), PathFlowRecord(
            flow, path, stime, stime + rng.uniform(0, 50), integer(),
            integer())))
    return rows


def build_segment(rows):
    builder = SegmentBuilder()
    for record_id, record in rows:
        builder.append(record_id, record)
    return builder


class TestSegmentCodec:
    """The cold archive's column-major segment blob: pack -> open -> rows
    equal, measured sizes, the integer domain, and corruption handling."""

    @pytest.mark.parametrize("seed", range(8))
    def test_pack_open_round_trip(self, seed):
        rng = random.Random(seed)
        rows = random_segment_rows(rng, rng.choice((1, 2, 17, 300)))
        builder = build_segment(rows)
        assert builder.records() == rows  # unsealed rows read the same way
        blob = builder.pack()
        for segment in (Segment(blob), builder.seal()):
            assert segment.count == len(rows)
            assert segment.records() == rows
            some = sorted(rng.sample(range(len(rows)),
                                     rng.randrange(len(rows) + 1)))
            assert segment.records(some) == [rows[row] for row in some]
            for row in some[:5]:
                record = rows[row][1]
                assert [segment.cell(index, row) for index in
                        (SEG_STIME, SEG_ETIME, SEG_BYTES, SEG_PKTS)] == \
                    [record.stime, record.etime, record.bytes, record.pkts]
        for _, record in Segment(blob).records():
            assert type(record.flow_id) is FlowId
            assert type(record.path) is tuple

    def test_archive_bytes_is_the_packed_length(self):
        """``archive_bytes()`` is measured: the sealed blobs' ``len`` plus
        the unsealed tail at the size the packer gives it."""
        from repro.storage import ColdArchive
        rng = random.Random(3)
        rows = [(record_id, record) for record_id, (_, record)
                in enumerate(random_segment_rows(rng, 25))]
        archive = ColdArchive(segment_records=10, compact_dead_ratio=None)
        for record_id, record in rows:
            archive.append(record_id, record)
        want = sum(len(build_segment(rows[low:low + 10]).pack())
                   for low in (0, 10, 20))
        assert archive.segment_count == 2
        assert archive.archive_bytes() == want

    @pytest.mark.parametrize("value", BOUNDARY_INTS)
    def test_integer_domain(self, value):
        """Every ``int`` survives: a column is as narrow as its values
        allow (ports cost 2 bytes, not 8) and one 64-bit-overflowing value
        switches only that column of that segment to varints - never a
        truncation, never an error at a later flush or read."""
        narrow = sample_record()
        wide = PathFlowRecord(FlowId("h1", "h2", value, -value, value),
                              ("h1", "tor-a", "h2"), 1.0, 2.0, value,
                              -value)
        rows = [(1, narrow), (value, wide), (3, narrow)]
        blob = build_segment(rows).pack()
        assert Segment(blob).records() == rows
        assert Segment(blob).cell(SEG_BYTES, 1) == value
        # the varint escape is taken by exactly the columns that need it
        codes = blob[8:8 + len(SEGMENT_COLUMNS)].decode()
        escaped = {name for name, code in zip(SEGMENT_COLUMNS, codes)
                   if code == "V"}

        def fits(number):
            return -(1 << 63) <= number < (1 << 64)

        assert escaped == (
            (set() if fits(value) else {"id", "src_port", "protocol",
                                        "bytes"})
            | (set() if fits(-value) else {"dst_port", "pkts"}))

    def test_column_widths_follow_the_values_present(self):
        rows = [(i, sample_record(nbytes=200, pkts=3)) for i in range(100)]
        small = len(build_segment(rows).pack())
        rows[50] = (50, sample_record(nbytes=1 << 40, pkts=3))
        assert len(build_segment(rows).pack()) == small + 7 * 100
        rows[50] = (50, sample_record(nbytes=-1, pkts=3))  # B -> h
        assert len(build_segment(rows).pack()) == small + 100

    def test_truncations_and_garbage_raise_decode_errors(self):
        blob = build_segment(random_segment_rows(random.Random(1), 40)).pack()
        for cut in range(len(blob)):
            with pytest.raises(wire.WireDecodeError):
                Segment(blob[:cut])
        with pytest.raises(wire.WireDecodeError):
            Segment(blob + b"\x00")
        with pytest.raises(wire.WireDecodeError):
            Segment(b"XXXX" + blob[4:])

    def test_bit_flips_never_escape_as_raw_exceptions(self):
        rng = random.Random(20261002)
        rows = random_segment_rows(rng, 40)
        blob = build_segment(rows).pack()
        for _ in range(400):
            data = bytearray(blob)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            try:
                segment = Segment(bytes(data))
                segment.records()
                segment.cell(SEG_PKTS, 39)
            except wire.WireDecodeError:
                pass  # the contract: corruption surfaces as a decode error


class TestControlFrames:
    def test_error(self):
        frame = wire.encode_error("boom: 中")
        assert wire.frame_type(frame) == wire.MSG_ERROR
        assert wire.decode_error(frame) == "boom: 中"

    def test_ping_pong_reset_shutdown_sleep(self):
        assert wire.frame_type(wire.encode_ping()) == wire.MSG_PING
        assert wire.decode_pong(wire.encode_pong(12345))[0] == 12345
        assert wire.frame_type(wire.encode_reset()) == wire.MSG_RESET
        assert wire.frame_type(wire.encode_shutdown()) == wire.MSG_SHUTDOWN
        assert wire.decode_sleep(wire.encode_sleep(0.25)) == 0.25


class TestPlanFrames:
    """Plans on the wire: a ``Plan`` is a tagged value, so a plan query is
    an ordinary ``MSG_QUERY_REQUEST`` and its result an ordinary
    ``MSG_QUERY_RESULT`` whose scan-stat tail is filled."""

    @staticmethod
    def _sample_plan():
        return plan.Plan(ops=(
            plan.Filter(start=1.0, end=9.0, links=(("tor-a", None),),
                        flow_keys=(flow_key(FlowId("a", "b", 1, 2, 6)),),
                        path=("a", "tor-a", "b")),
            plan.Project(fields=("flow", "bytes", "pkts")),
            plan.Aggregate(func="sum", fields=("bytes",), by=("flow",)),
            plan.TopK(k=3),
        ))

    def test_plan_request_round_trip(self):
        query = Query(plan.PLAN_QUERY_NAME, {"plan": self._sample_plan()},
                      period=2.5)
        spec = wire.SubtreeSpec("h0", ("h0", "h1"))
        frame = wire.encode_query_request(query, spec)
        assert wire.frame_type(frame) == wire.MSG_QUERY_REQUEST
        decoded, decoded_spec, _traced = wire.decode_query_request(frame)
        assert decoded.name == plan.PLAN_QUERY_NAME
        assert decoded.params["plan"] == query.params["plan"]
        assert decoded.period == 2.5
        assert decoded_spec == spec

    def test_every_op_round_trips(self):
        """One plan per op kind, through the query request frame."""
        plans = [
            plan.Plan(ops=(plan.Filter(start=0.5),)),
            plan.Plan(ops=(plan.Filter(), plan.Project(fields=("path",)))),
            plan.Plan(ops=(plan.Aggregate(func="histogram",
                                          fields=("bytes",), binsize=100),)),
            plan.Plan(ops=(plan.Aggregate(func="count"),)),
            self._sample_plan(),
        ]
        for sample in plans:
            query = Query(plan.PLAN_QUERY_NAME, {"plan": sample})
            frame = wire.encode_query_request(query, None)
            decoded, spec, _traced = wire.decode_query_request(frame)
            assert decoded.params["plan"] == sample
            assert spec is None

    def test_plan_is_a_tagged_value(self):
        """A plan encodes like any other parameter value: anywhere in a
        container, sized exactly, decoded to an equal plan."""
        sample = self._sample_plan()
        value = {"plans": [sample, plan.Plan(ops=(plan.Filter(),))],
                 "k": 3}
        encoded = wire.encode_value(value)
        assert encoded[0] == wire._V_DICT
        assert wire.decode_value(encoded) == value
        assert wire.value_len(value) == len(encoded)
        assert wire.encode_value(sample)[0] == wire._V_PLAN

    def test_plan_result_round_trip_with_scan_stats(self):
        query = Query(plan.PLAN_QUERY_NAME, {"plan": self._sample_plan()})
        result = QueryResult(
            query=query, payload=[(1000, "a:1|b:2|6")], wire_bytes=0,
            records_scanned=17, host=UNICODE_HOST,
            scan_stats={"hot_flow_routed": 1, "cold_entries_skipped": 9})
        frame = wire.encode_result(result)
        assert wire.frame_type(frame) == wire.MSG_QUERY_RESULT
        decoded = wire.decode_result(frame, query)
        assert decoded.payload == result.payload
        assert decoded.scan_stats == result.scan_stats
        assert decoded.records_scanned == 17
        assert decoded.wire_bytes == len(frame) == \
            wire.result_wire_bytes(result)

    def test_invalid_plan_frame_rejected(self):
        """A structurally decodable but semantically invalid plan (here:
        TopK without a keyed Aggregate) must surface as WireError, not
        slip through to the executor."""
        bad = plan.Plan(ops=(plan.Filter(), plan.TopK(k=2)))
        query = Query(plan.PLAN_QUERY_NAME, {"plan": bad})
        with pytest.raises(wire.WireError, match="invalid plan"):
            wire.decode_query_request(wire.encode_query_request(query, None))

    def test_unknown_op_rejected(self):
        """Only the classes of ``plan.OPS`` encode, and only their codes
        decode."""
        class Phantom(plan.TopK):
            code = 99

        stray = plan.Plan(ops=(plan.Filter(), Phantom(k=1)))
        with pytest.raises(wire.WireError, match="plan op"):
            wire.encode_value(stray)
        with pytest.raises(wire.WireError, match="plan op"):
            wire.value_len(stray)
        frame = bytearray(wire.encode_value(plan.Plan(ops=(plan.Filter(),))))
        assert frame[2] == plan.Filter.code  # tag, op count, op code
        frame[2] = 99
        with pytest.raises(wire.WireError, match="unknown plan op code 99"):
            wire.decode_value(bytes(frame))


class TestFrameValidation:
    def test_bad_magic(self):
        frame = bytearray(wire.encode_ping())
        frame[0] = ord("X")
        with pytest.raises(wire.WireError, match="magic"):
            wire.open_frame(bytes(frame))

    def test_unsupported_version(self):
        frame = bytearray(wire.encode_ping())
        frame[2] = wire.WIRE_VERSION + 1
        with pytest.raises(wire.WireError, match="version"):
            wire.open_frame(bytes(frame))

    def test_truncated_frame(self):
        with pytest.raises(wire.WireError):
            wire.open_frame(b"PD")
        full = wire.encode_record_batch([sample_record()])
        with pytest.raises(wire.WireError):
            wire.decode_record_batch(full[:-3])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(wire.WireError):
            wire.decode_value(wire.encode_value(1) + b"\x00")

    def test_wrong_frame_type_rejected(self):
        with pytest.raises(wire.WireError):
            wire.decode_record_batch(wire.encode_ping())


class TestEstimatorReconciliation:
    """The document store's footprint estimate counts strings the way the
    codec writes them (wire sizes are only ever measured)."""

    def test_string_estimate_counts_utf8_bytes(self):
        # len(str) used to undercount non-ASCII strings; the estimator now
        # matches the codec, which writes UTF-8.
        for text in ["ascii", "hôst", "中心", "\U0001f409"]:
            encoded = text.encode("utf-8")
            assert _estimate_value_bytes(text) == len(encoded) + 1
            # Codec string layout: 1 tag byte + length varint + UTF-8 body,
            # so for short strings the estimate equals measured size - 1.
            assert len(wire.encode_value(text)) == len(encoded) + 2


class TestCorruptionFuzz:
    """Corrupt frames must surface as WireError, never as a raw
    struct.error / IndexError / UnicodeDecodeError leaking out of the
    decoder internals (the pool treats WireError as worker failure; an
    unexpected exception type would crash the caller instead)."""

    @staticmethod
    def _sample_frames():
        rng = random.Random(123)
        query = Query("top_k_flows", {"k": 5, "flow_id":
                                      FlowId("a", "b", 1, 2, 6)})
        result = QueryResult(query=query, payload={"x": [1, (2, 3)]},
                             wire_bytes=0, host=UNICODE_HOST,
                             alarms=(_random_alarm(rng),))
        snapshot = MonitorSnapshot(
            host=UNICODE_HOST, period=0.2, poor_threshold=3,
            alerts_raised=7,
            flows=tuple(_random_flow_stats(rng) for _ in range(3)))
        spec = wire.SubtreeSpec("h0", ("h0", "h1"))
        return [
            (wire.encode_value({"k": (1, "two", None)}), wire.decode_value),
            (wire.encode_query_request(query, spec),
             wire.decode_query_request),
            (wire.encode_subtree_spec(spec), wire.decode_subtree_spec),
            (wire.encode_record_batch([sample_record(),
                                       sample_record(path=())]),
             wire.decode_record_batch),
            (wire.encode_result(result),
             lambda data: wire.decode_result(data, query)),
            (wire.encode_error("boom: 中"), wire.decode_error),
            (wire.encode_pong(123, 45, hot_records=1, hot_bytes=2,
                              cold_records=3, cold_bytes=4),
             wire.decode_pong),
            (wire.encode_retention(100, 1 << 40), wire.decode_retention),
            (wire.encode_sleep(0.5), wire.decode_sleep),
            (wire.encode_alarm_batch([_random_alarm(rng)]),
             wire.decode_alarm_batch),
            (wire.encode_observation_batch([_random_observation(rng)]),
             wire.decode_observation_batch),
            (wire.encode_monitor_tick(1.5, 3), wire.decode_monitor_tick),
            (wire.encode_monitor_state(snapshot),
             wire.decode_monitor_state),
            (wire.encode_query_request(
                Query(plan.PLAN_QUERY_NAME,
                      {"plan": TestPlanFrames._sample_plan()}), spec),
             wire.decode_query_request),
            (wire.encode_result(QueryResult(
                query=Query(plan.PLAN_QUERY_NAME,
                            {"plan": TestPlanFrames._sample_plan()}),
                payload=[(9, "k")], wire_bytes=0, host=UNICODE_HOST,
                scan_stats={"hot_flow_routed": 2})),
             wire.decode_result),
        ]

    def _assert_decodes_or_wire_error(self, decoder, data):
        try:
            decoder(data)
        except wire.WireError:
            pass  # the contract: corruption surfaces as WireError

    def test_every_truncation_point(self):
        for frame, decoder in self._sample_frames():
            for cut in range(len(frame)):
                self._assert_decodes_or_wire_error(decoder, frame[:cut])

    def test_bit_flips(self):
        rng = random.Random(20260808)
        for frame, decoder in self._sample_frames():
            for _ in range(120):
                data = bytearray(frame)
                position = rng.randrange(len(data))
                data[position] ^= 1 << rng.randrange(8)
                self._assert_decodes_or_wire_error(decoder, bytes(data))

    def test_garbage_frames(self):
        rng = random.Random(7)
        for _, decoder in self._sample_frames():
            for size in (0, 1, 4, 17, 200):
                blob = bytes(rng.getrandbits(8) for _ in range(size))
                self._assert_decodes_or_wire_error(decoder, blob)
                # Same garbage behind a valid-looking header.
                framed = wire.encode_ping()[:wire.HEADER_BYTES] + blob
                self._assert_decodes_or_wire_error(decoder, framed)

    def test_decode_error_is_a_wire_error(self):
        assert issubclass(wire.WireDecodeError, wire.WireError)
        frame = wire.encode_record_batch([sample_record()])
        with pytest.raises(wire.WireError):
            wire.decode_record_batch(frame[:-3])


class TestGroupTransportFrames:
    """The worker connection's envelopes: MSG_GROUP_BATCH coalesces
    per-host frames, MSG_CLOSE_TORN arms the chaos harness's torn-close
    fault."""

    @pytest.mark.parametrize("correlation_id", [0, 1, 127, 128, 1 << 32])
    def test_group_batch_round_trip(self, correlation_id):
        entries = [("server-0", wire.encode_ping()),
                   (UNICODE_HOST, wire.encode_monitor_tick(1.5, 3)),
                   ("server-2", wire.encode_query_request(
                       Query("top_k_flows", {"k": 5}), None))]
        frame = wire.encode_group_batch(correlation_id, entries)
        assert wire.frame_type(frame) == wire.MSG_GROUP_BATCH
        decoded_id, decoded = wire.decode_group_batch(frame)
        assert decoded_id == correlation_id
        assert decoded == entries

    def test_group_batch_coalescing_amortizes_headers(self):
        """The envelope's whole point: N inner frames cost one outer
        header, so the envelope is smaller than N separately-streamed
        frames."""
        tick = wire.encode_monitor_tick(2.0, None)
        entries = [(f"server-{i}", tick) for i in range(16)]
        envelope = wire.stream_frame(wire.encode_group_batch(0, entries))
        naive = sum(len(wire.stream_frame(tick)) for _ in entries)
        naive += 16 * len("server-00")  # naive still has to address hosts
        assert len(envelope) < naive

    def test_group_batch_rejects_headerless_entry(self):
        good = wire.encode_group_batch(1, [("h", wire.encode_ping())])
        # Re-encode with a 2-byte inner "frame": shorter than a header.
        bad = bytearray()
        bad += good[:wire.HEADER_BYTES]
        body = bytearray()
        body += b"\x01\x01"  # correlation id 1, one entry
        body += b"\x01h"     # host "h"
        body += b"\x02" + wire.MAGIC  # 2-byte inner blob
        bad += body
        with pytest.raises(wire.WireError, match="shorter than a frame"):
            wire.decode_group_batch(bytes(bad))

    def test_group_batch_truncations_surface_as_wire_error(self):
        frame = wire.encode_group_batch(
            7, [("server-0", wire.encode_ping()),
                ("server-1", wire.encode_pong(3))])
        for cut in range(len(frame)):
            with pytest.raises(wire.WireError):
                wire.decode_group_batch(frame[:cut])

    def test_close_torn_is_payloadless(self):
        frame = wire.encode_close_torn()
        assert wire.frame_type(frame) == wire.MSG_CLOSE_TORN
        assert len(frame) == wire.HEADER_BYTES


class TestStreamFraming:
    """The length-prefixed stream layer under every worker connection.

    A stream has no message boundaries, so every frame travels
    behind a fixed-size length prefix and the reader must survive
    arbitrary ``recv`` segmentation - and *reject*, not mis-parse,
    truncated or oversized or corrupt frames.
    """

    def _frames(self):
        return [wire.encode_ping(),
                wire.encode_group_batch(3, [
                    ("server-0", wire.encode_monitor_tick(1.0, None)),
                    (UNICODE_HOST, wire.encode_pong(17))]),
                wire.encode_error("boom")]

    def test_round_trip_single_feed(self):
        frames = self._frames()
        blob = b"".join(wire.stream_frame(f) for f in frames)
        reader = wire.StreamFrameReader()
        assert reader.feed(blob) == frames
        reader.eof()  # clean boundary: no dangling bytes

    def test_round_trip_every_split_point(self):
        """Reassembly is segmentation-independent: any split of the byte
        stream yields the same frames."""
        frames = self._frames()
        blob = b"".join(wire.stream_frame(f) for f in frames)
        for cut in range(len(blob) + 1):
            reader = wire.StreamFrameReader()
            got = reader.feed(blob[:cut]) + reader.feed(blob[cut:])
            assert got == frames
            reader.eof()

    def test_byte_at_a_time(self):
        frames = self._frames()
        blob = b"".join(wire.stream_frame(f) for f in frames)
        reader = wire.StreamFrameReader()
        got = []
        for i in range(len(blob)):
            got += reader.feed(blob[i:i + 1])
        assert got == frames

    def test_eof_mid_length_prefix(self):
        reader = wire.StreamFrameReader()
        reader.feed(wire.stream_frame(wire.encode_ping())[:2])
        assert reader.pending_bytes == 2
        with pytest.raises(wire.WireDecodeError, match="truncated"):
            reader.eof()

    def test_eof_mid_body(self):
        reader = wire.StreamFrameReader()
        reader.feed(wire.stream_frame(self._frames()[1])[:-3])
        with pytest.raises(wire.WireDecodeError, match="truncated"):
            reader.eof()

    def test_oversized_length_prefix_rejected(self):
        reader = wire.StreamFrameReader()
        huge = wire._STREAM_PREFIX.pack(wire.MAX_FRAME_BYTES + 1)
        with pytest.raises(wire.WireDecodeError, match="cap"):
            reader.feed(huge + b"xxxx")

    def test_undersized_length_prefix_rejected(self):
        reader = wire.StreamFrameReader()
        tiny = wire._STREAM_PREFIX.pack(wire.HEADER_BYTES - 1)
        with pytest.raises(wire.WireDecodeError, match="shorter"):
            reader.feed(tiny + b"xxxx")

    def test_garbage_after_valid_envelope(self):
        """A valid frame followed by garbage: the good frame is delivered,
        the garbage poisons the reader on its completed 'frame'."""
        good = wire.stream_frame(self._frames()[1])
        garbage = wire.stream_frame(wire.encode_ping())
        garbage = garbage[:wire.STREAM_PREFIX_BYTES] + b"XXXX"
        reader = wire.StreamFrameReader()
        frames = reader.feed(good)
        assert frames == [self._frames()[1]]
        with pytest.raises(wire.WireDecodeError, match="corrupt frame"):
            reader.feed(garbage)

    def test_poisoned_reader_stays_poisoned(self):
        reader = wire.StreamFrameReader()
        with pytest.raises(wire.WireDecodeError):
            reader.feed(wire._STREAM_PREFIX.pack(1) + b"x")
        with pytest.raises(wire.WireDecodeError, match="already failed"):
            reader.feed(wire.stream_frame(wire.encode_ping()))
        with pytest.raises(wire.WireDecodeError, match="already failed"):
            reader.eof()

    def test_stream_frame_rejects_unframeable_blobs(self):
        with pytest.raises(wire.WireError, match="shorter"):
            wire.stream_frame(b"PD")
        # (the MAX_FRAME_BYTES reject is exercised reader-side above; the
        # writer-side check shares the same constant)

    def test_fuzz_segmented_streams(self):
        """Random frame sequences through random segmentation: everything
        valid reassembles exactly; random tail truncation always surfaces
        as WireDecodeError at eof, never a mis-parse."""
        rng = random.Random(20260808)
        pool = self._frames() + [
            wire.encode_record_batch([sample_record()])]
        for _ in range(60):
            frames = [rng.choice(pool)
                      for _ in range(rng.randrange(1, 6))]
            blob = b"".join(wire.stream_frame(f) for f in frames)
            reader = wire.StreamFrameReader()
            got, position = [], 0
            while position < len(blob):
                step = rng.randrange(1, 40)
                got += reader.feed(blob[position:position + step])
                position += step
            assert got == frames
            reader.eof()
            # now truncate the tail mid-frame and expect a loud eof
            cut = rng.randrange(len(blob))
            reader = wire.StreamFrameReader()
            got = reader.feed(blob[:cut])
            assert all(a == b for a, b in zip(frames, got))
            if cut % (len(blob)) and reader.pending_bytes:
                with pytest.raises(wire.WireDecodeError):
                    reader.eof()


# --------------------------------------------------------------------------
# Golden frames: the codec's bytes, pinned
# --------------------------------------------------------------------------
# The reader, writers and sizers are written for speed (leaves inline, one
# call per container), so what they must keep is pinned from outside: at
# least one frame per MSG_* type and one value per tag, whose hex was
# generated by the codec as it stood before that rewrite (commit d1f8568;
# MSG_MONITOR_REOPEN, which that commit lacks, is a bare header) and is
# asserted byte for byte.  Wire version 7 changed the layout of the rows in
# GOLDEN_V7_ROWS (plans became tagged values, results lost their size
# estimate and gained the scan-stat tail), and version 8 that of the rows
# in GOLDEN_V8_ROWS (alarm lists write each string once; an alarm batch
# ends with its span tail): those rows hold the bytes of their version,
# and every other row still holds the version-6 bytes, which must equal
# today's frame once ``_reversioned`` rewrites their header version bytes.
GOLDEN_FLOW = FlowId("hôst-a", "server-42", 43210, 80, PROTO_TCP)
GOLDEN_SPEC = wire.SubtreeSpec("h0", ("h0", "h1", UNICODE_HOST))
GOLDEN_TOPK_QUERY = Query("top_k_flows", {"k": 40})
GOLDEN_PLAN_QUERY = Query(plan.PLAN_QUERY_NAME, {"plan": plan.Plan(ops=(
    plan.Filter(start=1.0, end=9.0, links=(("tor-a", None),),
                flow_keys=(flow_key(FlowId("a", "b", 1, 2, 6)),),
                path=("a", "tor-a", "b")),
    plan.Project(fields=("flow", "bytes", "pkts")),
    plan.Aggregate(func="sum", fields=("bytes",), by=("flow",)),
    plan.TopK(k=3)))}, period=2.5)


def golden_alarms(count=4):
    """What one host's tick replies with: POOR_PERF alarms, no paths - and
    one PC_FAIL with paths, so the path legs are pinned too."""
    alarms = [Alarm(flow_id=FlowId("server-3", f"server-{9 + i}", 40000 + i,
                                   80, PROTO_TCP),
                    reason=POOR_PERF, paths=[], host="server-3", time=12.5,
                    detail=f"retx={9 + i}, streak=5, timeouts=1")
              for i in range(count - 1)]
    alarms.append(Alarm(flow_id=GOLDEN_FLOW, reason="PC_FAIL",
                        paths=[("hôst-a", "tor-1", "server-42"), ()],
                        host=UNICODE_HOST, time=0.25, detail=""))
    return alarms


def golden_topk_result(pairs=40):
    payload = [(1_000_000 - 997 * i, f"h{i}:{4000 + i}|h{i + 1}:80|6")
               for i in range(pairs)]
    return QueryResult(query=GOLDEN_TOPK_QUERY, payload=payload, wire_bytes=0,
                       records_scanned=40, host="server-17")


def golden_plan_result():
    return QueryResult(query=GOLDEN_PLAN_QUERY,
                       payload=[(1000, "a:1|b:2|6"), (-7, "中:0|b:2|17")],
                       wire_bytes=0, records_scanned=300, host=UNICODE_HOST,
                       alarms=tuple(golden_alarms()[-1:]),
                       scan_stats={"hot_flow_routed": 1,
                                   "cold_entries_skipped": 4096,
                                   "cold_segments_skipped": 0})


def golden_records():
    return [sample_record(), sample_record(path=()),
            sample_record(nbytes=1 << 80, pkts=1 << 70),
            PathFlowRecord(FlowId(UNICODE_HOST, "dst-ü", 0, 0, PROTO_UDP),
                           (UNICODE_HOST, "sw", "dst-ü"), 0.0, -2.5, -1, 200)]


def golden_snapshot():
    return MonitorSnapshot(
        host=UNICODE_HOST, period=0.2, poor_threshold=3, alerts_raised=130,
        flows=(TcpFlowStats(GOLDEN_FLOW, 9, 5, 5, 1, 1 << 40, 12.5, True),
               TcpFlowStats(FlowId("a", "b", 1, 2, 6))))


def golden_observations():
    return [TransferObservation(GOLDEN_FLOW, 9, 5, 1, 1 << 33, 12.5),
            TransferObservation(FlowId("a", "b", 1, 2, 6), 0, 0, 0, 0, 0.0)]


def _golden_frames():
    """``{name: (frame, decoder, decoded)}`` - one frame per MSG_* type."""
    topk = golden_topk_result()
    planned = golden_plan_result()
    request = Query("top_k_flows",
                    {"k": 50, "time_range": (None, 12.5),
                     "flow_id": GOLDEN_FLOW, "forbidden": {"sw-1", "sw-2"}},
                    period=1.5)
    entries = [("server-0", wire.encode_ping()),
               (UNICODE_HOST, wire.encode_monitor_tick(1.5, 3)),
               ("server-2", wire.encode_query(GOLDEN_TOPK_QUERY))]
    group_tick = [(wire.EVERY_HOST, wire.encode_monitor_tick(1.5, 3))]
    group_alarms = [(wire.EVERY_HOST, wire.encode_alarm_batch(
        golden_alarms()))]
    group_reopen = [(wire.EVERY_HOST, wire.encode_monitor_reopen())]

    def result_fields(result):
        return (result.query.name, result.payload, result.records_scanned,
                result.host, result.alarms, result.scan_stats)

    return {
        "query_request": (
            wire.encode_query_request(request, GOLDEN_SPEC),
            wire.decode_query_request, (request, GOLDEN_SPEC, False)),
        "subtree_spec": (wire.encode_subtree_spec(GOLDEN_SPEC),
                         wire.decode_subtree_spec, GOLDEN_SPEC),
        "record_batch": (wire.encode_record_batch(golden_records()),
                         wire.decode_record_batch, golden_records()),
        "query_result": (
            wire.encode_result(topk),
            lambda data: result_fields(
                wire.decode_result(data, GOLDEN_TOPK_QUERY)),
            result_fields(topk)),
        "error": (wire.encode_error("boom: 中"), wire.decode_error,
                  "boom: 中"),
        "ping": (wire.encode_ping(), wire.frame_type, wire.MSG_PING),
        "pong": (wire.encode_pong(500, 7, hot_records=50, hot_bytes=9000,
                                  cold_records=450, cold_bytes=123456),
                 wire.decode_pong, (500, 7, 50, 9000, 450, 123456)),
        "reset": (wire.encode_reset(), wire.frame_type, wire.MSG_RESET),
        "shutdown": (wire.encode_shutdown(), wire.frame_type,
                     wire.MSG_SHUTDOWN),
        "sleep": (wire.encode_sleep(0.25), wire.decode_sleep, 0.25),
        "observation_batch": (
            wire.encode_observation_batch(golden_observations()),
            wire.decode_observation_batch, golden_observations()),
        "monitor_tick": (wire.encode_monitor_tick(1.5, 3),
                         wire.decode_monitor_tick, (1.5, 3, False)),
        "alarm_batch": (wire.encode_alarm_batch(golden_alarms()),
                        wire.decode_alarm_batch, golden_alarms()),
        "monitor_state": (wire.encode_monitor_state(golden_snapshot()),
                          wire.decode_monitor_state, golden_snapshot()),
        "monitor_pull": (wire.encode_monitor_pull(), wire.frame_type,
                         wire.MSG_MONITOR_PULL),
        "retention": (wire.encode_retention(100, 1 << 40),
                      wire.decode_retention, (100, 1 << 40)),
        "group_batch": (wire.encode_group_batch(300, entries),
                        wire.decode_group_batch, (300, entries)),
        "close_torn": (wire.encode_close_torn(), wire.frame_type,
                       wire.MSG_CLOSE_TORN),
        # A plan query is an ordinary request carrying the plan as a
        # parameter, and its result an ordinary result with a stat tail.
        "plan_request": (
            wire.encode_query_request(GOLDEN_PLAN_QUERY, GOLDEN_SPEC),
            wire.decode_query_request,
            (GOLDEN_PLAN_QUERY, GOLDEN_SPEC, False)),
        "plan_result": (
            wire.encode_result(planned),
            lambda data: result_fields(
                wire.decode_result(data, GOLDEN_PLAN_QUERY)),
            result_fields(planned)),
        "monitor_reopen": (wire.encode_monitor_reopen(), wire.frame_type,
                           wire.MSG_MONITOR_REOPEN),
        # A sweep's tick and a re-open address every host of a worker: one
        # entry for the whole shard, the tick's reply one alarm batch.
        "group_tick": (wire.encode_group_batch(1, group_tick),
                       wire.decode_group_batch, (1, group_tick)),
        "group_alarm_batch": (wire.encode_group_batch(1, group_alarms),
                              wire.decode_group_batch, (1, group_alarms)),
        "group_reopen": (wire.encode_group_batch(0, group_reopen),
                         wire.decode_group_batch, (0, group_reopen)),
    }


#: One value per tag (and per interesting width of each).
GOLDEN_VALUES = {
    "none": None, "true": True, "false": False,
    "int_one_byte": 63, "int_two_bytes": 64, "int_negative": -1,
    "int_negative_wide": -(1 << 31) - 1, "int_past_2_70": (1 << 70) + 12345,
    "int_negative_past_2_70": -(1 << 99) - 17,
    "float": -2.5, "float_huge": 1e308,
    "str_empty": "", "str_short": "plain", "str_utf8": "hôst-中心-\U0001f409",
    "str_127_bytes": "x" * 127, "str_128_bytes": "é" * 64,
    "str_long": "path/" * 60,
    "bytes": b"\x00\xff raw", "bytes_long": bytes(range(200)),
    "list_empty": [], "list_mixed": [1, "two", None, 3.5, True, b"4"],
    "list_128": list(range(-64, 64)),
    "tuple_nested": ("a", ("b", ("c", ())), [("d",)]),
    "tuple_300": tuple(f"sw{i}" for i in range(300)),
    "dict_nested": {"k": 1, ("tor", 3): [1, 2],
                    "deep": {"s": {3, 1, 2}, "fs": frozenset({"y", "x"}),
                             "f": GOLDEN_FLOW}},
    "dict_200": {("tor-%d" % (i % 7), i): i * i for i in range(200)},
    "set": {"x", "y", "zz", "w"}, "frozenset": frozenset({1, 1 << 40, -5}),
    "flow_id": GOLDEN_FLOW,
    "flows_and_paths": [(GOLDEN_FLOW, ("hôst-a", "tor-1", "server-42")),
                        (FlowId("a", "b", 1, 2, 6), ())],
    "plan": GOLDEN_PLAN_QUERY.params["plan"],
}


#: The rows generated by a version-7 codec: those whose layout wire
#: version 7 changed (less the two wire version 8 changed again), and the
#: group-addressed entries (generated by the codec of commit 7d4710f,
#: which could already encode an empty host but gave it no meaning).
GOLDEN_V7_ROWS = ("plan_request", "query_result", "group_tick",
                  "group_reopen")
#: The rows generated by the version-8 codec: the frames that carry an
#: alarm list (an alarm batch, alone and in an envelope, and a result
#: with a non-empty alarm tail), whose strings became refs, the batch
#: gaining its span tail.  (``query_result``'s alarm tail is empty - one
#: ``0`` byte in either version - so it keeps its version-7 bytes.)
#: Every other row below was generated at version 6.
GOLDEN_V8_ROWS = ("alarm_batch", "group_alarm_batch", "plan_result")

# Generated by the codec of commit d1f8568 from the inputs above, except
# GOLDEN_V7_ROWS, GOLDEN_V8_ROWS and the "plan" value.
GOLDEN_FRAME_HEX = {
    "query_request":
        "504406010b746f705f6b5f666c6f777304016b03640a74696d655f72616e6765"
        "08020004000000000000294007666c6f775f69640c0768c3b473742d61097365"
        "727665722d343294a305a0010c09666f7262696464656e0a02050473772d3105"
        "0473772d3204000000000000f83f01026830030268300268310e68c3b473742d"
        "e4b8ade5bf832d39",
    "subtree_spec":
        "50440602026830030268300268310e68c3b473742de4b8ade5bf832d39",
    "record_batch":
        "504406030402683102683294a305a0010c0302683105746f722d610268320000"
        "00000000f43f0000000000002340a4130602683102683294a305a0010c000000"
        "00000000f43f0000000000002340a4130602683102683294a305a0010c030268"
        "3105746f722d61026832000000000000f43f0000000000002340808080808080"
        "80808080801080808080808080808080020e68c3b473742de4b8ade5bf832d39"
        "066473742dc3bc000022030e68c3b473742de4b8ade5bf832d39027377066473"
        "742dc3bc000000000000000000000000000004c0019003",
    "query_result":
        "504407040b746f705f6b5f666c6f7773097365727665722d3137500728080203"
        "80897a050f68303a343030307c68313a38307c36080203b6f979050f68313a34"
        "3030317c68323a38307c36080203ece979050f68323a343030327c68333a3830"
        "7c36080203a2da79050f68333a343030337c68343a38307c36080203d8ca7905"
        "0f68343a343030347c68353a38307c360802038ebb79050f68353a343030357c"
        "68363a38307c36080203c4ab79050f68363a343030367c68373a38307c360802"
        "03fa9b79050f68373a343030377c68383a38307c36080203b08c79050f68383a"
        "343030387c68393a38307c36080203e6fc78051068393a343030397c6831303a"
        "38307c360802039ced7805116831303a343031307c6831313a38307c36080203"
        "d2dd7805116831313a343031317c6831323a38307c3608020388ce7805116831"
        "323a343031327c6831333a38307c36080203bebe7805116831333a343031337c"
        "6831343a38307c36080203f4ae7805116831343a343031347c6831353a38307c"
        "36080203aa9f7805116831353a343031357c6831363a38307c36080203e08f78"
        "05116831363a343031367c6831373a38307c3608020396807805116831373a34"
        "3031377c6831383a38307c36080203ccf07705116831383a343031387c683139"
        "3a38307c3608020382e17705116831393a343031397c6832303a38307c360802"
        "03b8d17705116832303a343032307c6832313a38307c36080203eec177051168"
        "32313a343032317c6832323a38307c36080203a4b27705116832323a34303232"
        "7c6832333a38307c36080203daa27705116832333a343032337c6832343a3830"
        "7c3608020390937705116832343a343032347c6832353a38307c36080203c683"
        "7705116832353a343032357c6832363a38307c36080203fcf37605116832363a"
        "343032367c6832373a38307c36080203b2e47605116832373a343032377c6832"
        "383a38307c36080203e8d47605116832383a343032387c6832393a38307c3608"
        "02039ec57605116832393a343032397c6833303a38307c36080203d4b5760511"
        "6833303a343033307c6833313a38307c360802038aa67605116833313a343033"
        "317c6833323a38307c36080203c0967605116833323a343033327c6833333a38"
        "307c36080203f6867605116833333a343033337c6833343a38307c36080203ac"
        "f77505116833343a343033347c6833353a38307c36080203e2e7750511683335"
        "3a343033357c6833363a38307c3608020398d87505116833363a343033367c68"
        "33373a38307c36080203cec87505116833373a343033377c6833383a38307c36"
        "08020384b97505116833383a343033387c6833393a38307c36080203baa97505"
        "116833393a343033397c6834303a38307c360000",
    "error": "5044060509626f6f6d3a20e4b8ad",
    "ping": "50440606",
    "pong": "50440607f4030732a846c203c0c407",
    "reset": "50440608",
    "shutdown": "50440609",
    "sleep": "5044060a000000000000d03f",
    "observation_batch":
        "5044060b020768c3b473742d61097365727665722d343294a305a0010c120a02"
        "808080804000000000000029400161016202040c000000000000000000000000",
    "monitor_tick": "5044060c000000000000f83f0106",
    "alarm_batch":
        "5044080d0400087365727665722d3300087365727665722d390009504f4f525f"
        "5045524601001c726574783d392c2073747265616b3d352c2074696d656f7574"
        "733d3180f104a0010c0000000000002940000100097365727665722d31300301"
        "001d726574783d31302c2073747265616b3d352c2074696d656f7574733d3182"
        "f104a0010c0000000000002940000100097365727665722d31310301001d7265"
        "74783d31312c2073747265616b3d352c2074696d656f7574733d3184f104a001"
        "0c000000000000294000000768c3b473742d6100097365727665722d34320007"
        "50435f4641494c000e68c3b473742de4b8ade5bf832d39000094a305a0010c00"
        "0000000000d03f0203090005746f722d310a0000",
    "monitor_state":
        "5044060e0e68c3b473742de4b8ade5bf832d399a9999999999c93f0684020207"
        "68c3b473742d61097365727665722d343294a305a0010c120a0a028080808080"
        "400000000000002940010161016202040c0000000000000000000000000000",
    "monitor_pull": "5044060f",
    "retention": "50440610016401808080808020",
    "group_batch":
        "50440612ac0203087365727665722d3004504406060e68c3b473742de4b8ade5"
        "bf832d390e5044060c000000000000f83f0106087365727665722d3217504406"
        "010b746f705f6b5f666c6f777301016b03500000",
    "close_torn": "50440613",
    "plan_request":
        "5044070104706c616e0104706c616e0d040104000000000000f03f0400000000"
        "00002240080108020505746f722d610008010509613a317c623a327c36080305"
        "01610505746f722d610501620208030504666c6f77050562797465730504706b"
        "747303050373756d08010505627974657308010504666c6f7703020403060505"
        "76616c756505046465736304000000000000044001026830030268300268310e"
        "68c3b473742de4b8ade5bf832d39",
    "plan_result":
        "5044080404706c616e0e68c3b473742de4b8ade5bf832d39d8040702080203d0"
        "0f0509613a317c623a327c360802030d050ce4b8ad3a307c623a327c31370100"
        "0768c3b473742d6100097365727665722d3432000750435f4641494c000e68c3"
        "b473742de4b8ade5bf832d39000094a305a0010c000000000000d03f02030100"
        "05746f722d3102000314636f6c645f656e74726965735f736b69707065648040"
        "15636f6c645f7365676d656e74735f736b6970706564000f686f745f666c6f77"
        "5f726f7574656402",
    "monitor_reopen": "50440616",
    "group_tick": "504407120101000e5044070c000000000000f83f0106",
    "group_alarm_batch":
        "5044081201010094025044080d0400087365727665722d330008736572766572"
        "2d390009504f4f525f5045524601001c726574783d392c2073747265616b3d35"
        "2c2074696d656f7574733d3180f104a0010c0000000000002940000100097365"
        "727665722d31300301001d726574783d31302c2073747265616b3d352c207469"
        "6d656f7574733d3182f104a0010c000000000000294000010009736572766572"
        "2d31310301001d726574783d31312c2073747265616b3d352c2074696d656f75"
        "74733d3184f104a0010c000000000000294000000768c3b473742d6100097365"
        "727665722d3432000750435f4641494c000e68c3b473742de4b8ade5bf832d39"
        "000094a305a0010c000000000000d03f0203090005746f722d310a0000",
    "group_reopen": "504407120001000450440716",
}


GOLDEN_VALUE_HEX = {
    "none": "00",
    "true": "01",
    "false": "02",
    "int_one_byte": "037e",
    "int_two_bytes": "038001",
    "int_negative": "0301",
    "int_negative_wide": "038180808010",
    "int_past_2_70": "03f2c0818080808080808002",
    "int_negative_past_2_70": "03a18080808080808080808080808004",
    "float": "0400000000000004c0",
    "float_huge": "04a0c8eb85f3cce17f",
    "str_empty": "0500",
    "str_short": "0505706c61696e",
    "str_utf8": "051168c3b473742de4b8ade5bf832df09f9089",
    "str_127_bytes":
        "057f787878787878787878787878787878787878787878787878787878787878"
        "7878787878787878787878787878787878787878787878787878787878787878"
        "7878787878787878787878787878787878787878787878787878787878787878"
        "7878787878787878787878787878787878787878787878787878787878787878"
        "78",
    "str_128_bytes":
        "058001c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3"
        "a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3"
        "a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3"
        "a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3"
        "a9c3a9",
    "str_long":
        "05ac02706174682f706174682f706174682f706174682f706174682f70617468"
        "2f706174682f706174682f706174682f706174682f706174682f706174682f70"
        "6174682f706174682f706174682f706174682f706174682f706174682f706174"
        "682f706174682f706174682f706174682f706174682f706174682f706174682f"
        "706174682f706174682f706174682f706174682f706174682f706174682f7061"
        "74682f706174682f706174682f706174682f706174682f706174682f70617468"
        "2f706174682f706174682f706174682f706174682f706174682f706174682f70"
        "6174682f706174682f706174682f706174682f706174682f706174682f706174"
        "682f706174682f706174682f706174682f706174682f706174682f706174682f"
        "706174682f706174682f706174682f",
    "bytes": "060600ff20726177",
    "bytes_long":
        "06c801000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c"
        "1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c"
        "3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c"
        "5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c"
        "7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c"
        "9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbc"
        "bdbebfc0c1c2c3c4c5c6c7",
    "list_empty": "0700",
    "list_mixed": "07060302050374776f00040000000000000c4001060134",
    "list_128":
        "078001037f037d037b03790377037503730371036f036d036b03690367036503"
        "630361035f035d035b03590357035503530351034f034d034b03490347034503"
        "430341033f033d033b03390337033503330331032f032d032b03290327032503"
        "230321031f031d031b03190317031503130311030f030d030b03090307030503"
        "03030103000302030403060308030a030c030e03100312031403160318031a03"
        "1c031e03200322032403260328032a032c032e03300332033403360338033a03"
        "3c033e03400342034403460348034a034c034e03500352035403560358035a03"
        "5c035e03600362036403660368036a036c036e03700372037403760378037a03"
        "7c037e",
    "tuple_nested":
        "080305016108020501620802050163080007010801050164",
    "tuple_300":
        "08ac020503737730050373773105037377320503737733050373773405037377"
        "3505037377360503737737050373773805037377390504737731300504737731"
        "3105047377313205047377313305047377313405047377313505047377313605"
        "0473773137050473773138050473773139050473773230050473773231050473"
        "7732320504737732330504737732340504737732350504737732360504737732"
        "3705047377323805047377323905047377333005047377333105047377333205"
        "0473773333050473773334050473773335050473773336050473773337050473"
        "7733380504737733390504737734300504737734310504737734320504737734"
        "3305047377343405047377343505047377343605047377343705047377343805"
        "0473773439050473773530050473773531050473773532050473773533050473"
        "7735340504737735350504737735360504737735370504737735380504737735"
        "3905047377363005047377363105047377363205047377363305047377363405"
        "0473773635050473773636050473773637050473773638050473773639050473"
        "7737300504737737310504737737320504737737330504737737340504737737"
        "3505047377373605047377373705047377373805047377373905047377383005"
        "0473773831050473773832050473773833050473773834050473773835050473"
        "7738360504737738370504737738380504737738390504737739300504737739"
        "3105047377393205047377393305047377393405047377393505047377393605"
        "0473773937050473773938050473773939050573773130300505737731303105"
        "0573773130320505737731303305057377313034050573773130350505737731"
        "3036050573773130370505737731303805057377313039050573773131300505"
        "7377313131050573773131320505737731313305057377313134050573773131"
        "3505057377313136050573773131370505737731313805057377313139050573"
        "7731323005057377313231050573773132320505737731323305057377313234"
        "0505737731323505057377313236050573773132370505737731323805057377"
        "3132390505737731333005057377313331050573773133320505737731333305"
        "0573773133340505737731333505057377313336050573773133370505737731"
        "3338050573773133390505737731343005057377313431050573773134320505"
        "7377313433050573773134340505737731343505057377313436050573773134"
        "3705057377313438050573773134390505737731353005057377313531050573"
        "7731353205057377313533050573773135340505737731353505057377313536"
        "0505737731353705057377313538050573773135390505737731363005057377"
        "3136310505737731363205057377313633050573773136340505737731363505"
        "0573773136360505737731363705057377313638050573773136390505737731"
        "3730050573773137310505737731373205057377313733050573773137340505"
        "7377313735050573773137360505737731373705057377313738050573773137"
        "3905057377313830050573773138310505737731383205057377313833050573"
        "7731383405057377313835050573773138360505737731383705057377313838"
        "0505737731383905057377313930050573773139310505737731393205057377"
        "3139330505737731393405057377313935050573773139360505737731393705"
        "0573773139380505737731393905057377323030050573773230310505737732"
        "3032050573773230330505737732303405057377323035050573773230360505"
        "7377323037050573773230380505737732303905057377323130050573773231"
        "3105057377323132050573773231330505737732313405057377323135050573"
        "7732313605057377323137050573773231380505737732313905057377323230"
        "0505737732323105057377323232050573773232330505737732323405057377"
        "3232350505737732323605057377323237050573773232380505737732323905"
        "0573773233300505737732333105057377323332050573773233330505737732"
        "3334050573773233350505737732333605057377323337050573773233380505"
        "7377323339050573773234300505737732343105057377323432050573773234"
        "3305057377323434050573773234350505737732343605057377323437050573"
        "7732343805057377323439050573773235300505737732353105057377323532"
        "0505737732353305057377323534050573773235350505737732353605057377"
        "3235370505737732353805057377323539050573773236300505737732363105"
        "0573773236320505737732363305057377323634050573773236350505737732"
        "3636050573773236370505737732363805057377323639050573773237300505"
        "7377323731050573773237320505737732373305057377323734050573773237"
        "3505057377323736050573773237370505737732373805057377323739050573"
        "7732383005057377323831050573773238320505737732383305057377323834"
        "0505737732383505057377323836050573773238370505737732383805057377"
        "3238390505737732393005057377323931050573773239320505737732393305"
        "0573773239340505737732393505057377323936050573773239370505737732"
        "393805057377323939",
    "dict_nested":
        "090305016b030208020503746f72030607020302030405046465657009030501"
        "730a03030203040306050266730b020501780501790501660c0768c3b473742d"
        "61097365727665722d343294a305a0010c",
    "dict_200":
        "09c80108020505746f722d300300030008020505746f722d3103020302080205"
        "05746f722d320304030808020505746f722d330306031208020505746f722d34"
        "0308032008020505746f722d35030a033208020505746f722d36030c03480802"
        "0505746f722d30030e036208020505746f722d31031003800108020505746f72"
        "2d32031203a20108020505746f722d33031403c80108020505746f722d340316"
        "03f20108020505746f722d35031803a00208020505746f722d36031a03d20208"
        "020505746f722d30031c03880308020505746f722d31031e03c2030802050574"
        "6f722d32032003800408020505746f722d33032203c20408020505746f722d34"
        "032403880508020505746f722d35032603d20508020505746f722d36032803a0"
        "0608020505746f722d30032a03f20608020505746f722d31032c03c807080205"
        "05746f722d32032e03a20808020505746f722d33033003800908020505746f72"
        "2d34033203e20908020505746f722d35033403c80a08020505746f722d360336"
        "03b20b08020505746f722d30033803a00c08020505746f722d31033a03920d08"
        "020505746f722d32033c03880e08020505746f722d33033e03820f0802050574"
        "6f722d34034003801008020505746f722d35034203821108020505746f722d36"
        "034403881208020505746f722d30034603921308020505746f722d31034803a0"
        "1408020505746f722d32034a03b21508020505746f722d33034c03c816080205"
        "05746f722d34034e03e21708020505746f722d35035003801908020505746f72"
        "2d36035203a21a08020505746f722d30035403c81b08020505746f722d310356"
        "03f21c08020505746f722d32035803a01e08020505746f722d33035a03d21f08"
        "020505746f722d34035c03882108020505746f722d35035e03c2220802050574"
        "6f722d36036003802408020505746f722d30036203c22508020505746f722d31"
        "036403882708020505746f722d32036603d22808020505746f722d33036803a0"
        "2a08020505746f722d34036a03f22b08020505746f722d35036c03c82d080205"
        "05746f722d36036e03a22f08020505746f722d30037003803108020505746f72"
        "2d31037203e23208020505746f722d32037403c83408020505746f722d330376"
        "03b23608020505746f722d34037803a03808020505746f722d35037a03923a08"
        "020505746f722d36037c03883c08020505746f722d30037e03823e0802050574"
        "6f722d3103800103804008020505746f722d3203820103824208020505746f72"
        "2d3303840103884408020505746f722d3403860103924608020505746f722d35"
        "03880103a04808020505746f722d36038a0103b24a08020505746f722d30038c"
        "0103c84c08020505746f722d31038e0103e24e08020505746f722d3203900103"
        "805108020505746f722d3303920103a25308020505746f722d3403940103c855"
        "08020505746f722d3503960103f25708020505746f722d3603980103a05a0802"
        "0505746f722d30039a0103d25c08020505746f722d31039c0103885f08020505"
        "746f722d32039e0103c26108020505746f722d3303a00103806408020505746f"
        "722d3403a20103c26608020505746f722d3503a40103886908020505746f722d"
        "3603a60103d26b08020505746f722d3003a80103a06e08020505746f722d3103"
        "aa0103f27008020505746f722d3203ac0103c87308020505746f722d3303ae01"
        "03a27608020505746f722d3403b00103807908020505746f722d3503b20103e2"
        "7b08020505746f722d3603b40103c87e08020505746f722d3003b60103b28101"
        "08020505746f722d3103b80103a0840108020505746f722d3203ba0103928701"
        "08020505746f722d3303bc0103888a0108020505746f722d3403be0103828d01"
        "08020505746f722d3503c0010380900108020505746f722d3603c20103829301"
        "08020505746f722d3003c4010388960108020505746f722d3103c60103929901"
        "08020505746f722d3203c80103a09c0108020505746f722d3303ca0103b29f01"
        "08020505746f722d3403cc0103c8a20108020505746f722d3503ce0103e2a501"
        "08020505746f722d3603d0010380a90108020505746f722d3003d20103a2ac01"
        "08020505746f722d3103d40103c8af0108020505746f722d3203d60103f2b201"
        "08020505746f722d3303d80103a0b60108020505746f722d3403da0103d2b901"
        "08020505746f722d3503dc010388bd0108020505746f722d3603de0103c2c001"
        "08020505746f722d3003e0010380c40108020505746f722d3103e20103c2c701"
        "08020505746f722d3203e4010388cb0108020505746f722d3303e60103d2ce01"
        "08020505746f722d3403e80103a0d20108020505746f722d3503ea0103f2d501"
        "08020505746f722d3603ec0103c8d90108020505746f722d3003ee0103a2dd01"
        "08020505746f722d3103f0010380e10108020505746f722d3203f20103e2e401"
        "08020505746f722d3303f40103c8e80108020505746f722d3403f60103b2ec01"
        "08020505746f722d3503f80103a0f00108020505746f722d3603fa010392f401"
        "08020505746f722d3003fc010388f80108020505746f722d3103fe010382fc01"
        "08020505746f722d320380020380800208020505746f722d3303820203828402"
        "08020505746f722d340384020388880208020505746f722d3503860203928c02"
        "08020505746f722d3603880203a0900208020505746f722d30038a0203b29402"
        "08020505746f722d31038c0203c8980208020505746f722d32038e0203e29c02"
        "08020505746f722d330390020380a10208020505746f722d3403920203a2a502"
        "08020505746f722d3503940203c8a90208020505746f722d3603960203f2ad02"
        "08020505746f722d3003980203a0b20208020505746f722d31039a0203d2b602"
        "08020505746f722d32039c020388bb0208020505746f722d33039e0203c2bf02"
        "08020505746f722d3403a0020380c40208020505746f722d3503a20203c2c802"
        "08020505746f722d3603a4020388cd0208020505746f722d3003a60203d2d102"
        "08020505746f722d3103a80203a0d60208020505746f722d3203aa0203f2da02"
        "08020505746f722d3303ac0203c8df0208020505746f722d3403ae0203a2e402"
        "08020505746f722d3503b0020380e90208020505746f722d3603b20203e2ed02"
        "08020505746f722d3003b40203c8f20208020505746f722d3103b60203b2f702"
        "08020505746f722d3203b80203a0fc0208020505746f722d3303ba0203928103"
        "08020505746f722d3403bc020388860308020505746f722d3503be0203828b03"
        "08020505746f722d3603c0020380900308020505746f722d3003c20203829503"
        "08020505746f722d3103c40203889a0308020505746f722d3203c60203929f03"
        "08020505746f722d3303c80203a0a40308020505746f722d3403ca0203b2a903"
        "08020505746f722d3503cc0203c8ae0308020505746f722d3603ce0203e2b303"
        "08020505746f722d3003d0020380b90308020505746f722d3103d20203a2be03"
        "08020505746f722d3203d40203c8c30308020505746f722d3303d60203f2c803"
        "08020505746f722d3403d80203a0ce0308020505746f722d3503da0203d2d303"
        "08020505746f722d3603dc020388d90308020505746f722d3003de0203c2de03"
        "08020505746f722d3103e0020380e40308020505746f722d3203e20203c2e903"
        "08020505746f722d3303e4020388ef0308020505746f722d3403e60203d2f403"
        "08020505746f722d3503e80203a0fa0308020505746f722d3603ea0203f2ff03"
        "08020505746f722d3003ec0203c8850408020505746f722d3103ee0203a28b04"
        "08020505746f722d3203f0020380910408020505746f722d3303f20203e29604"
        "08020505746f722d3403f40203c89c0408020505746f722d3503f60203b2a204"
        "08020505746f722d3603f80203a0a80408020505746f722d3003fa020392ae04"
        "08020505746f722d3103fc020388b40408020505746f722d3203fe020382ba04"
        "08020505746f722d330380030380c00408020505746f722d340382030382c604"
        "08020505746f722d350384030388cc0408020505746f722d360386030392d204"
        "08020505746f722d3003880303a0d80408020505746f722d31038a0303b2de04"
        "08020505746f722d32038c0303c8e40408020505746f722d33038e0303e2ea04",
    "set": "0a0405017705017805017905027a7a",
    "frozenset": "0b030302030903808080808040",
    "flow_id": "0c0768c3b473742d61097365727665722d343294a305a0010c",
    "flows_and_paths":
        "070208020c0768c3b473742d61097365727665722d343294a305a0010c080305"
        "0768c3b473742d610505746f722d3105097365727665722d343208020c016101"
        "6202040c0800",
    "plan":
        "0d040104000000000000f03f040000000000002240080108020505746f722d61"
        "0008010509613a317c623a327c3608030501610505746f722d61050162020803"
        "0504666c6f77050562797465730504706b747303050373756d08010505627974"
        "657308010504666c6f770302040306050576616c7565050464657363",
}


def _msg_types():
    return {name: code for name, code in vars(wire).items()
            if name.startswith("MSG_")}


def _uvarint(data, pos):
    """A LEB128 varint at ``pos``: ``(value, next position)``."""
    value = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            return value, pos


def _reversioned(frame, version):
    """``frame`` with its header's version byte - and those of the frames a
    group batch carries - set to ``version``, and no other byte moved.
    Parsed here rather than by the codec under test."""
    out = bytearray(frame)
    out[2] = version
    if out[3] == wire.MSG_GROUP_BATCH:
        _, pos = _uvarint(out, wire.HEADER_BYTES)  # correlation id
        count, pos = _uvarint(out, pos)
        for _ in range(count):
            size, pos = _uvarint(out, pos)  # host name
            size, pos = _uvarint(out, pos + size)
            out[pos:pos + size] = _reversioned(out[pos:pos + size], version)
            pos += size
    return bytes(out)


def golden_frame(name):
    """One golden row's bytes at the current wire version."""
    return _reversioned(bytes.fromhex(GOLDEN_FRAME_HEX[name]),
                        wire.WIRE_VERSION)


def _python_calls(function):
    """Python-level calls ``function()`` makes, itself included - a count
    that repeats exactly, unlike a timing."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    sys.setprofile(profile)
    try:
        function()
    finally:
        sys.setprofile(None)
    return count


class TestGoldenFrames:
    def test_one_golden_frame_per_message_type(self):
        frames = _golden_frames()
        assert set(frames) == set(GOLDEN_FRAME_HEX)
        assert {wire.frame_type(frame) for frame, _, _ in frames.values()} \
            == set(_msg_types().values())
        assert wire.WIRE_VERSION == 8

    def test_only_the_version_7_and_8_rows_were_regenerated(self):
        """Every row outside GOLDEN_V7_ROWS and GOLDEN_V8_ROWS is still
        the version-6 hex (group-batch inner frames included), so the
        frame tests below compare today's codec against the version-6
        bytes themselves."""
        for name, text in GOLDEN_FRAME_HEX.items():
            data = bytes.fromhex(text)
            version = (8 if name in GOLDEN_V8_ROWS
                       else 7 if name in GOLDEN_V7_ROWS else 6)
            assert _reversioned(data, version) == data, name

    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAME_HEX))
    def test_frame_bytes_and_decode(self, name):
        frame, decoder, decoded = _golden_frames()[name]
        assert frame == golden_frame(name)
        assert decoder(golden_frame(name)) == decoded

    @pytest.mark.parametrize("name", sorted(GOLDEN_VALUE_HEX))
    def test_value_bytes_and_decode(self, name):
        value = GOLDEN_VALUES[name]
        assert set(GOLDEN_VALUES) == set(GOLDEN_VALUE_HEX)
        assert wire.encode_value(value).hex() == GOLDEN_VALUE_HEX[name]
        decoded = wire.decode_value(bytes.fromhex(GOLDEN_VALUE_HEX[name]))
        assert decoded == value and type(decoded) is type(value)
        assert wire.value_len(value) == len(GOLDEN_VALUE_HEX[name]) // 2

    def test_every_strict_prefix_raises_wire_error(self):
        """Truncation at any byte is a ``WireError`` from the decoder
        itself - never an ``IndexError`` / ``struct.error`` escaping it,
        never a value."""
        cases = [(golden_frame(name), decoder)
                 for name, (_, decoder, _) in _golden_frames().items()]
        cases += [(bytes.fromhex(text), wire.decode_value)
                  for text in GOLDEN_VALUE_HEX.values()]
        for data, decoder in cases:
            for cut in range(len(data)):
                with pytest.raises(wire.WireError):
                    decoder(data[:cut])

    def test_every_appended_byte_raises_wire_error(self):
        """A frame is length-delimited, so a byte its body leaves unread
        is corruption: every payload decoder rejects it, never returns a
        value.  (A payload-less frame's decoder is ``frame_type``, which
        reads the header alone.)"""
        cases = [(golden_frame(name), decoder)
                 for name, (_, decoder, _) in _golden_frames().items()
                 if decoder is not wire.frame_type]
        cases += [(bytes.fromhex(text), wire.decode_value)
                  for text in GOLDEN_VALUE_HEX.values()]
        for data, decoder in cases:
            with pytest.raises(wire.WireError, match="trailing"):
                decoder(data + b"\x00")

    def test_truncation_is_reported_as_truncation(self):
        frame = golden_frame("alarm_batch")
        for cut in range(wire.HEADER_BYTES, len(frame)):
            with pytest.raises(wire.WireError, match="truncated frame"):
                wire.decode_alarm_batch(frame[:cut])

    def test_reader_rejections_survive(self):
        with pytest.raises(wire.WireError, match="invalid UTF-8"):
            wire.decode_value(b"\x05\x02\xc3\x28")       # inline string leg
        with pytest.raises(wire.WireError, match="invalid UTF-8"):
            wire.decode_error(wire.encode_ping()[:3] + bytes(
                [wire.MSG_ERROR]) + b"\x02\xc3\x28")     # str_ leg
        with pytest.raises(wire.WireError, match="unknown value tag"):
            wire.decode_value(b"\x0e")
        with pytest.raises(wire.WireError, match="unknown value tag"):
            wire.decode_value(b"\x07\x01\xff")
        with pytest.raises(wire.WireError, match="negative"):
            wire.encode_pong(-1)
        with pytest.raises(wire.WireError, match="trailing"):
            wire.decode_value(b"\x00\x00")
        with pytest.raises(wire.WireError):               # unhashable key
            wire.decode_value(b"\x09\x01\x07\x00\x00")

    def test_decode_call_counts(self):
        """The codec's cost in CPython is its Python-level calls; these
        two frames are what a top-k query and an alarm sweep decode per
        host.  (1,083 and 245 calls before the cursor-local reader, 100
        and 86 with it; 96 and 65 at wire version 8, where each string
        an alarm list defines costs a few calls and each repeat none.)"""
        result = golden_frame("query_result")
        alarms = golden_frame("alarm_batch")
        assert len(wire.decode_result(result, GOLDEN_TOPK_QUERY).payload) \
            == 40
        assert _python_calls(
            lambda: wire.decode_result(result, GOLDEN_TOPK_QUERY)) <= 150
        assert _python_calls(lambda: wire.decode_alarm_batch(alarms)) <= 110


class TestExactSizes:
    """``value_len`` / ``*_wire_bytes`` are ``len(encode(...))`` without
    the encode: pinned equal on seeded random inputs, slow-path subclasses
    included, and rejecting exactly what the writers reject."""

    class Count(int):
        pass

    class Pair(tuple):
        pass

    class Row(list):
        pass

    class Ratio(float):
        pass

    class Flow(FlowId):
        pass

    @classmethod
    def _value(cls, rng, depth=0):
        kind = rng.randrange(17 if depth < 3 else 11)
        if kind == 0:
            return rng.choice((None, True, False))
        if kind == 1:
            return rng.randint(-(1 << rng.randrange(1, 128)),
                               1 << rng.randrange(1, 128))
        if kind == 2:
            return rng.randrange(-70, 70)       # the one-byte boundary
        if kind == 3:
            return rng.uniform(-1e12, 1e12)
        if kind == 4:
            return "".join(rng.choice("abé中\U0001f409 -:") for _ in
                           range(rng.choice((0, 3, 40, 126, 127, 128, 300))))
        if kind == 5:
            return bytes(rng.randrange(256)
                         for _ in range(rng.choice((0, 5, 127, 128))))
        if kind == 6:
            return _random_flow_id(rng)
        if kind == 7:
            return cls.Count(rng.randrange(-(1 << 70), 1 << 70))
        if kind == 8:
            return cls.Flow(*_random_flow_id(rng))
        if kind == 9:
            return cls.Ratio(rng.uniform(-5, 5))
        if kind == 10:
            return frozenset(rng.randrange(1 << 40)
                             for _ in range(rng.randrange(5)))
        size = rng.choice((0, 1, 2, 3, 130)) if depth == 0 \
            else rng.randrange(4)
        items = [cls._value(rng, depth + 1) for _ in range(size)]
        if kind == 11:
            return items
        if kind == 12:
            return tuple(items)
        if kind == 13:
            return cls.Pair(items)
        if kind == 14:
            return cls.Row(items)
        if kind == 15:
            return {str(item) for item in items}
        return {(f"k{i}", i): item for i, item in enumerate(items)}

    def test_value_len_is_the_encoded_length(self):
        rng = random.Random(20261002)
        for _ in range(600):
            value = self._value(rng)
            assert wire.value_len(value) == len(wire.encode_value(value))

    def test_result_wire_bytes_is_the_frame_length(self):
        """Plan and non-plan results, each with and without scan stats
        and alarms: one frame kind, sized exactly."""
        rng = random.Random(19)
        for round_index in range(200):
            planned, with_stats, with_alarms = (
                round_index >> bit & 1 for bit in range(3))
            query = GOLDEN_PLAN_QUERY if planned else Query(
                rng.choice(("top_k_flows", "get_flows", "hôst-query")), {})
            result = QueryResult(
                query=query, payload=self._value(rng), wire_bytes=0,
                records_scanned=rng.randrange(1 << rng.randrange(1, 40)),
                host=rng.choice(("server-1", UNICODE_HOST, "")),
                alarms=tuple(_random_alarm(rng) for _ in range(
                    rng.choice((1, 3)) if with_alarms else 0)),
                scan_stats={f"stat_{i}": rng.randrange(1 << 30) for i in
                            range(rng.randrange(1, 9) if with_stats else 0)})
            frame = wire.encode_result(result)
            assert wire.frame_type(frame) == wire.MSG_QUERY_RESULT
            assert wire.result_wire_bytes(result) == len(frame)
            decoded = wire.decode_result(frame, query)
            assert decoded.scan_stats == result.scan_stats
            assert len(decoded.alarms) == len(result.alarms)

    def test_plan_request_bytes_are_the_frame_length(self):
        rng = random.Random(29)
        for _ in range(100):
            query = Query(plan.PLAN_QUERY_NAME,
                          {"plan": random_plan(rng)},
                          period=rng.choice((None, 2.5)))
            assert query.request_bytes() == \
                len(wire.encode_query_request(query, None))
            assert wire.value_len(query.params["plan"]) == \
                len(wire.encode_value(query.params["plan"]))

    def test_group_batch_len_is_the_envelope_length(self):
        """Across the varint widths of the correlation id, the entry
        count, host names and inner frame lengths."""
        rng = random.Random(20261016)
        for _ in range(300):
            cid = rng.choice((0, 1, 127, 128, 1 << rng.randrange(1, 40)))
            entries = [
                ("".join(rng.choice("h-1é中") for _ in range(
                    rng.choice((0, 8, 127, 128, 200)))),
                 bytes(rng.randrange(256) for _ in range(
                     rng.choice((4, 40, 127, 128, 300)))))
                for _ in range(rng.choice((0, 1, 3, 130)))]
            assert wire.group_batch_len(cid, entries) == \
                len(wire.encode_group_batch(cid, entries))

    def test_spec_len_is_the_encoded_spec_length(self):
        """Every node of random aggregation trees - unicode and long host
        names, subtree host counts across the one-byte varint boundary:
        ``spec_len`` is what the real encoder adds to the bare request
        for the node's spec."""
        rng = random.Random(20261017)
        request = wire.encode_query_request(GOLDEN_TOPK_QUERY, None)
        for _ in range(40):
            hosts = [f"{rng.choice(('h', UNICODE_HOST, 'x' * 130))}-{i}"
                     for i in range(rng.choice((1, 5, 40, 200)))]
            tree = AggregationTree(hosts, fanout=rng.choice(
                ((7, 4, 4), (1, 150), (2,), (3, 1))))
            for node in tree.host_nodes():
                spec = node.spec
                assert wire.spec_len(
                    node.host, len(spec.hosts),
                    sum(map(wire.str_len, spec.hosts))) == \
                    len(wire.encode_query_request(GOLDEN_TOPK_QUERY, spec)) \
                    - len(request)

    def test_record_and_alarm_sizes(self):
        rng = random.Random(23)
        for record in TestRecordBatches._random_records(rng) + \
                golden_records():
            body = bytearray()
            wire.append_record(body, record)
            assert wire.record_wire_bytes(record) == len(body)
        lists = [[_random_alarm(rng) for _ in range(rng.randrange(12))]
                 for _ in range(40)] + [golden_alarms(), []]
        for alarms in lists:
            body = wire.encode_alarm_batch(alarms)[wire.HEADER_BYTES:-1]
            assert wire.alarms_wire_bytes(alarms) == len(body)

    @pytest.mark.parametrize("payload", [
        object(), [1, object()], {"k": (object(),)}, {1, 2.5, object},
        type("Text", (str,), {})("a str subclass"),
        type("Table", (dict,), {})(k=1), {("k",): bytearray(b"ok"),
                                          "then": memoryview(b"no")},
    ])
    def test_sizing_rejects_what_encoding_rejects(self, payload):
        with pytest.raises(wire.WireError):
            wire.encode_value(payload)
        with pytest.raises(wire.WireError):
            wire.value_len(payload)
        result = QueryResult(query=Query("custom", {}), payload=payload,
                             wire_bytes=0)
        with pytest.raises(wire.WireError):
            wire.result_wire_bytes(result)
        # ... which fails the host that produced such a payload.
        from repro.core.query import measured_result_wire_bytes
        with pytest.raises(wire.WireError):
            measured_result_wire_bytes(result)
