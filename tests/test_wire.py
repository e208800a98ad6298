"""Round-trip and property tests for the binary wire codec.

The codec is what the byte accounting measures and what the agent-server
workers speak, so these tests pin down: lossless round-trips over every
supported value shape (including the edge values the fuzzer favours - empty
paths, huge counters, unicode flow keys), frame validation, and the
reconciliation between the measured sizes and the surviving pre-codec
estimators.
"""

import math
import random

import pytest

from repro.core import Query, QueryEngine, QueryResult, plan, wire
from repro.core.aggregation import AggregationTree
from repro.core.alarms import Alarm, POOR_PERF, REASON_CODES
from repro.core.monitor import (ActiveMonitor, MonitorSnapshot, TcpFlowStats,
                                TransferObservation)
from repro.network.packet import PROTO_TCP, PROTO_UDP, FlowId
from repro.storage import PathFlowRecord, flow_key
from repro.storage.docstore import _estimate_value_bytes


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
        assert record.wire_bytes() == wire.record_wire_bytes(record)

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
        decoded, spec = wire.decode_query_request(wire.encode_query(query))
        assert decoded.name == query.name
        assert decoded.params == query.params
        assert decoded.period == query.period
        assert spec is None

    def test_query_with_subtree_spec(self):
        query = Query("get_flows", {})
        spec = wire.SubtreeSpec("h0", ("h0", "h1", UNICODE_HOST))
        frame = wire.encode_query_request(query, spec)
        decoded, got_spec = wire.decode_query_request(frame)
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
            assert node.subtree_spec_bytes() == \
                len(wire.encode_subtree_spec(node.subtree_spec()))
            assert node.subtree_spec().hosts == tuple(node.subtree_hosts())
            # The surviving estimate stays within a small constant of the
            # measurement (both are linear in the subtree's host count).
            measured = node.subtree_spec_bytes()
            estimated = node.estimated_spec_bytes()
            assert abs(measured - estimated) <= \
                16 + 4 * node.subtree_host_count()

    def test_request_bytes_are_measured(self):
        query = Query("get_flows", {"link": ("a", "b")})
        assert query.request_bytes() == len(wire.encode_query(query))
        assert query.estimated_request_bytes() == 128 + 8  # the old formula


class TestResultFrames:
    def test_result_round_trip(self):
        query = Query("traffic_matrix", {})
        result = QueryResult(query=query,
                             payload={("tor-a", "tor-b"): 12345},
                             wire_bytes=0, records_scanned=77,
                             estimated_wire_bytes=24, host=UNICODE_HOST)
        frame = wire.encode_result(result)
        decoded = wire.decode_result(frame, query)
        assert decoded.payload == result.payload
        assert decoded.records_scanned == 77
        assert decoded.estimated_wire_bytes == 24
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

        class AgentStub:
            host = "h0"
            tib = TibStub()

            def get_flows(self, link, time_range):
                return [(FlowId("a", "b", 1, 2, 6), ("a", "s", "b"))]

        result = QueryEngine().execute(AgentStub(), Query("get_flows", {}))
        assert result.wire_bytes == len(wire.encode_result(result))
        assert result.estimated_wire_bytes > 0


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

    def test_alarm_wire_bytes_matches_batch_layout(self):
        rng = random.Random(3)
        alarms = [_random_alarm(rng) for _ in range(5)]
        frame = wire.encode_alarm_batch(alarms)
        assert len(frame) == wire.HEADER_BYTES + 1 + \
            sum(wire.alarm_wire_bytes(a) for a in alarms)

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
            wire.encode_monitor_tick(12.5)) == (12.5, None)
        assert wire.decode_monitor_tick(
            wire.encode_monitor_tick(0.0, 1)) == (0.0, 1)
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
        assert twin.alerts_raised == monitor.alerts_raised
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
        assert len(frame) == len(wire.encode_result(bare)) + \
            sum(wire.alarm_wire_bytes(a) for a in alarms)

    def test_pong_state_round_trip(self):
        frame = wire.encode_pong(123456, 789)
        assert wire.decode_pong(frame) == 123456
        assert wire.decode_pong_state(frame) == (123456, 789)

    def test_pong_tier_stats_round_trip(self):
        frame = wire.encode_pong(500, 7, hot_records=50, hot_bytes=9000,
                                 cold_records=450, cold_bytes=123456)
        assert wire.decode_pong_tiers(frame) == (500, 7, 50, 9000, 450,
                                                 123456)
        # the legacy prefix decoders keep working on a tiered pong
        assert wire.decode_pong(frame) == 500
        assert wire.decode_pong_state(frame) == (500, 7)


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
    builder = wire.SegmentBuilder()
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
        for segment in (wire.Segment(blob), builder.seal()):
            assert segment.count == len(rows)
            assert segment.records() == rows
            some = sorted(rng.sample(range(len(rows)),
                                     rng.randrange(len(rows) + 1)))
            assert segment.records(some) == [rows[row] for row in some]
            for row in some[:5]:
                record = rows[row][1]
                assert [segment.cell(index, row) for index in
                        (wire.SEG_STIME, wire.SEG_ETIME, wire.SEG_BYTES,
                         wire.SEG_PKTS)] == [record.stime, record.etime,
                                             record.bytes, record.pkts]
        for _, record in wire.Segment(blob).records():
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
        assert wire.Segment(blob).records() == rows
        assert wire.Segment(blob).cell(wire.SEG_BYTES, 1) == value
        # the varint escape is taken by exactly the columns that need it
        codes = blob[8:8 + len(wire.SEGMENT_COLUMNS)].decode()
        escaped = {name for name, code in zip(wire.SEGMENT_COLUMNS, codes)
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
                wire.Segment(blob[:cut])
        with pytest.raises(wire.WireDecodeError):
            wire.Segment(blob + b"\x00")
        with pytest.raises(wire.WireDecodeError):
            wire.Segment(b"XXXX" + blob[4:])

    def test_bit_flips_never_escape_as_raw_exceptions(self):
        rng = random.Random(20261002)
        rows = random_segment_rows(rng, 40)
        blob = build_segment(rows).pack()
        for _ in range(400):
            data = bytearray(blob)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            try:
                segment = wire.Segment(bytes(data))
                segment.records()
                segment.cell(wire.SEG_PKTS, 39)
            except wire.WireDecodeError:
                pass  # the contract: corruption surfaces as a decode error


class TestControlFrames:
    def test_error(self):
        frame = wire.encode_error("boom: 中")
        assert wire.frame_type(frame) == wire.MSG_ERROR
        assert wire.decode_error(frame) == "boom: 中"

    def test_ping_pong_reset_shutdown_sleep(self):
        assert wire.frame_type(wire.encode_ping()) == wire.MSG_PING
        assert wire.decode_pong(wire.encode_pong(12345)) == 12345
        assert wire.frame_type(wire.encode_reset()) == wire.MSG_RESET
        assert wire.frame_type(wire.encode_shutdown()) == wire.MSG_SHUTDOWN
        assert wire.decode_sleep(wire.encode_sleep(0.25)) == 0.25


class TestPlanFrames:
    """The generic v6 plan frames: MSG_PLAN_REQUEST / MSG_PLAN_RESULT."""

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
        frame = wire.encode_plan_request(query, spec)
        assert wire.frame_type(frame) == wire.MSG_PLAN_REQUEST
        decoded, decoded_spec = wire.decode_plan_request(frame)
        assert decoded.name == plan.PLAN_QUERY_NAME
        assert decoded.params["plan"] == query.params["plan"]
        assert decoded.period == 2.5
        assert decoded_spec == spec

    def test_every_op_round_trips(self):
        """One plan per registered op kind (the wire legs R9 gates)."""
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
            frame = wire.encode_plan_request(query, None)
            decoded, spec = wire.decode_plan_request(frame)
            assert decoded.params["plan"] == sample
            assert spec is None

    def test_generic_entry_points_dispatch(self):
        """encode_query_request / decode_query_request route plan queries
        to the plan frame transparently (the executor and the worker
        transports only ever call the generic entry points)."""
        query = Query(plan.PLAN_QUERY_NAME, {"plan": self._sample_plan()})
        frame = wire.encode_query_request(query, None)
        assert wire.frame_type(frame) == wire.MSG_PLAN_REQUEST
        decoded, _spec = wire.decode_query_request(frame)
        assert decoded.params["plan"] == query.params["plan"]

    def test_plan_result_round_trip_with_scan_stats(self):
        query = Query(plan.PLAN_QUERY_NAME, {"plan": self._sample_plan()})
        result = QueryResult(
            query=query, payload=[(1000, "a:1|b:2|6")], wire_bytes=0,
            records_scanned=17, estimated_wire_bytes=24, host=UNICODE_HOST,
            scan_stats={"hot_flow_routed": 1, "cold_entries_skipped": 9})
        frame = wire.encode_plan_result(result)
        assert wire.frame_type(frame) == wire.MSG_PLAN_RESULT
        decoded = wire.decode_plan_result(frame, query)
        assert decoded.payload == result.payload
        assert decoded.scan_stats == result.scan_stats
        assert decoded.records_scanned == 17
        assert decoded.wire_bytes == len(frame)
        # The generic result entry points dispatch the same way.
        assert wire.encode_result(result) == frame
        assert wire.decode_result(frame, query).scan_stats == \
            result.scan_stats

    def test_invalid_plan_frame_rejected(self):
        """A structurally decodable but semantically invalid plan (here:
        TopK without a keyed Aggregate) must surface as WireError, not
        slip through to the executor."""
        bad = plan.Plan(ops=(plan.Filter(), plan.TopK(k=2)))
        query = Query(plan.PLAN_QUERY_NAME, {"plan": bad})
        with pytest.raises(wire.WireError):
            wire.decode_plan_request(wire.encode_plan_request(query, None))

    def test_non_plan_query_rejected(self):
        with pytest.raises(wire.WireError):
            wire.encode_plan_request(Query("top_k_flows", {"k": 5}), None)


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
    """The surviving estimators line up with the codec's measured sizes."""

    def test_string_estimate_counts_utf8_bytes(self):
        # len(str) used to undercount non-ASCII strings; the estimator now
        # matches the codec, which writes UTF-8.
        for text in ["ascii", "hôst", "中心", "\U0001f409"]:
            encoded = text.encode("utf-8")
            assert _estimate_value_bytes(text) == len(encoded) + 1
            # Codec string layout: 1 tag byte + length varint + UTF-8 body,
            # so for short strings the estimate equals measured size - 1.
            assert len(wire.encode_value(text)) == len(encoded) + 2

    def test_record_estimate_tracks_measured_size(self):
        """Estimate and measurement stay within a small constant of each
        other across path lengths (both are linear in path size)."""
        for hops in (0, 2, 5, 9):
            record = sample_record(path=tuple(f"s{i}" for i in range(hops)))
            measured = wire.record_wire_bytes(record)
            estimated = record.estimated_wire_bytes()
            assert abs(measured - estimated) <= 16 + 4 * max(1, hops)


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
             wire.decode_pong_tiers),
            (wire.encode_retention(100, 1 << 40), wire.decode_retention),
            (wire.encode_sleep(0.5), wire.decode_sleep),
            (wire.encode_alarm_batch([_random_alarm(rng)]),
             wire.decode_alarm_batch),
            (wire.encode_observation_batch([_random_observation(rng)]),
             wire.decode_observation_batch),
            (wire.encode_monitor_tick(1.5, 3), wire.decode_monitor_tick),
            (wire.encode_monitor_state(snapshot),
             wire.decode_monitor_state),
            (wire.encode_plan_request(
                Query(plan.PLAN_QUERY_NAME,
                      {"plan": TestPlanFrames._sample_plan()}), spec),
             wire.decode_plan_request),
            (wire.encode_plan_result(QueryResult(
                query=Query(plan.PLAN_QUERY_NAME,
                            {"plan": TestPlanFrames._sample_plan()}),
                payload=[(9, "k")], wire_bytes=0, host=UNICODE_HOST,
                scan_stats={"hot_flow_routed": 2})),
             wire.decode_plan_result),
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
    """The socket transport's envelopes: MSG_GROUP_HELLO routes a worker's
    connection to its shard, MSG_GROUP_BATCH coalesces per-host frames,
    MSG_CLOSE_TORN arms the chaos harness's torn-close fault."""

    def test_group_hello_round_trip(self):
        hosts = ("server-0", UNICODE_HOST, "server-2")
        frame = wire.encode_group_hello(5, hosts)
        assert wire.frame_type(frame) == wire.MSG_GROUP_HELLO
        assert wire.decode_group_hello(frame) == (5, hosts)

    def test_group_hello_empty_shard(self):
        assert wire.decode_group_hello(wire.encode_group_hello(0, ())) == \
            (0, ())

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
    """The length-prefixed stream layer under the socket transport.

    A TCP/Unix stream has no message boundaries, so every frame travels
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
            wire.encode_record_batch([sample_record()]),
            wire.encode_group_hello(2, ("a", "b", UNICODE_HOST))]
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
