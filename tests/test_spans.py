"""Traced queries and sweeps: the span tail and the stage records.

``trace=True`` on ``cluster.execute`` / ``run_monitors`` asks every host
for its stages (a flag bit on the request, answered in the reply's span
tail) and records the controller's own around each exchange.  What is
pinned here: an untraced run sends and prices exactly what it did before
the tail existed, a traced one answers the same and prices the same, the
stage records name the stages they promise, and the stages that run one
after another on the calling thread fit inside the wall clock they claim
to explain.
"""

import pytest

from repro.core import (MECHANISM_DIRECT, MECHANISM_MULTILEVEL, MODE_SERIAL,
                        MODE_SOCKET, Q_TOP_K_FLOWS, Query, QueryResult, plan,
                        wire)
from repro.core.executor import micros
from repro.storage.archive import RetentionPolicy
from test_event_plane import ALL_MODES, make_cluster
from test_wire import golden_alarms

#: What a host reports for a traced query in process; a worker group
#: reports one record for its shard - the engine's stages summed over its
#: hosts, the slowest host's execution, its fold's merges and the stages
#: around them.
ENGINE_STAGES = {"t.compile", "t.hot", "t.cold", "t.fold", "t.encode"}
WORKER_STAGES = ENGINE_STAGES | {"t.queue", "t.decode", "t.slowest",
                                 "t.merge"}
EXCHANGE_STAGES = {"send", "wait", "decode"}

PLAN_QUERY = Query(plan.PLAN_QUERY_NAME, {"plan": plan.Plan(ops=(
    plan.Filter(start=0.0, end=2.0),
    plan.Aggregate(func="sum", fields=("bytes",), by=("flow",)),
    plan.TopK(k=5)))})


def on_thread_us(stages, mode):
    """The stages that ran one after another on the calling thread: the
    controller's, and in process the hosts' too."""
    return sum(us for reporter in stages.values()
               for key, us in reporter.items()
               if mode == MODE_SERIAL
               or not key.startswith(wire.STAGE_PREFIX))


class TestSpanTail:
    def test_a_traced_request_is_one_flag_bit(self):
        query = Query(Q_TOP_K_FLOWS, {"k": 3})
        spec = wire.SubtreeSpec("h0", ("h0", "h1"))
        for with_spec in (None, spec):
            bare = wire.encode_query_request(query, with_spec)
            traced = wire.encode_query_request(query, with_spec, trace=True)
            assert len(traced) == len(bare)
            assert [i for i in range(len(bare)) if bare[i] != traced[i]] \
                == [len(wire.encode_query(query)) - 1]
            assert wire.decode_query_request(traced) == (query, with_spec,
                                                         True)
        tick = wire.encode_monitor_tick(2.0, 3, trace=True)
        assert len(tick) == len(wire.encode_monitor_tick(2.0, 3))
        assert wire.decode_monitor_tick(tick) == (2.0, 3, True)

    def test_unknown_flag_bits_are_rejected(self):
        frame = bytearray(wire.encode_query_request(Query("get_flows"), None))
        frame[-1] = 4
        with pytest.raises(wire.WireError, match="flags"):
            wire.decode_query_request(bytes(frame))
        tick = bytearray(wire.encode_monitor_tick(1.0))
        tick[-1] = 0x80
        with pytest.raises(wire.WireError, match="flags"):
            wire.decode_monitor_tick(bytes(tick))

    def test_a_traced_result_prices_as_the_untraced_one(self):
        """The stages ride the scan-stat map and are split off on decode:
        ``wire_bytes`` and ``scan_stats`` read as if untraced; a zero
        stage is not sent."""
        result = QueryResult(query=PLAN_QUERY, payload=[(7, "a:1|b:2|6")],
                             wire_bytes=0, host="h1",
                             alarms=tuple(golden_alarms()[:2]),
                             scan_stats={"hot_full_scans": 1,
                                         "zeta": 130})
        untraced = wire.encode_result(result)
        stages = {"t.queue": 1 << 20, "t.decode": 3, "t.fold": 0}
        traced = wire.encode_result(result, dict(stages))
        decoded = wire.decode_result(traced, PLAN_QUERY)
        assert decoded.scan_stats == result.scan_stats
        assert decoded.stages.keys() - {"t.encode"} == {"t.queue",
                                                        "t.decode"}
        assert {key: decoded.stages.get(key, 0) for key in stages} == stages
        assert decoded.wire_bytes == len(untraced) == \
            wire.result_wire_bytes(result)
        assert wire.decode_result(untraced, PLAN_QUERY).stages is None

    def test_an_alarm_batch_ends_with_its_span_tail(self):
        alarms = golden_alarms()
        untraced = wire.encode_alarm_batch(alarms)
        assert untraced[-1] == 0
        assert wire.decode_alarm_batch(untraced).stages == {}
        traced = wire.encode_alarm_batch(alarms, {"t.check": 250})
        batch = wire.decode_alarm_batch(traced)
        assert batch == alarms
        assert batch.stages.keys() == {"t.check", "t.encode"}
        assert batch.stages["t.check"] == 250


class TestTracedRuns:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    def test_a_traced_query_answers_and_prices_the_same(self, mode,
                                                        mechanism):
        with make_cluster(mode, group_count=2,
                          retention=RetentionPolicy(max_records=1)) as cluster:
            for query in (Query(Q_TOP_K_FLOWS, {"k": 4}), PLAN_QUERY):
                plain = cluster.execute(query, mechanism=mechanism)
                traced = cluster.execute(query, mechanism=mechanism,
                                         trace=True)
                assert not traced.partial and plain.stages == {}
                assert wire.encode_value(traced.payload) == \
                    wire.encode_value(plain.payload)
                assert traced.traffic_bytes == plain.traffic_bytes
                assert traced.scan_stats == plain.scan_stats
                stages = traced.stages
                if mode == MODE_SERIAL:
                    reporters = cluster.hosts
                    for host in cluster.hosts:
                        assert stages[host].keys() == ENGINE_STAGES
                else:  # one record per group, none per host
                    reporters = cluster.agent_servers.group_keys()
                    for key in reporters:
                        assert stages[key].keys() == \
                            EXCHANGE_STAGES | WORKER_STAGES
                        assert stages[key]["t.slowest"] > 0
                assert set(stages) == {None, *reporters}
                assert stages[None].keys() == {"fold"}
                assert on_thread_us(stages, mode) <= \
                    micros(traced.wall_clock_s) + 4 * len(stages)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_a_traced_sweep_delivers_the_same_stream(self, mode):
        with make_cluster(mode, group_count=2) as cluster:
            plain = cluster.run_monitors(4.0)
            cluster.reset_stats()
            traced = cluster.run_monitors(4.0, trace=True)
            assert plain and wire.encode_alarm_batch(traced) == \
                wire.encode_alarm_batch(plain)
            assert plain.stages == {} and not traced.partial
            if mode == MODE_SERIAL:
                assert {host: stages.keys() for host, stages
                        in traced.stages.items()} == {
                    host: {"t.check"} for host in cluster.hosts}
            else:
                pool = cluster.agent_servers
                assert {key: stages.keys() for key, stages
                        in traced.stages.items()} == {
                    key: EXCHANGE_STAGES | {"deliver", "t.check",
                                            "t.encode"}
                    for key in pool.group_keys()}
            assert 0 < on_thread_us(traced.stages, mode) <= \
                micros(traced.wall_clock_s) + 4 * len(traced.stages)

    def test_a_custom_handler_traces_in_process(self):
        """A query the workers do not serve runs on the local agents, and
        fills the stages the engine has."""
        with make_cluster(MODE_SOCKET, group_count=2) as cluster:
            for agent in cluster.agents.values():
                agent.engine.register(
                    "echo_host", lambda agent, params: ([agent.host], 0, {}))
            traced = cluster.execute(Query("echo_host"), trace=True)
            assert traced.payload == cluster.hosts
            assert {host: traced.stages[host].keys()
                    for host in cluster.hosts} == {
                host: ENGINE_STAGES for host in cluster.hosts}

