"""Tests for the PathDump agent, the query engine and installed queries."""

import pytest

from repro.core import (PC_FAIL, PathDumpAgent, Q_FLOW_SIZE_DISTRIBUTION,
                        Q_GET_COUNT, Q_GET_DURATION, Q_GET_PATHS,
                        Q_PATH_CONFORMANCE, Q_PLAN, Q_POOR_TCP_FLOWS,
                        Q_SUBFLOW_IMBALANCE, Q_TOP_K_FLOWS, Q_TRAFFIC_MATRIX,
                        Query)
from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import PathFlowRecord


PATH_A = ("h-0-0-0", "tor-0-0", "agg-0-0", "core-0-0", "agg-2-0", "tor-2-0",
          "h-2-0-0")
PATH_B = ("h-0-0-0", "tor-0-0", "agg-0-1", "core-1-0", "agg-2-1", "tor-2-0",
          "h-2-0-0")


def _flow(sport=1000, src="h-0-0-0"):
    return FlowId(src, "h-2-0-0", sport, 80, PROTO_TCP)


@pytest.fixture()
def agent(fattree4, fattree4_assignment):
    alarms = []
    agent = PathDumpAgent("h-2-0-0", fattree4, fattree4_assignment,
                          alarm_sink=alarms.append)
    agent.received_alarms = alarms
    agent.ingest_path_record(PathFlowRecord(_flow(1), PATH_A, 0.0, 1.0,
                                            2_000_000, 1400))
    agent.ingest_path_record(PathFlowRecord(_flow(1), PATH_B, 0.0, 1.0,
                                            5_000, 4))
    agent.ingest_path_record(PathFlowRecord(_flow(2), PATH_B, 2.0, 4.0,
                                            800_000, 550))
    return agent


class TestHostApi:
    def test_get_flows_paths_counts(self, agent):
        assert len(agent.get_flows()) == 3
        assert set(agent.get_paths(_flow(1))) == {PATH_A, PATH_B}
        assert agent.get_count((_flow(1), PATH_A)) == (2_000_000, 1400)
        assert agent.get_count(_flow(1)) == (2_005_000, 1404)
        assert agent.get_duration(_flow(2)) == pytest.approx(2.0)

    def test_live_memory_visible_with_include_live(self, agent,
                                                   fattree4_assignment):
        link_id = fattree4_assignment.lookup("agg-0-0", "core-0-0")
        agent.trajectory_memory.update(_flow(7), [link_id], 123, when=9.0)
        assert agent.get_paths(_flow(7)) == []
        live = agent.get_paths(_flow(7), include_live=True)
        assert len(live) == 1
        nbytes, _ = agent.get_count(_flow(7), include_live=True)
        assert nbytes == 123

    @pytest.mark.parametrize("link, window, matched", [
        (("agg-0-0", "core-0-0"), None, 2), (("core-0-0", "agg-0-0"), None, 2),
        (("*", "agg-0-0"), None, 3), (("core-1-0", "?"), None, 3),
        (("nowhere", None), None, 0), ((None, "agg-0-0"), (3.0, 3.0), 2),
        ((None, "agg-0-0"), (None, 0.5), 1), (("agg-2-0", "*"), (5.0, "*"), 1)],
        ids=["concrete", "reversed", "wildcard-first", "wildcard-second",
             "unknown-node", "etime-at-start-stime-at-end", "before-live",
             "last-instant"])
    def test_live_records_filter_like_tib_records(
            self, agent, fattree4_assignment, link, window, matched):
        """A live read keeps exactly what the TIB keeps once the memory is
        flushed into it: links undirected, wildcard endpoints, closed
        windows."""
        for sport, (a, b), when in ((7, ("agg-0-0", "core-0-0"), 1.0),
                                    (8, ("agg-0-1", "core-1-0"), 2.0),
                                    (9, ("core-0-1", "agg-2-0"), 3.0)):
            link_id = fattree4_assignment.lookup(a, b)
            for offset in (0.0, 2.0):
                agent.trajectory_memory.update(_flow(sport), [link_id], 100,
                                               when=when + offset)
        live = agent.records(link=link, time_range=window, include_live=True)
        agent.flush()
        flushed = agent.records(link=link, time_range=window)
        assert len(flushed) == matched
        assert sorted(map(repr, live)) == sorted(map(repr, flushed))

    @pytest.mark.parametrize("max_records", [None, 1])
    def test_include_live_is_a_no_op_on_empty_trajectory_memory(
            self, agent, max_records):
        # get_count / get_duration without live records push their plans
        # down into the TIB (get_count's per-flow-totals fast path), with
        # them evaluate the same plans by brute force over
        # agent.records(): the two must not drift, on either tier.
        agent.tib.configure_retention(max_records=max_records)
        assert agent.tib.tier_stats()["cold_records"] == \
            (2 if max_records else 0)
        assert len(agent.trajectory_memory) == 0
        windows = (None, (0.5, 3.0), (2.0, None))
        flows = [_flow(1), _flow(2), _flow(9), (_flow(1), PATH_A),
                 (_flow(1), PATH_B), (_flow(2), PATH_A)]
        for window in windows:
            assert agent.get_flows(time_range=window) == \
                agent.get_flows(time_range=window, include_live=True)
            for flow in flows:
                assert agent.get_count(flow, window) == \
                    agent.get_count(flow, window, include_live=True)
                assert agent.get_duration(flow, window) == \
                    agent.get_duration(flow, window, include_live=True)
            for flow_id in (_flow(1), _flow(2), _flow(9)):
                assert agent.get_paths(flow_id, time_range=window) == \
                    agent.get_paths(flow_id, time_range=window,
                                    include_live=True)
        assert agent.get_count(_flow(1), include_live=True) == \
            (2_005_000, 1404)

    def test_alarm_forwarded_to_sink(self, agent):
        agent.alarm(_flow(1), PC_FAIL, [PATH_A], detail="too long")
        assert agent.received_alarms[-1].reason == PC_FAIL
        assert agent.alarms_raised

    def test_flush_moves_memory_to_tib(self, agent, fattree4_assignment):
        link_id = fattree4_assignment.lookup("agg-0-0", "core-0-0")
        agent.trajectory_memory.update(_flow(8), [link_id], 99, when=1.0)
        exported = agent.flush()
        assert exported == 1
        assert agent.get_count(_flow(8))[0] == 99

    def test_memory_footprint_keys(self, agent):
        footprint = agent.memory_footprint_bytes()
        assert set(footprint) == {"trajectory_memory", "trajectory_cache",
                                  "tib", "tib_archive"}
        assert footprint["tib_archive"] == 0  # unbounded: single tier


class TestQueryEngine:
    def test_get_paths_query(self, agent):
        result = agent.execute_query(Query(Q_GET_PATHS,
                                           {"flow_id": _flow(1)}))
        assert len(result.payload) == 2
        assert result.wire_bytes > 0

    def test_get_count_query(self, agent):
        result = agent.execute_query(
            Query(Q_GET_COUNT, {"flow": (_flow(1), PATH_A)}))
        assert result.payload == (2_000_000, 1400)

    def test_flow_size_distribution_query(self, agent):
        result = agent.execute_query(Query(
            Q_FLOW_SIZE_DISTRIBUTION,
            {"links": [("agg-0-0", "core-0-0"), ("agg-0-1", "core-1-0")],
             "binsize": 1_000_000}))
        histogram = result.payload
        big_bucket = [(k, v) for k, v in histogram.items() if k[1] >= 1]
        assert big_bucket  # the 2 MB flow lands in a >= 1 MB bucket

    def test_top_k_query_orders_by_bytes(self, agent):
        result = agent.execute_query(Query(Q_TOP_K_FLOWS, {"k": 2}))
        top = result.payload
        assert len(top) == 2
        assert top[0][0] >= top[1][0]
        assert top[0][0] == 2_005_000

    def test_poor_tcp_flows_query(self, agent):
        agent.monitor.observe_flow(_flow(5), retransmissions=10,
                                   consecutive=5)
        result = agent.execute_query(Query(Q_POOR_TCP_FLOWS, {}))
        assert _flow(5) in result.payload

    def test_traffic_matrix_query(self, agent):
        result = agent.execute_query(Query(Q_TRAFFIC_MATRIX, {}))
        assert result.payload[("tor-0-0", "tor-2-0")] == 2_805_000

    def test_path_conformance_query_raises_alarm(self, agent):
        result = agent.execute_query(Query(
            Q_PATH_CONFORMANCE, {"max_hops": 4, "forbidden": []}))
        assert result.payload  # 5-switch paths violate max 4
        assert any(a.reason == PC_FAIL for a in agent.received_alarms)

    def test_subflow_imbalance_query(self, agent):
        result = agent.execute_query(Query(Q_SUBFLOW_IMBALANCE,
                                           {"ratio": 2.0}))
        offenders = result.payload
        assert len(offenders) == 1  # flow 1: 2 MB vs 5 KB split
        assert offenders[0][0] == _flow(1)

    def test_unknown_query_rejected(self, agent):
        with pytest.raises(KeyError):
            agent.execute_query(Query("does_not_exist", {}))

    def test_register_rejects_a_plan_built_name(self, agent):
        """A plan answers a plan-built name, so a handler or merger
        registered under it would never run: registering one fails."""
        for name in (Q_GET_COUNT, Q_GET_DURATION, Q_TOP_K_FLOWS, Q_PLAN):
            with pytest.raises(ValueError, match="plan"):
                agent.engine.register(name, lambda _agent, _params: (
                    (0, 0), 0, {}), merger=lambda _query, payloads: [])
        result = agent.execute_query(
            Query(Q_GET_COUNT, {"flow": (_flow(1), PATH_A)}))
        assert result.payload == (2_000_000, 1400)


class TestInstalledQueries:
    def test_periodic_execution_respects_period(self, agent):
        agent.install_query(Query(Q_POOR_TCP_FLOWS, {}), period=1.0)
        assert len(agent.run_installed(now=1.0)) == 1
        assert len(agent.run_installed(now=1.5)) == 0
        assert len(agent.run_installed(now=2.0)) == 1
        assert agent.installed[Q_POOR_TCP_FLOWS].runs == 2

    def test_uninstall(self, agent):
        agent.install_query(Query(Q_POOR_TCP_FLOWS, {}), period=1.0)
        assert agent.uninstall_query(Q_POOR_TCP_FLOWS)
        assert not agent.uninstall_query(Q_POOR_TCP_FLOWS)

    def test_event_driven_query_runs_on_delivery(self, traced_fabric,
                                                 fattree4_assignment):
        topo, assignment, _, fabric, _ = traced_fabric
        agent = PathDumpAgent("h-2-0-0", topo, assignment)
        fabric.register_delivery_handler("h-2-0-0",
                                         agent.on_packet_delivered)
        agent.install_query(Query(Q_POOR_TCP_FLOWS, {}), period=None)
        from repro.network.packet import make_tcp_packet
        fabric.inject(make_tcp_packet("h-0-0-0", "h-2-0-0"))
        assert agent.installed[Q_POOR_TCP_FLOWS].runs == 1
