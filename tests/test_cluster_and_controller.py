"""Tests for distributed queries, the aggregation tree, RPC model and controller."""

import random

import pytest

from repro.core import (AggregationTree, MECHANISM_DIRECT,
                        MECHANISM_MULTILEVEL, MODE_SERIAL, MODE_SOCKET,
                        PathDumpController, Q_FLOW_SIZE_DISTRIBUTION,
                        Q_POOR_TCP_FLOWS, Q_TOP_K_FLOWS, Query, QueryCluster,
                        RpcChannel, ScatterGatherExecutor, wire)
from repro.core.rpc import MESSAGE_OVERHEAD_BYTES
from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import PathFlowRecord
from repro.transport import FlowLevelSimulator
from repro.workloads import FlowGenerator


class TestRpcChannel:
    def test_latency_and_traffic_accounting(self):
        rpc = RpcChannel(message_latency_s=0.01, bandwidth_bps=1e9)
        latency = rpc.send(1000)
        assert latency > 0.01
        assert rpc.stats.messages == 1
        assert rpc.total_traffic_bytes > 1000
        rpc.round_trip(100, 200)
        assert rpc.stats.messages == 3
        rpc.stats.reset()
        assert rpc.total_traffic_bytes == 0

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            RpcChannel().send(-1)


class TestAggregationTree:
    def test_paper_tree_structure_112_hosts(self):
        hosts = [f"host-{i}" for i in range(112)]
        tree = AggregationTree(hosts)
        tree.validate()
        assert tree.depth() == 3
        levels = tree.levels()
        assert len(levels[1]) == 7
        assert len(levels[2]) == 28
        assert len(levels[3]) == 77

    def test_small_host_counts(self):
        tree = AggregationTree(["a", "b", "c"], fanout=(2,))
        tree.validate()
        assert tree.depth() == 2
        assert len(tree.host_nodes()) == 3

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            AggregationTree([])
        with pytest.raises(ValueError):
            AggregationTree(["a"], fanout=(0,))

    def test_layout_and_specs_match_a_brute_force_build(self):
        """Breadth-first placement, each parent taking the next hosts up
        to its level's fan-out; every node's spec lists its subtree's
        hosts in pre-order and ``spec_len`` is what it adds to a
        request."""
        def reference_layout(hosts, fanout):
            remaining, frontier, level = list(hosts), [(None, [])], 0
            root = frontier[0]
            while remaining:
                width = fanout[min(level, len(fanout) - 1)]
                next_frontier = []
                for _host, children in frontier:
                    while remaining and len(children) < width:
                        children.append((remaining.pop(0), []))
                    next_frontier += children
                frontier, level = next_frontier, level + 1
            return root, level

        def layout(node):
            return node.host, [layout(child) for child in node.children]

        def subtree_hosts(node):
            hosts = [] if node.host is None else [node.host]
            for child in node.children:
                hosts += subtree_hosts(child)
            return hosts

        rng = random.Random(31)
        request = wire.encode_query_request(Query(Q_TOP_K_FLOWS, {}), None)
        for _ in range(60):
            hosts = [f"h{index}" * rng.randint(1, 3)
                     for index in range(rng.choice((1, 2, 9, 40, 130)))]
            fanout = rng.choice(((7, 4, 4), (1,), (2,), (3, 1), (1, 50)))
            tree = AggregationTree(hosts, fanout)
            expected, depth = reference_layout(hosts, fanout)
            assert layout(tree.root) == expected
            assert tree.depth() == depth
            for node in tree.nodes():
                assert node.spec == wire.SubtreeSpec(
                    node.host or "", tuple(subtree_hosts(node)))
                if node.host is not None:
                    assert node.spec_len == len(wire.request_with_spec(
                        request, node.spec)) - len(request)


@pytest.fixture()
def populated_cluster(fattree4, fattree4_assignment):
    """A cluster whose TIBs hold a small synthetic workload."""
    cluster = QueryCluster(fattree4, fattree4_assignment)
    simulator = FlowLevelSimulator(fattree4, seed=5)
    generator = FlowGenerator(fattree4.hosts, seed=6)
    flows = generator.poisson_per_host(duration=0.2)
    cluster.ingest_flow_outcomes(simulator.simulate(flows))
    return cluster


class TestQueryCluster:
    def test_ingest_places_records_at_destination(self, populated_cluster):
        total = populated_cluster.total_tib_records()
        assert total > 0
        for host, agent in populated_cluster.agents.items():
            for flow_id, _ in agent.get_flows():
                assert flow_id.dst_ip == host

    def test_direct_and_multilevel_agree_on_answer(self, populated_cluster):
        query = Query(Q_TOP_K_FLOWS, {"k": 20})
        direct = populated_cluster.execute(query,
                                           mechanism=MECHANISM_DIRECT)
        multi = populated_cluster.execute(query,
                                          mechanism=MECHANISM_MULTILEVEL)
        assert direct.payload == multi.payload
        assert direct.host_count == multi.host_count == 16
        assert direct.response_time_s > 0 and multi.response_time_s > 0
        assert direct.traffic_bytes > 0 and multi.traffic_bytes > 0

    def test_histogram_query_merging(self, populated_cluster):
        query = Query(Q_FLOW_SIZE_DISTRIBUTION,
                      {"links": [None], "binsize": 100_000})
        direct = populated_cluster.execute(query)
        multi = populated_cluster.execute(query,
                                          mechanism=MECHANISM_MULTILEVEL)
        assert direct.payload == multi.payload
        assert sum(direct.payload.values()) >= \
            populated_cluster.total_tib_records()

    def test_unknown_mechanism_rejected(self, populated_cluster):
        with pytest.raises(ValueError):
            populated_cluster.execute(Query(Q_TOP_K_FLOWS, {}), None, "bogus")

    def test_storage_report(self, populated_cluster):
        report = populated_cluster.storage_report()
        assert report["tib"] > 0


class TestTreeReuse:
    def test_multilevel_reuses_the_tree_only_for_equal_targets_and_fanout(
            self, populated_cluster, monkeypatch):
        """Every step - a host subset, a reordered target list, another
        fan-out, and back, with two request lengths - gathers exactly
        what a freshly built tree gathers, and the tree is rebuilt only
        when the targets or the fan-out change."""
        cluster = populated_cluster
        plans = []
        run = ScatterGatherExecutor.run

        def recording_run(executor, plan, *args, **kwargs):
            plans.append(plan)
            return run(executor, plan, *args, **kwargs)

        monkeypatch.setattr(ScatterGatherExecutor, "run", recording_run)
        hosts = cluster.hosts
        short = Query(Q_TOP_K_FLOWS, {"k": 5})
        long = Query(Q_TOP_K_FLOWS, {"k": 5, "time_range": (0.0, 1e9)})
        steps = [(short, hosts, (7, 4, 4)), (long, hosts, (7, 4, 4)),
                 (short, hosts[3:11], (7, 4, 4)),
                 (long, hosts[::-1], (7, 4, 4)), (short, hosts, (2,)),
                 (long, hosts, (2,)), (short, hosts, (7, 4, 4))]
        previous = None
        for step, (query, targets, fanout) in enumerate(steps):
            result = cluster.execute_multilevel(query, targets, fanout)
            tree, plan = cluster._tree, plans[-1]
            same_shape = previous is not None and \
                steps[step - 1][1:] == (targets, fanout)
            assert (tree is previous) == same_shape
            assert plan.children[0].request_parts[0] == len(
                wire.encode_query_request(query, None))
            cluster._tree = None
            fresh = cluster.execute_multilevel(query, targets, fanout)
            assert cluster._tree is not tree
            assert plans[-1] == plan
            assert wire.encode_value(result.payload) == \
                wire.encode_value(fresh.payload)
            assert result.traffic_bytes == fresh.traffic_bytes
            assert result.breakdown["tree_depth"] == \
                fresh.breakdown["tree_depth"]
            cluster._tree = previous = tree


class TestController:
    def test_rules_installed_once_at_startup(self, pathdump_deployment):
        topo, _, fabric, _, controller = pathdump_deployment
        counts = controller.switch_rule_counts()
        assert set(counts) == set(topo.switches)
        assert all(count >= 1 for count in counts.values())
        assert controller.compiled_rules.total_rules() == sum(counts.values())

    def test_execute_install_uninstall(self, pathdump_deployment):
        _, _, _, cluster, controller = pathdump_deployment
        query = Query(Q_POOR_TCP_FLOWS, {})
        result = controller.execute(None, query)
        assert result.host_count == len(cluster.hosts)
        controller.install(["h-0-0-0"], query, period=0.2)
        assert Q_POOR_TCP_FLOWS in cluster.agent("h-0-0-0").installed
        assert controller.uninstall(["h-0-0-0"], Q_POOR_TCP_FLOWS) == 1
        assert controller.stats.queries_executed == 1

    def test_execute_at_single_host(self, make_pathdump_deployment):
        """Table 1's ``execute([host], query)``: one request and one reply
        message, each its measured codec frame, in either mode."""
        query = Query(Q_POOR_TCP_FLOWS, {})
        seen = []
        for mode in (MODE_SERIAL, MODE_SOCKET):
            _, _, _, cluster, controller = make_pathdump_deployment(mode=mode)
            with cluster:
                host = cluster.hosts[0]
                cluster.rpc.stats.reset()
                result = controller.execute([host], query)
                frames = (wire.encode_query_request(query, None),
                          wire.encode_result(
                              cluster.agent(host).execute_query(query)))
                assert cluster.rpc.stats.messages == 2 and not result.partial
                assert result.traffic_bytes == sum(map(len, frames))
                assert cluster.rpc.stats.bytes == (
                    result.traffic_bytes + 2 * MESSAGE_OVERHEAD_BYTES)
                seen.append((wire.encode_value(result.payload),
                             cluster.rpc.stats.bytes))
        assert seen[0] == seen[1]

    def test_alarm_counting(self, pathdump_deployment):
        _, _, _, cluster, controller = pathdump_deployment
        agent = cluster.agent("h-0-0-0")
        flow = FlowId("h-0-0-0", "h-1-0-0", 1, 2, PROTO_TCP)
        agent.alarm(flow, "POOR_PERF", [])
        assert controller.stats.alarms_received == 1
        assert len(controller.alarms("POOR_PERF")) == 1

    def test_trapped_packet_without_fabric_rejected(self, fattree4,
                                                    fattree4_assignment):
        cluster = QueryCluster(fattree4, fattree4_assignment)
        controller = PathDumpController(cluster, fabric=None)
        from repro.network.packet import make_tcp_packet
        with pytest.raises(RuntimeError):
            controller.handle_trapped_packet("agg-0-0",
                                             make_tcp_packet("a", "b"), 0.0)

    def test_tick_runs_monitors(self, pathdump_deployment):
        _, _, _, cluster, controller = pathdump_deployment
        agent = cluster.agent("h-0-0-0")
        flow = FlowId("h-0-0-0", "h-1-0-0", 1, 2, PROTO_TCP)
        agent.monitor.observe_flow(flow, retransmissions=10, consecutive=9)
        alarms = controller.tick(now=1.0)
        assert any(a.flow_id == flow for a in alarms)
