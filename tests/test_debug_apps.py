"""Tests for the Section 4 debugging applications."""

from collections import defaultdict

import pytest

from repro.debug import (ConformancePolicy, MaxCoverageLocalizer,
                         coverage_fraction, coverage_table, ddos_fan_in,
                         congested_link_flows, heavy_hitters,
                         implementation_index, path_to_signature,
                         pathdump_unsupported, run_blackhole_experiment,
                         run_incast_experiment, run_outcast_experiment,
                         run_packet_spraying_experiment,
                         run_path_conformance_experiment,
                         run_routing_loop_experiment,
                         run_silent_drop_experiment, top_k_flows,
                         traffic_matrix, VERDICT_INCAST, VERDICT_OUTCAST)
from repro.core import QueryCluster
from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import PathFlowRecord
from repro.transport import FlowLevelSimulator
from repro.workloads import FlowGenerator


class TestConformancePolicy:
    def test_length_and_forbidden_switch(self):
        policy = ConformancePolicy(max_switch_hops=6,
                                   forbidden_switches={"core-0-0"})
        short = ["h-0-0-0", "tor-0-0", "agg-0-1", "core-1-0", "agg-2-1",
                 "tor-2-0", "h-2-0-0"]
        assert policy.conforms(short)
        long_path = short[:-1] + ["agg-2-0", "tor-2-0", "h-2-0-0"]
        assert not policy.conforms(long_path)
        bad = [n.replace("core-1-0", "core-0-0") for n in short]
        assert not policy.conforms(bad)

    def test_waypoint_requirement(self):
        policy = ConformancePolicy(required_waypoints={"fw-1"})
        assert not policy.conforms(["h-1", "s1", "h-2"])
        assert policy.conforms(["h-1", "s1", "fw-1", "h-2"])

    def test_to_query(self):
        query = ConformancePolicy(max_switch_hops=6).to_query(period=0.5)
        assert query.params["max_hops"] == 6
        assert query.period == 0.5


class TestPathConformanceExperiment:
    def test_figure4_detour_detected(self):
        result = run_path_conformance_experiment(seed=1)
        assert result.violation_detected
        assert result.detour_hops >= 2
        assert result.detection_paths
        assert len(result.detection_paths[0]) > len(result.expected_path)


class TestMaxCoverage:
    def test_single_fault_localized(self):
        localizer = MaxCoverageLocalizer(min_cover=2)
        faulty = frozenset(("s2", "s3"))
        paths = [
            ["h1", "s1", "s2", "s3", "s4", "h2"],
            ["h3", "s5", "s2", "s3", "s6", "h4"],
            ["h5", "s7", "s2", "s3", "s8", "h6"],
        ]
        localizer.add_signatures(paths)
        result = localizer.localize()
        assert result.reported_set == {faulty}
        assert result.covered_signatures == 3

    def test_min_cover_threshold(self):
        localizer = MaxCoverageLocalizer(min_cover=2)
        localizer.add_signature(["h1", "s1", "s2", "h2"])
        assert localizer.localize().reported == []

    def test_traversal_counts_disambiguate(self):
        """A healthy shared link must not shadow the real faulty link."""
        localizer = MaxCoverageLocalizer(min_cover=2)
        # Every suffering flow crosses both (s1, s2) [shared, healthy] and
        # (s2, s3) [faulty]; plenty of healthy flows also cross (s1, s2).
        for _ in range(5):
            localizer.add_signature(["h1", "s1", "s2", "s3", "h2"])
        for _ in range(50):
            localizer.add_traversal(["h1", "s1", "s2", "s4", "h3"])
        for _ in range(6):
            localizer.add_traversal(["h1", "s1", "s2", "s3", "h2"])
        result = localizer.localize()
        assert result.reported[0] == frozenset(("s2", "s3"))

    def test_path_to_signature_skips_hosts(self):
        signature = path_to_signature(["h-0-0-0", "tor-0-0", "agg-0-0",
                                       "h-1-0-0"])
        assert frozenset(("tor-0-0", "agg-0-0")) in signature
        assert len(signature) == 1


class TestSilentDropExperiment:
    def test_accuracy_converges_single_fault(self):
        result = run_silent_drop_experiment(
            faulty_interfaces=1, duration_s=30, interval_s=5,
            network_load=0.7, link_capacity_bps=5e7, seed=3)
        assert result.points
        assert result.final_recall() == 1.0
        assert result.final_precision() == 1.0
        assert result.time_to_perfect_s is not None
        assert result.flows_simulated > 100

    def test_accuracy_is_monotone_in_evidence(self):
        result = run_silent_drop_experiment(
            faulty_interfaces=2, duration_s=30, interval_s=5,
            network_load=0.7, link_capacity_bps=5e7, seed=4)
        signatures = [p.signatures for p in result.points]
        assert signatures == sorted(signatures)


class TestBlackholeExperiment:
    def test_agg_core_blackhole_narrows_to_few_switches(self):
        result = run_blackhole_experiment(scenario="agg-core",
                                          background_flows=30, seed=2)
        assert result.alarm_raised
        assert result.diagnosis.impacted_subflows == 1
        assert result.culprit_covered
        assert 1 <= len(result.diagnosis.prioritized_switches) <= 3
        assert result.diagnosis.search_space_reduction > 2

    def test_tor_agg_blackhole_impacts_two_subflows(self):
        result = run_blackhole_experiment(scenario="tor-agg",
                                          background_flows=30, seed=2)
        assert result.diagnosis.impacted_subflows == 2
        assert len(result.diagnosis.candidate_switches) == 4
        assert result.culprit_covered

    def test_invalid_scenario(self):
        with pytest.raises(ValueError):
            run_blackhole_experiment(scenario="bogus")


class TestRoutingLoopExperiment:
    def test_small_loop_detected_in_one_round(self):
        result = run_routing_loop_experiment(loop="small", seed=1)
        assert result.detected
        assert result.rounds == 1
        assert result.repeated_link_id is not None
        assert 0.01 < result.detection_latency_s < 0.2

    def test_large_loop_needs_reinjection_round(self):
        result = run_routing_loop_experiment(loop="large", seed=1)
        assert result.detected
        assert result.rounds == 2
        assert result.detection_latency_s > \
            run_routing_loop_experiment(loop="small",
                                        seed=1).detection_latency_s


class TestTcpAnomaly:
    def test_outcast_detected_with_correct_victim(self):
        result = run_outcast_experiment(seed=1)
        assert result.detection_correct
        diagnosis = result.diagnosis
        assert diagnosis.verdict == VERDICT_OUTCAST
        assert diagnosis.alerts_seen >= 10
        victim_rate = result.throughputs_mbps[diagnosis.victim]
        others = [v for s, v in result.throughputs_mbps.items()
                  if s != diagnosis.victim]
        assert victim_rate < 0.5 * (sum(others) / len(others))
        assert diagnosis.fairness_index < 0.95

    def test_incast_classified(self):
        diagnosis = run_incast_experiment(senders=12, seed=1)
        assert diagnosis.verdict == VERDICT_INCAST


class TestMeasurementApplications:
    @pytest.fixture()
    def measured_cluster(self, fattree4, fattree4_assignment):
        cluster = QueryCluster(fattree4, fattree4_assignment)
        simulator = FlowLevelSimulator(fattree4, seed=8)
        generator = FlowGenerator(fattree4.hosts, seed=9)
        flows = generator.poisson_per_host(duration=0.3)
        cluster.ingest_flow_outcomes(simulator.simulate(flows))
        cluster.total_offered = sum(f.size for f in flows)
        return cluster

    def test_top_k_flows(self, measured_cluster):
        flows, result = top_k_flows(measured_cluster, k=10)
        assert len(flows) == 10
        assert flows == sorted(flows, key=lambda f: -f.bytes)
        assert result.payload

    def test_heavy_hitters_threshold(self, measured_cluster):
        hitters = heavy_hitters(measured_cluster, threshold_bytes=1_000_000)
        assert all(h.bytes >= 1_000_000 for h in hitters)
        with pytest.raises(ValueError, match="precedes"):
            heavy_hitters(measured_cluster, 1, time_range=(0.2, 0.1))

    def test_traffic_matrix_totals(self, measured_cluster):
        matrix, _ = traffic_matrix(measured_cluster)
        assert matrix.total_bytes() > 0
        assert matrix.total_bytes() <= measured_cluster.total_offered

    def test_congested_link_flows(self, measured_cluster, fattree4):
        flows = congested_link_flows(measured_cluster,
                                     ("agg-0-0", "core-0-0"), top=5)
        assert len(flows) <= 5
        with pytest.raises(ValueError, match="precedes"):
            congested_link_flows(measured_cluster, ("agg-0-0", "core-0-0"),
                                 time_range=(0.2, 0.1))

    def test_ddos_fan_in(self, measured_cluster):
        reports = ddos_fan_in(measured_cluster, source_threshold=3)
        assert reports[0].distinct_sources >= reports[-1].distinct_sources
        with pytest.raises(ValueError, match="precedes"):
            ddos_fan_in(measured_cluster, time_range=(0.2, 0.1))

    # Brute-force references over the serial agents' ``tib.records()``.
    # The apps' reads go through ``cluster.execute``; these pin what
    # they answer, order included.
    @staticmethod
    def _records(cluster, time_range=None):
        for host, agent in cluster.agents.items():
            for record in agent.tib.records():
                if time_range is None or (record.etime >= time_range[0]
                                          and record.stime <= time_range[1]):
                    yield host, record

    @staticmethod
    def _ranked(totals):
        return sorted(totals.items(), key=lambda kv: -kv[1])

    @pytest.mark.parametrize("time_range", [None, (0.05, 0.2)])
    def test_heavy_hitters_match_brute_force(self, measured_cluster,
                                             time_range):
        totals = defaultdict(int)
        for _host, record in self._records(measured_cluster, time_range):
            totals[record.flow_id] += record.bytes
        threshold = sorted(totals.values())[len(totals) // 2]
        expected = [(flow, nbytes) for flow, nbytes in self._ranked(totals)
                    if nbytes >= threshold]
        assert len(expected) >= 10
        hitters = heavy_hitters(measured_cluster, threshold,
                                time_range=time_range)
        assert [(h.flow_id, h.bytes) for h in hitters] == expected

    def test_congested_link_flows_match_brute_force(self, measured_cluster):
        link = ("agg-0-0", "core-0-0")
        totals = defaultdict(int)
        for _host, record in self._records(measured_cluster):
            hops = set(zip(record.path, record.path[1:]))
            if link in hops or link[::-1] in hops:
                totals[record.flow_id] += record.bytes
        ranked = self._ranked(totals)
        assert len(ranked) > 5 and ranked[4][1] != ranked[5][1]
        flows = congested_link_flows(measured_cluster, link, top=5)
        assert [(f.flow_id, f.bytes) for f in flows] == ranked[:5]

    def test_ddos_fan_in_matches_brute_force(self, measured_cluster):
        # A record held away from its destination counts nowhere: fan-in
        # is what each destination itself recorded.
        first, second = measured_cluster.hosts[:2]
        measured_cluster.agent(first).ingest_path_record(PathFlowRecord(
            flow_id=FlowId("h-stray", second, 4242, 80, PROTO_TCP),
            path=(first, "tor-0-0", second), stime=0.0, etime=0.1,
            bytes=1_000, pkts=1))
        sources = defaultdict(set)
        total = defaultdict(int)
        for host, record in self._records(measured_cluster):
            if record.flow_id.dst_ip == host:
                sources[host].add(record.flow_id.src_ip)
                total[host] += record.bytes
        counts = sorted(len(sources[host]) for host in measured_cluster.hosts)
        threshold = counts[len(counts) // 2]
        assert counts[0] < threshold
        expected = sorted(((host, len(sources[host]), total[host],
                            len(sources[host]) >= threshold)
                           for host in measured_cluster.hosts),
                          key=lambda row: -row[1])
        reports = ddos_fan_in(measured_cluster, source_threshold=threshold)
        assert [(r.destination, r.distinct_sources, r.total_bytes,
                 r.suspicious) for r in reports] == expected


class TestCoverageMatrix:
    def test_fraction_matches_paper_claim(self):
        assert coverage_fraction() == pytest.approx(13 / 15)

    def test_unsupported_are_the_two_in_network_cases(self):
        names = {row.name for row in pathdump_unsupported()}
        assert names == {"Overlay loop detection",
                         "Incorrect packet modification"}

    def test_table_and_index_shapes(self):
        assert len(coverage_table()) == 15
        index = implementation_index()
        assert index["Loop freedom"] == "repro.debug.routing_loop"
