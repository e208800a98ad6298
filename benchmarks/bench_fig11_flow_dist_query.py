"""Figure 11 - flow-size-distribution query: direct vs multi-level.

Paper results (28 to 112 end hosts, 240 K records per TIB):

* response time: the direct query starts cheaper (~0.11 s) but grows with
  the number of hosts because the controller aggregates every response
  itself; the multi-level query starts higher (~0.17 s) but stays flat, so
  the gap closes as hosts are added (Figure 11a);
* network traffic: both mechanisms move roughly the same, small, amount of
  data (~1 KB) because the histogram result is tiny (Figure 11b).

The benchmark reproduces the same sweep at a reduced records-per-host scale.
"""

from repro.analysis import format_table
from repro.core import MECHANISM_DIRECT, MECHANISM_MULTILEVEL, Query
from repro.core.query import Q_FLOW_SIZE_DISTRIBUTION

from query_testbed import HOST_COUNTS, build_query_cluster


def test_fig11_flow_size_distribution_query(benchmark, report_writer):
    cluster = build_query_cluster(max(HOST_COUNTS))
    query = Query(Q_FLOW_SIZE_DISTRIBUTION,
                  params={"links": [None], "binsize": 10_000})

    def sweep():
        rows = []
        for count in HOST_COUNTS:
            # Fresh RPC/storage counters per experiment: repeated runs on
            # the same cluster must not double-count earlier sweeps.
            cluster.reset_stats()
            hosts = cluster.hosts[:count]
            direct = cluster.execute(query, hosts, MECHANISM_DIRECT)
            multi = cluster.execute(query, hosts, MECHANISM_MULTILEVEL)
            rows.append((count, direct, multi))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # The modelled response time (the paper's channel model priced with
    # measured execution and merge times) beside the measured wall clock
    # of the same call.
    table = [[count,
              f"{direct.response_time_s:.3f}",
              f"{multi.response_time_s:.3f}",
              f"{direct.wall_clock_s:.3f}",
              f"{multi.wall_clock_s:.3f}",
              f"{direct.traffic_bytes / 1e3:.1f}",
              f"{multi.traffic_bytes / 1e3:.1f}"]
             for count, direct, multi in rows]
    report_writer("fig11_flow_dist_query", format_table(
        ["end hosts", "direct modelled resp (s)",
         "multi-level modelled resp (s)", "direct measured wall (s)",
         "multi-level measured wall (s)",
         "direct traffic (KB)", "multi-level traffic (KB)"], table,
        title="Figure 11: flow-size-distribution query (paper: direct "
              "response time grows with hosts while multi-level stays flat; "
              "traffic is small and similar for both)"))

    first = rows[0]
    last = rows[-1]
    # The controller-side aggregation of the direct query grows with the
    # number of hosts (the effect behind Figure 11a's direct-query slope).
    assert last[1].breakdown["controller_aggregation"] > \
        first[1].breakdown["controller_aggregation"]
    # Histogram results are small, so both mechanisms move similar traffic.
    assert last[2].traffic_bytes < 3 * last[1].traffic_bytes
    # Both mechanisms agree on the answer.
    assert first[1].payload == first[2].payload
