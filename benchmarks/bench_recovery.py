"""Self-healing agent plane: measured recovery cost after worker death.

Kills one agent-server worker per round (seeded victim rotation) and
measures what the supervision layer actually buys:

* **time-to-recover**: wall clock from the worker being dead until the
  cluster returns a full (non-partial) result again - this includes
  detecting the failure on the next scatter, respawning the process and
  re-seeding the worker's TIB + monitor state from the local mirrors;
* **re-seed cost**: the pool-measured milliseconds spent respawning and
  replaying state (``GroupPoolStats.reseed_ms``), per restart;
* **queries failed during restart**: with ``retries=0`` the scatter that
  detects the death is partial (exactly one failed query per kill - the
  restart completes behind it); with ``retries=1`` the executor's retry
  lands on the already-recovered worker and *zero* queries fail.

Every post-recovery payload is asserted byte-identical to the pre-kill
reference, so the numbers describe recovery to *correct* service, not just
to "something answers".  The summary is folded into ``BENCH_storage.json``
under ``"recovery"``.
"""

import statistics
import time

from repro.analysis import format_table
from repro.core import (MODE_PROCESS, Q_TOP_K_FLOWS, Query, QueryCluster,
                        wire)
from repro.core.supervisor import RestartPolicy, Supervisor

from query_testbed import QUICK, build_query_topology, populate_cluster
from storage_workload import fold_into_bench_json

#: Smoke tier (CI) keeps the shape, cuts the scale.
NUM_HOSTS = 4 if QUICK else 8
RECORDS_PER_HOST = 150 if QUICK else 1500
#: Kills measured per scenario (victims rotate deterministically).
ROUNDS = 2 if QUICK else 5

QUERY = Query(Q_TOP_K_FLOWS, {"k": 10})


def build_recovery_cluster(retries):
    cluster = QueryCluster(
        build_query_topology(NUM_HOSTS),
        supervisor=Supervisor(RestartPolicy(max_restarts=2 * ROUNDS,
                                            backoff_base_s=0.01,
                                            backoff_max_s=0.05)))
    populate_cluster(cluster, RECORDS_PER_HOST, seed=20260808)
    cluster.configure_executor(mode=MODE_PROCESS, retries=retries)
    return cluster


def kill_and_wait(pool, host, timeout=5.0):
    pool.kill(host)
    deadline = time.monotonic() + timeout
    while pool.alive(host) and time.monotonic() < deadline:
        time.sleep(0.005)
    assert not pool.alive(host)


def measure_scenario(retries):
    """ROUNDS kill/recover cycles; returns the scenario's summary row."""
    cluster = build_recovery_cluster(retries)
    try:
        pool = cluster.agent_servers
        reference = wire.encode_value(cluster.execute(QUERY).payload)
        recover_ms = []
        failed_queries = 0
        for round_index in range(ROUNDS):
            victim = cluster.hosts[round_index % len(cluster.hosts)]
            kill_and_wait(pool, victim)
            reseed_before = pool.stats.reseed_ms
            started = time.perf_counter()
            while True:
                result = cluster.execute(QUERY)
                if not result.partial:
                    break
                failed_queries += 1
            recover_ms.append((time.perf_counter() - started) * 1e3)
            assert wire.encode_value(result.payload) == reference
            assert pool.stats.reseed_ms > reseed_before
        stats = pool.stats
        return {
            "retries": retries,
            "kills": ROUNDS,
            "restarts": stats.restarts,
            "recover_ms": round(statistics.median(recover_ms), 3),
            "reseed_ms": round(stats.reseed_ms / max(1, stats.restarts), 3),
            "failed_queries": failed_queries,
            "records_reseeded": RECORDS_PER_HOST,
        }
    finally:
        cluster.close()


def test_recovery_cost(benchmark, report_writer):
    def run():
        return [measure_scenario(retries) for retries in (0, 1)]

    scenarios = benchmark.pedantic(run, rounds=1, iterations=1)

    table = [[f"retries={row['retries']}", row["kills"], row["restarts"],
              f"{row['recover_ms']:.2f}", f"{row['reseed_ms']:.2f}",
              row["failed_queries"]]
             for row in scenarios]
    report_writer("recovery", format_table(
        ["scenario", "kills", "restarts", "time-to-recover (ms, median)",
         "re-seed (ms/restart)", "queries failed"], table,
        title=f"Worker recovery: {NUM_HOSTS} hosts, {RECORDS_PER_HOST} "
              f"records/host re-seeded per restart, {ROUNDS} kills per "
              "scenario (measured wall clock; every post-recovery payload "
              "byte-identical to the pre-kill reference)"))

    fold_into_bench_json("recovery", {
        "hosts": NUM_HOSTS,
        "records_per_host": RECORDS_PER_HOST,
        "rounds": ROUNDS,
        "quick": QUICK,
        "scenarios": scenarios,
    })

    # Recovery guarantees, not a speed race: every kill produced exactly
    # one restart, the no-retry scatter loses exactly one query per kill,
    # and one executor retry hides the failure entirely.
    no_retry, one_retry = scenarios
    assert no_retry["restarts"] == ROUNDS
    assert one_retry["restarts"] == ROUNDS
    assert no_retry["failed_queries"] == ROUNDS
    assert one_retry["failed_queries"] == 0
