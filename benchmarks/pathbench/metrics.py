"""pathbench's metric catalogue and the statistics its numbers go through.

The catalogue is the single source of the names, units, directions and
bounds: ``BENCHMARK.json`` at the repo root is ``benchmark_json()`` written
out (a unit test keeps the two equal), ``run.py`` prints and emits exactly
these names, ``compare.py`` reads the bounds, and the README tables are
``run.py --describe``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: How long one run measures (``--seconds``).  The driver's 114 runs, each
#: this plus 2-6 s of input generation, three set-ups, oracle and
#: interpreter start, use about two thirds of its time cap.
RUN_SECONDS = 15

#: Bound of every timing.  This box alternates between a quiet state and
#: one 1.3x-2x slower, for seconds to minutes at a time; dividing every
#: timing by the speed factor measured around it (``SpeedGauge``) more
#: than halves the effect but leaves run-to-run quartile spreads of
#: 0.05-0.15, and the contract caps a bound at 0.25.  Tighten it when the
#: benchmark moves to a quieter box.
TIMING_BOUND = 0.25


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: the share of the parent's median by which the
    #: metric may worsen before a change counts as a regression.
    bound: Optional[float] = None
    layer: str = ""
    #: wrapped | counter | replayed | harness (see README).
    source: str = ""
    #: Which end-to-end metric it should move, on which workload.
    moves: str = ""
    meaning: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", TIMING_BOUND, meaning=(
        "build cluster + controller, populate TIBs/monitors, start + sync "
        "workers, one warm-up sweep; median of 3 set-ups (input generation "
        "and oracle building excluded, see trace.inputgen_s/oracle_s)")),
    Metric("ingest_pkts_per_s", "packets/s", "higher", TIMING_BOUND,
           meaning=(
        "tagged packets through PathDumpAgent.on_packet_delivered + "
        "periodic flush(now): vswitch -> trajectory memory -> construct -> "
        "TIB upsert -> eviction -> archive")),
    Metric("ingest_records_per_s", "records/s", "higher", TIMING_BOUND,
           meaning=(
        "finished records through PathDumpAgent.ingest_path_record, "
        "merge-upserts onto populated keys between reads")),
    Metric("queries_per_s", "queries/s", "higher", TIMING_BOUND, meaning=(
        "completed PathDumpController.execute calls / sum of their wall "
        "time; closed loop, 1 client, whole cycles of the 8-class x "
        "2-mechanism mix")),
    Metric("query_p50_ms", "ms", "lower", TIMING_BOUND, meaning=(
        "per-query wall time over the mix, median")),
    Metric("query_p90_ms", "ms", "lower", TIMING_BOUND, meaning=(
        "per-query wall time over the mix, 90th percentile")),
    Metric("traffic_bytes_per_query", "bytes", "lower", 0.05, meaning=(
        "DistributedQueryResult.traffic_bytes (measured frame lengths) "
        "averaged over the mix")),
    Metric("alarm_delivery_p50_ms", "ms", "lower", TIMING_BOUND, meaning=(
        "per alarm: controller.tick(now) start -> subscriber callback, "
        "after controller.reset_stats() re-opened alerting")),
    Metric("tick_idle_p50_ms", "ms", "lower", TIMING_BOUND, meaning=(
        "one controller.tick when every poor flow is latched: the "
        "steady-state cost of the 200 ms monitoring loop")),
    Metric("peak_rss_mb", "MB", "lower", 0.10, meaning=(
        "controller VmHWM + sum of worker VmHWM, read from /proc just "
        "before shutdown")),
)


def _layer(layer: str, source: str, moves: str,
           *metrics: Tuple[str, str, str, str]) -> List[Metric]:
    return [Metric(f"{layer}.{name}", unit, better, None, layer, source,
                   moves, meaning)
            for name, unit, better, meaning in metrics]


PER_LAYER: Tuple[Metric, ...] = tuple(
    _layer("vswitch", "wrapped EdgeVSwitch.receive",
           "ingest_pkts_per_s on edge-ingest; nothing elsewhere",
           ("receive_self_us", "us", "lower", "self time per packet"),
           ("packets", "count", "higher", "packets received while traced"))
    + _layer("trajectory", "wrapped TrajectoryMemory.update/evict_idle, "
             "TrajectoryConstructor.construct; counter TrajectoryCache",
             "ingest_pkts_per_s on edge-ingest",
             ("update_self_us", "us", "lower", "self time per packet"),
             ("evict_self_us", "us", "lower", "evict_idle self time per "
              "record out"),
             ("construct_self_us", "us", "lower", "self time per record"),
             ("cache_hit_ratio", "ratio", "higher", "TrajectoryCache hits / "
              "lookups"),
             ("records_out", "count", "higher", "records constructed"))
    + _layer("agent", "wrapped on_packet_delivered, flush, "
             "ingest_path_record",
             "ingest_pkts_per_s on edge-ingest",
             ("glue_self_us", "us", "lower", "agent self time per packet, "
              "outside its children"))
    + _layer("tib", "wrapped Tib.add_record(s), Tib.scan, Tib.spec_records; "
             "counters scan_stat_snapshot, tier_stats",
             "writes: ingest_pkts_per_s on edge-ingest, "
             "ingest_records_per_s on query-cold; reads: queries_per_s on "
             "query-hot; not fanout-*",
             ("upsert_self_us", "us", "lower", "add_record self time per "
              "record, archive excluded"),
             ("merge_fraction", "ratio", "higher", "upserts that merged "
              "into an existing key"),
             ("evictions", "count", "lower", "hot -> cold moves"),
             ("promotions", "count", "lower", "cold -> hot moves and "
              "off-tier folds"),
             ("scan_self_ms", "ms", "lower", "hot read self time per call"),
             ("scan_calls", "count", "lower", "hot reads"),
             ("index_routed_fraction", "ratio", "higher", "hot reads served "
              "by the flow/link/time index"),
             ("hot_full_scans", "count", "lower", "hot reads that walked "
              "the whole cache"),
             ("hot_bytes_per_record", "bytes", "lower", "tier_stats "
              "hot_bytes / hot_records"))
    + _layer("archive", "wrapped ColdArchive.stage/append/flush/compact/"
             "scan/take; counters tier_stats",
             "reads: queries_per_s, query_p90_ms on query-cold; writes: "
             "ingest_pkts_per_s on edge-ingest; nothing on query-hot",
             ("write_self_us", "us", "lower", "stage + take + flush + "
              "compact self time per evicted record"),
             ("flushes", "count", "lower", "write-behind flushes"),
             ("compactions", "count", "lower", "log compactions"),
             ("segments", "count", "lower", "sealed segments at the end"),
             ("scan_self_ms", "ms", "lower", "cold scan self time per call"),
             ("segments_skipped_fraction", "ratio", "higher", "segments "
              "pruned / segments considered"),
             ("entries_decoded_per_result", "ratio", "lower", "entries "
              "decoded per record a cold scan returned"),
             ("decode_cache_hit_ratio", "ratio", "higher", "decode-cache "
              "hits / (hits + decodes)"),
             ("cold_bytes_per_record", "bytes", "lower", "archive bytes / "
              "live cold records (space trades against read and write "
              "cost); end-to-end on capped workloads only, hence here"))
    + _layer("docstore", "counter Collection.stats",
             "canaries: a write-path full scan shows in ingest_*",
             ("full_scans", "count", "lower", "unindexed collection scans"),
             ("index_rebuilds", "count", "lower", "index rebuilds"),
             ("compactions", "count", "lower", "tombstone compactions"))
    + _layer("plan", "wrapped validate, compile_*, execute_plan, "
             "merge_payloads; counter scan_stats",
             "queries_per_s on query-hot; query-cold via pushdown quality",
             ("validate_self_us", "us", "lower", "per call"),
             ("compile_self_us", "us", "lower", "per call"),
             ("execute_self_ms", "ms", "lower", "per host call, scans "
              "excluded"),
             ("merge_self_ms", "ms", "lower", "per call"),
             ("records_scanned_per_result", "ratio", "lower", "records the "
              "scans surfaced per plan execution"))
    + _layer("query", "wrapped QueryEngine.execute/merge, "
             "measured_result_wire_bytes",
             "queries_per_s on query-hot (execute), fanout-serial (merge, "
             "sizing)",
             ("execute_self_ms", "ms", "lower", "handler bodies, per host "
              "call"),
             ("merge_self_ms", "ms", "lower", "per call"),
             ("result_sizing_self_ms", "ms", "lower", "per call"))
    + _layer("wire", "wrapped controller-side, replayed worker-side",
             "queries_per_s, alarm_delivery_p50_ms, ingest_records_per_s, "
             "traffic_bytes_per_query on fanout-socket; not query-hot",
             ("encode_request_us", "us", "lower", "per frame"),
             ("decode_request_us", "us", "lower", "per frame (replayed)"),
             ("encode_result_us", "us", "lower", "per frame (replayed)"),
             ("decode_result_us", "us", "lower", "per frame"),
             ("group_batch_us", "us", "lower", "encode/decode per envelope"),
             ("encode_alarm_batch_us", "us", "lower", "per frame "
              "(replayed)"),
             ("decode_alarm_batch_us", "us", "lower", "per frame"),
             ("encode_record_batch_us_per_record", "us", "lower",
              "mirror encode"),
             ("decode_record_batch_us_per_record", "us", "lower",
              "mirror decode (replayed)"),
             ("request_bytes_per_host", "bytes", "lower", "request frame"),
             ("result_bytes_per_host", "bytes", "lower", "result frame"))
    + _layer("executor", "wrapped ScatterGatherExecutor.run; counter "
             "GatherResult via breakdown",
             "queries_per_s on fanout-serial and fanout-socket",
             ("run_self_ms", "ms", "lower", "per gather, work and merge "
              "callbacks excluded"),
             ("merge_ms_total", "ms", "lower", "multilevel: merge time over "
              "every node, per query"),
             ("root_merge_ms", "ms", "lower", "controller aggregation per "
              "query"),
             ("max_exec_ms", "ms", "lower", "direct: the slowest part, "
              "which sets the gather's time"),
             ("warnings", "count", "lower", "ExecWarnings on results"))
    + _layer("cluster", "wrapped QueryCluster.execute/run_monitors/"
             "reset_stats; harness",
             "per-class rows locate which class moved queries_per_s; tails "
             "show background-work spikes p50 hides",
             ("execute_self_ms", "ms", "lower", "per query"),
             ("run_monitors_self_ms", "ms", "lower", "per tick"),
             ("reset_stats_ms", "ms", "lower", "per reset (untimed in the "
              "end-to-end metrics)"),
             ("direct_p50_ms", "ms", "lower", "direct queries"),
             ("multilevel_p50_ms", "ms", "lower", "multilevel queries"),
             *((f"q_{name}_p50_ms", "ms", "lower", f"class {name}")
               for name in ("topk", "topk_link_window", "fsd", "fsd_link",
                            "matrix", "flows_link_window", "count",
                            "poor_tcp")),
             ("full_history_p50_ms", "ms", "lower", "fsd and matrix on the "
              "full-history sweeps: a full scan of every TIB"),
             ("query_tail_ms", "ms", "lower", "the highest of p90/p99/p99.9 "
              "with >= 10 samples beyond it"),
             ("query_max_ms", "ms", "lower", "slowest query"),
             ("alarm_delivery_p90_ms", "ms", "lower", "alarm tail"))
    + _layer("controller", "wrapped PathDumpController.execute/tick",
             "every query and tick metric, a sliver",
             ("self_us", "us", "lower", "per call"))
    + _layer("groupserver", "wrapped GroupAgentPool.group_query/query/"
             "group_monitor_tick/add_records; counter GroupPoolStats",
             "setup_s, queries_per_s, query_p90_ms, alarm_delivery_p50_ms, "
             "tick_idle_p50_ms, ingest_records_per_s on fanout-socket; "
             "exactly nothing on the four serial workloads",
             ("startup_s", "s", "lower", "configure_executor(mode=socket): "
              "spawn + sync + barrier"),
             ("group_query_ms", "ms", "lower", "per envelope round trip"),
             ("host_query_ms", "ms", "lower", "per-host round trip (the "
              "multilevel path)"),
             ("wait_ms_per_query", "ms", "lower", "query wall - replayed "
              "worker CPU / groups - controller codec = transport + "
              "scheduling"),
             ("frames_per_envelope", "ratio", "higher", "coalescing factor"),
             ("envelopes_per_query", "ratio", "lower", "envelopes sent"),
             ("bytes_per_query", "bytes", "lower", "envelope bytes both "
              "ways"),
             ("tick_rtt_ms", "ms", "lower", "per group tick envelope"),
             ("mirror_rtt_us_per_record", "us", "lower", "add_records per "
              "mirrored record"),
             ("restarts", "count", "lower", "worker restarts"),
             ("decode_errors", "count", "lower", "undecodable replies"))
    + _layer("monitor", "wrapped/replayed ActiveMonitor.run_check",
             "alarm_delivery_p50_ms, tick_idle_p50_ms on fanout-serial "
             "(all of it) and fanout-socket (a sliver)",
             ("run_check_us_per_host", "us", "lower", "per host check"),
             ("flows_per_host", "count", "lower", "monitored flows"),
             ("alarms_per_sweep", "count", "higher", "alarms per alarm "
              "sweep"))
    + _layer("alarms", "wrapped AlarmBus.raise_alarm",
             "alarm_delivery_p50_ms",
             ("dispatch_us_per_alarm", "us", "lower", "bus self time"),
             ("delivered", "count", "higher", "alarms delivered while "
              "traced"))
    + _layer("rpc", "counter RpcChannel", "traffic_bytes_per_query",
             ("messages_per_query", "ratio", "lower", "modelled messages"))
    + _layer("trace", "harness", "-",
             ("coverage", "ratio", "higher", "sum of self times on the "
              "blocking path / wall of the timed sections"),
             ("overhead_ratio", "ratio", "lower", "traced / untraced wall "
              "of a cycle"),
             ("spans", "count", "lower", "spans recorded"),
             ("unresolved", "count", "lower", "wrapper targets that no "
              "longer resolve (their metrics read -1)"),
             ("oracle_s", "s", "lower", "untimed oracle work"),
             ("inputgen_s", "s", "lower", "untimed input generation"),
             ("oracle_checks", "count", "higher", "oracle comparisons"),
             ("iterations", "count", "higher", "iterations completed"),
             ("failed_fraction", "ratio", "lower", "failed / attempted; "
              "always 0 on a correct run, hence not end-to-end"),
             ("speed_factor", "ratio", "lower", "median SpeedGauge factor "
              "of the run: how much slower than quiet the box was; the "
              "per-layer times are as measured, multiply an end-to-end "
              "timing by it to get the one this run saw")))

#: A per-layer metric whose wrapper target did not resolve reads this.
UNRESOLVED = -1.0


def benchmark_json() -> Dict[str, object]:
    """The contract file, from the catalogue."""
    from pathbench.workloads import WORKLOADS
    return {
        "command": ["python3", "benchmarks/pathbench/run.py"],
        "paths": ["benchmarks/pathbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": shape.name, "why": shape.why}
                      for shape in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------
def by_cycle(rows: Sequence[Sequence], cycle: int) -> List[List[Sequence]]:
    """Sample rows (iteration first) grouped by cycle, in cycle order."""
    grouped: Dict[int, List[Sequence]] = {}
    for row in rows:
        grouped.setdefault(row[0] // cycle, []).append(row)
    return [grouped[index] for index in sorted(grouped)]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of unsorted
    values; raises on an empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: The percentiles a tail may be reported at.
TAIL_LADDER = (90.0, 99.0, 99.9)


def gated_tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile of the ladder with at least ten samples
    beyond it, as ``(q, value)``; falls back to the median when even p90
    has fewer."""
    count = len(values)
    chosen = 50.0
    for q in TAIL_LADDER:
        if count * (100.0 - q) / 100.0 >= 10.0 - 1e-9:  # 0.1 is not exact
            chosen = q
    return chosen, percentile(values, chosen)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``, as the driver does)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else float("inf")
