"""Two-tier TIB benchmark: bounded hot memory, measured archive, identity.

PathDump keeps only recent flow entries in the in-memory TIB and ages the
rest to persistent storage; Section 5.3 budgets ~10 MB of RAM against
~110 MB of disk per server.  This benchmark measures this implementation's
counterpart - a :class:`~repro.storage.archive.RetentionPolicy`-capped hot
engine over the log-structured :class:`~repro.storage.archive.ColdArchive`:

* the acceptance check: ingesting **10x a small hot-tier cap** leaves the
  hot tier's record count / ``estimated_bytes`` under the cap, while every
  query's payload stays **byte-identical** to an uncapped TIB's;
* ingest throughput with aging on versus off (the price of eviction);
* query latency on the capped TIB (hot+cold spanning reads) versus the
  uncapped one (hot only), for time-window, link and unconstrained scans;
* a full-history *aggregate* (``Tib.fold``: columns, no records) beside the
  full scan on the same TIB - what not materialising a cold row saves.

Writes ``reports/two_tier_tib.txt`` and folds a machine-readable summary
into ``BENCH_storage.json`` under ``"two_tier_tib"``.
"""

import gc
import time

from repro.analysis import format_table
from repro.core import wire
from repro.core.tib import Tib
from repro.storage import RetentionPolicy, ScanSpec

from query_testbed import QUICK
from storage_workload import fold_into_bench_json, make_records

#: Hot-tier record cap; the workload ingests 10x this many records.
HOT_CAP = 200 if QUICK else 2_000
INGEST_FACTOR = 10
RECORD_COUNT = HOT_CAP * INGEST_FACTOR
#: Distinct (flow, path) pairs - some merges land on archived keys, so the
#: promote-on-merge path is part of the measured workload.
DISTINCT_PAIRS = RECORD_COUNT * 4 // 5
QUERY_ROUNDS = 20 if QUICK else 100


def build_pair(count=RECORD_COUNT, distinct=DISTINCT_PAIRS, cap=HOT_CAP):
    """A capped and an uncapped TIB fed the identical record stream."""
    records = make_records(count, distinct)
    capped = Tib("capped", retention=RetentionPolicy(max_records=cap))
    plain = Tib("plain")
    for record in records:
        plain.add_record(record)
    t0 = time.perf_counter()
    for record in records:
        capped.add_record(record)
    capped_ingest_s = time.perf_counter() - t0
    return capped, plain, capped_ingest_s


def _payload(records):
    return wire.encode_value(
        [(r.flow_id, r.path, r.stime, r.etime, r.bytes, r.pkts)
         for r in records])


def _time_queries(tib, windows, link):
    t0 = time.perf_counter()
    for window in windows:
        tib.records(time_range=window)
    window_s = (time.perf_counter() - t0) / len(windows)
    t0 = time.perf_counter()
    for _ in range(len(windows)):
        tib.get_flows(link=link)
    link_s = (time.perf_counter() - t0) / len(windows)
    # The one shot starts from a collected heap: a CPython full collection
    # landing inside it reads ~10 instead of ~2.5 us per cold record.
    gc.collect()
    t0 = time.perf_counter()
    tib.records()
    full_s = time.perf_counter() - t0
    return window_s, link_s, full_s


def _time_full_aggregate(tib):
    """One full-history fold of the two columns the aggregate handlers
    read, consumed: ``(seconds, rows, bytes)``.  One shot from a collected
    heap, like the full scan it is compared with."""
    gc.collect()
    t0 = time.perf_counter()
    rows = total = 0
    for nbytes, paths in tib.fold(ScanSpec(), ("bytes", "path")):
        rows += len(paths)
        total += sum(nbytes)
    return time.perf_counter() - t0, rows, total


def test_two_tier_tib(benchmark, report_writer):
    def run():
        # uncapped ingest timing (the baseline the eviction cost compares to)
        records = make_records(RECORD_COUNT, DISTINCT_PAIRS)
        t0 = time.perf_counter()
        baseline = Tib("baseline")
        for record in records:
            baseline.add_record(record)
        plain_ingest_s = time.perf_counter() - t0

        capped, plain, capped_ingest_s = build_pair()
        return capped, plain, capped_ingest_s, plain_ingest_s

    capped, plain, capped_ingest_s, plain_ingest_s = benchmark.pedantic(
        run, rounds=1, iterations=1)

    # ---- the memory bound (the acceptance criterion) --------------------
    stats = capped.tier_stats()
    assert capped.record_count() <= HOT_CAP, \
        f"hot tier {capped.record_count()} exceeds cap {HOT_CAP}"
    assert capped.total_record_count() == plain.record_count()
    assert stats["cold_records"] > 0 and stats["cold_bytes"] > 0

    # a byte-capped twin obeys its byte bound too
    byte_cap = plain.estimated_bytes() // INGEST_FACTOR
    byte_capped = Tib("bytecap", retention=RetentionPolicy(
        max_bytes=byte_cap))
    for record in make_records(RECORD_COUNT, DISTINCT_PAIRS):
        byte_capped.add_record(record)
    assert byte_capped.estimated_bytes() <= byte_cap

    # ---- byte-identical payloads across the tier split ------------------
    windows = [(100.0 * i, 100.0 * i + 50.0) for i in range(QUERY_ROUNDS)]
    for window in (None, windows[0], (windows[1][0], None)):
        assert _payload(capped.records(time_range=window)) == \
            _payload(plain.records(time_range=window))
    assert wire.encode_value(capped.flow_byte_totals()) == \
        wire.encode_value(plain.flow_byte_totals())
    link = ("leaf-0", "spine-0")
    assert wire.encode_value(capped.get_flows(link=link)) == \
        wire.encode_value(plain.get_flows(link=link))

    # ---- spanning-read latency vs hot-only ------------------------------
    capped_window_s, capped_link_s, capped_full_s = _time_queries(
        capped, windows, link)
    plain_window_s, plain_link_s, plain_full_s = _time_queries(
        plain, windows, link)

    # The cold-tier query engine's bounds: same-run ratios against the
    # single-tier engine, so the box's speed cancels.  That side is cheap
    # (uncapped ingest ~7 us a record, hot-only get_flows ~1.0 ms for
    # ~2,000 matches), so the ratios read high against small absolute cold
    # costs.  Exact link postings (a segment without a row on the link is
    # skipped, a survivor's rows on it are one posting run) plus column
    # predicates keep a spanning link query well inside the bound with
    # every scan materialising its matches afresh; admission control plus
    # the write-behind buffer keep
    # capped ingest at ~2.5-4x uncapped (~20 us a record).  The bounds sit
    # just above what a shared runner's noise reaches.
    assert capped_link_s <= 15.0 * plain_link_s, \
        f"spanning link query {capped_link_s / plain_link_s:.1f}x hot-only"
    assert capped_ingest_s <= 5.0 * plain_ingest_s, \
        f"capped ingest {capped_ingest_s / plain_ingest_s:.2f}x uncapped"
    # Reading a cold record back costs a fraction of what writing it did:
    # a same-run ratio, so the box's speed cancels.  (The row log decoded
    # at ~18 us a record against ~22 us ingested, 0.8; column-major
    # segments materialise at ~1.5-3.5 us.)  The quick tier promotes few
    # records, so its ingest is ~5-10 us a record and the ratio reads
    # 0.2-0.4 there; only that tier's bound is relaxed.
    cold_records = stats["cold_records"]
    full_us_per_cold_record = capped_full_s / cold_records * 1e6
    ingest_us_per_record = capped_ingest_s / RECORD_COUNT * 1e6
    full_scan_bound = 0.5 if QUICK else 0.25
    assert full_us_per_cold_record <= full_scan_bound * ingest_us_per_record, \
        f"full spanning scan {full_us_per_cold_record:.1f} us per cold " \
        f"record vs {ingest_us_per_record:.1f} us per ingested record"

    # Pruning did the work: the repeated scans must have skipped segments,
    # not read every one.
    scan_stats = capped.tier_stats()
    assert scan_stats["segments_skipped"] > 0

    # ---- aggregation without materialisation ----------------------------
    # Timed after the counters above were read, so the scan rows stay
    # like-for-like with earlier reports.  A same-run ratio on one TIB:
    # folding the history's columns against building a record per row.
    capped_fold_s, *capped_sums = _time_full_aggregate(capped)
    plain_fold_s, *plain_sums = _time_full_aggregate(plain)
    assert capped_sums == plain_sums == [
        plain.record_count(), sum(r.bytes for r in plain.records())]
    assert capped.tier_stats()["entries_decoded"] == \
        scan_stats["entries_decoded"], "a fold materialised cold rows"
    assert capped_fold_s <= 0.5 * capped_full_s, \
        f"full-history aggregate {capped_fold_s * 1e3:.2f} ms vs full " \
        f"scan {capped_full_s * 1e3:.2f} ms over the same rows"

    hot_bytes = capped.estimated_bytes()
    cold_bytes = capped.archive_bytes()
    rows = [
        ["records ingested (10x cap)", RECORD_COUNT, ""],
        ["hot-tier cap (records)", HOT_CAP, ""],
        ["hot tier after ingest",
         f"{capped.record_count()} records",
         f"{hot_bytes / 1e3:.1f} kB"],
        ["cold archive after ingest",
         f"{stats['cold_records']} records in {stats['segments']} segments",
         f"{cold_bytes / 1e3:.1f} kB measured"],
        ["evictions / promotions",
         f"{stats['evictions']} / {stats['promotions']}", ""],
        ["ingest (uncapped)",
         f"{RECORD_COUNT / plain_ingest_s / 1e3:.0f} krec/s", ""],
        ["ingest (capped, aging on)",
         f"{RECORD_COUNT / capped_ingest_s / 1e3:.0f} krec/s",
         f"{capped_ingest_s / plain_ingest_s:.2f}x baseline time"],
        ["time-window query (hot only)",
         f"{plain_window_s * 1e3:.3f} ms", ""],
        ["time-window query (hot+cold)",
         f"{capped_window_s * 1e3:.3f} ms",
         f"{capped_window_s / max(plain_window_s, 1e-9):.1f}x"],
        ["link query (hot only)", f"{plain_link_s * 1e3:.3f} ms", ""],
        ["link query (hot+cold)", f"{capped_link_s * 1e3:.3f} ms",
         f"{capped_link_s / max(plain_link_s, 1e-9):.1f}x"],
        ["full scan (hot only)", f"{plain_full_s * 1e3:.3f} ms", ""],
        ["full scan (hot+cold)", f"{capped_full_s * 1e3:.3f} ms",
         f"{capped_full_s / max(plain_full_s, 1e-9):.1f}x"],
        ["full scan per cold record",
         f"{full_us_per_cold_record:.2f} us",
         f"{full_us_per_cold_record / ingest_us_per_record:.2f}x the "
         f"{ingest_us_per_record:.1f} us a record cost to ingest"],
        ["full-history aggregate (hot only)",
         f"{plain_fold_s * 1e3:.3f} ms", ""],
        ["full-history aggregate (hot+cold)",
         f"{capped_fold_s * 1e3:.3f} ms",
         f"{capped_fold_s / capped_full_s:.2f}x the full scan: no record "
         f"is built"],
        ["cold segments pruned / opened",
         f"{scan_stats['segments_skipped']} / "
         f"{scan_stats['segment_decodes']}",
         "zone maps + flow-key blooms + link postings"],
        ["cold rows passed over / materialised",
         f"{scan_stats['entries_skipped']} / "
         f"{scan_stats['entries_decoded']}", "column predicates"],
        ["write-behind flushes",
         f"{scan_stats['write_behind_flushes']} "
         f"({scan_stats['write_behind_records']} records)", ""],
    ]
    report_writer("two_tier_tib", format_table(
        ["quantity", "value", "note"], rows,
        title=f"Two-tier TIB: {HOT_CAP}-record hot cap under "
              f"{INGEST_FACTOR}x ingest (payloads byte-identical to "
              f"uncapped; quick={QUICK})"))

    fold_into_bench_json("two_tier_tib", {
        "quick": QUICK,
        "hot_cap_records": HOT_CAP,
        "records_ingested": RECORD_COUNT,
        "hot_records": capped.record_count(),
        "hot_bytes": hot_bytes,
        "cold_records": stats["cold_records"],
        "cold_bytes_measured": cold_bytes,
        "segments": stats["segments"],
        "evictions": stats["evictions"],
        "promotions": stats["promotions"],
        "ingest_krecs_per_s": {
            "uncapped": round(RECORD_COUNT / plain_ingest_s / 1e3, 1),
            "capped": round(RECORD_COUNT / capped_ingest_s / 1e3, 1),
        },
        "query_ms": {
            "window_hot": round(plain_window_s * 1e3, 4),
            "window_spanning": round(capped_window_s * 1e3, 4),
            "link_hot": round(plain_link_s * 1e3, 4),
            "link_spanning": round(capped_link_s * 1e3, 4),
            "full_hot": round(plain_full_s * 1e3, 4),
            "full_spanning": round(capped_full_s * 1e3, 4),
            "full_aggregate_hot": round(plain_fold_s * 1e3, 4),
            "full_aggregate_spanning": round(capped_fold_s * 1e3, 4),
        },
        "ingest_slowdown": round(capped_ingest_s / plain_ingest_s, 2),
        "full_scan_us_per_cold_record": round(full_us_per_cold_record, 2),
        "ingest_us_per_record": round(ingest_us_per_record, 2),
        "link_spanning_ratio": round(
            capped_link_s / max(plain_link_s, 1e-9), 2),
        "aggregate_vs_scan_ratio": round(capped_fold_s / capped_full_s, 3),
        "scan": {
            "segments_skipped": scan_stats["segments_skipped"],
            "segment_decodes": scan_stats["segment_decodes"],
            "entries_skipped": scan_stats["entries_skipped"],
            "entries_decoded": scan_stats["entries_decoded"],
            "write_behind_flushes": scan_stats["write_behind_flushes"],
            "write_behind_records": scan_stats["write_behind_records"],
        },
    })
