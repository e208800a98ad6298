"""Unit tests of pathbench's own arithmetic: span self time, the
percentile rule, degrading wrapper resolution, the comparison verdicts and
the agreement between the metric catalogue and ``BENCHMARK.json``."""

import json
import pathlib
import re
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))

from pathbench import compare, metrics, trace, workloads  # noqa: E402


class FakeClock:
    """Every reading is 10 ns after the previous one."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 10
        return self.now


def _traced_family(tracer):
    def leaf():
        return 1

    def middle():
        return leaf() + leaf()

    def lone():
        return 0

    def root():
        return middle() + lone()

    leaf = tracer.wrap(leaf, "leaf", "x")
    middle = tracer.wrap(middle, "middle", "x")
    lone = tracer.wrap(lone, "lone", "x")
    return tracer.wrap(root, "root", "x")


def test_self_time_of_nested_and_sibling_spans(monkeypatch):
    monkeypatch.setattr(trace.time, "perf_counter_ns", FakeClock())
    tracer = trace.Tracer()
    root = _traced_family(tracer)
    tracer.enabled = True
    assert root() == 2
    totals = tracer.totals()
    # Clock readings: root 10, middle 20, leaf 30-40, leaf 50-60, middle
    # ends 70, lone 80-90, root ends 100.
    assert totals["leaf"][:3] == [2, 20, 20]
    assert totals["middle"][:3] == [1, 50 - 20, 50]
    assert totals["lone"][:3] == [1, 10, 10]
    assert totals["root"][:3] == [1, 90 - 50 - 10, 90]
    # Self times sum to the root's duration: nothing counted twice, and a
    # grandchild is charged to its parent only.
    assert sum(row[1] for row in totals.values()) == totals["root"][2]
    rows = [(sid, start, end, parent)
            for sid, _n, _l, start, end, parent, _op, _t in tracer.spans]
    recomputed = trace.self_times(rows)
    by_name = {}
    for sid, name, *_ in tracer.spans:
        by_name[name] = by_name.get(name, 0) + recomputed[sid]
    assert by_name == {name: row[1] for name, row in totals.items()}
    parents = {name: parent for _s, name, _l, _a, _b, parent, _o, _t
               in tracer.spans}
    ids = {name: sid for sid, name, *_ in tracer.spans}
    assert parents["root"] is None
    assert parents["middle"] == ids["root"] == parents["lone"]


def test_disabled_wrappers_record_nothing():
    tracer = trace.Tracer()
    root = _traced_family(tracer)
    assert root() == 2
    assert tracer.totals() == {} and tracer.spans == []


def test_span_cap_bounds_memory_not_totals():
    tracer = trace.Tracer(span_cap=3)
    root = _traced_family(tracer)
    tracer.enabled = True
    root()
    assert len(tracer.spans) == 3 and tracer.span_count == 5
    assert tracer.totals()["root"][0] == 1


def test_units_hook_counts_work():
    tracer = trace.Tracer()
    batch = tracer.wrap(lambda items: list(items), "batch", "x",
                        trace._len_result)
    tracer.enabled = True
    batch(range(7))
    batch(range(5))
    assert tracer.totals()["batch"][3] == 12


def test_missing_target_degrades_to_unresolved(monkeypatch):
    module = types.ModuleType("pathbench_fake_layer")

    class Thing:
        def here(self):
            return "ok"

        @staticmethod
        def fixed():
            return "static"

    module.Thing = Thing
    monkeypatch.setitem(sys.modules, "pathbench_fake_layer", module)
    tracer = trace.Tracer()
    tracer.install((
        trace.Target("pathbench_fake_layer.Thing.here", "here", "x"),
        trace.Target("pathbench_fake_layer.Thing.fixed", "fixed", "x"),
        trace.Target("pathbench_fake_layer.Thing.gone", "gone", "x"),
        trace.Target("pathbench_no_such_module.f", "nowhere", "x"),
    ))
    try:
        assert tracer.unresolved == ["pathbench_fake_layer.Thing.gone",
                                     "pathbench_no_such_module.f"]
        tracer.enabled = True
        assert Thing().here() == "ok" and Thing.fixed() == "static"
        assert set(tracer.totals()) == {"here", "fixed"}
    finally:
        tracer.uninstall()
    assert "__wrapped__" not in vars(Thing.here)


def test_every_wrapper_target_resolves_today():
    for target in trace.TARGETS:
        trace.resolve(target.dotted)


def test_percentile_interpolates():
    assert metrics.percentile([1, 2, 3, 4, 5], 50) == 3
    assert metrics.percentile([4, 1, 3, 2], 50) == 2.5
    assert metrics.percentile([10, 20], 90) == pytest.approx(19.0)
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


@pytest.mark.parametrize("count, expected", [
    (9, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count,
                                                                 expected):
    q, value = metrics.gated_tail(list(range(count)))
    assert q == expected
    assert value == metrics.percentile(list(range(count)), expected)


def test_quartile_spread_matches_the_contract_rule():
    values = [10.0, 10.2, 9.9, 10.1, 10.3, 9.8, 10.0, 10.4, 9.7, 10.1]
    import statistics
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert metrics.quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [x * 1.02 for x in steady],
                           "lower", 0.1)[0] == "same"
    assert compare.verdict(steady, [x * 1.2 for x in steady],
                           "lower", 0.1)[0] == "worse"
    assert compare.verdict(steady, [x * 1.2 for x in steady],
                           "higher", 0.1)[0] == "better"
    assert compare.verdict(steady, [x * 0.8 for x in steady],
                           "higher", 0.1)[0] == "worse"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_catalogue_and_within_the_contract():
    path = HERE.parent.parent / "BENCHMARK.json"
    contract = json.loads(path.read_text())
    assert contract == metrics.benchmark_json()
    assert path.stat().st_size <= 64 * 1024
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert 1 <= contract["run_seconds"] <= 60
    names = [w["name"] for w in contract["workloads"]] + [
        m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in contract["end_to_end"])


def test_shapes_keep_their_defining_properties():
    shapes = workloads.WORKLOADS
    assert list(shapes) == ["edge-ingest", "query-hot", "query-cold",
                            "fanout-serial", "fanout-socket"]
    cold = shapes["query-cold"]
    # Larger than the archive's decode cache, so full scans thrash it.
    assert cold.records_per_host - cold.cap > 4096
    serial, socket = shapes["fanout-serial"], shapes["fanout-socket"]
    assert socket.mode == "socket" and serial.mode == "serial"
    from dataclasses import replace
    assert replace(socket, name="", why="", mode="serial") == \
        replace(serial, name="", why="")
    for shape in shapes.values():
        quick = shape.quick()
        assert quick.hosts <= 16 and quick.pkt_keys <= quick.records_per_host
        assert quick.hosts >= quick.pkt_hosts


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    shape = workloads.WORKLOADS["fanout-serial"].quick()
    one = workloads.generate_inputs(shape, 7)
    again = workloads.generate_inputs(shape, 7)
    other = workloads.generate_inputs(shape, 8)
    assert one.records == again.records and one.variants == again.variants
    assert one.records != other.records


def test_timings_are_read_against_the_speed_factor():
    from pathbench import run
    samples = workloads.Samples()
    for iteration in range(8):
        samples.packet_batches.append((iteration, 1000, 0.01))
        samples.record_batches.append((iteration, 100, 0.002))
        samples.queries.append((iteration, "topk", "direct", 0.004, 300))
        samples.queries.append((iteration, "count", "direct", 0.002, 100))
        samples.alarm_delays.append((iteration, 0.001))
        samples.idle_ticks.append((iteration, 0.0005))
        samples.speed.append(2.0)
    scaled, cycles = run.end_to_end_metrics(samples, 1.0, 50.0,
                                            samples.speed)
    plain, _ = run.end_to_end_metrics(samples, 1.0, 50.0, [1.0] * 8)
    assert len(cycles["query_p50_ms"]) == 8 // workloads.CYCLE
    assert plain["ingest_pkts_per_s"] == pytest.approx(100_000)
    assert plain["query_p50_ms"] == pytest.approx(3.0)
    for name in ("query_p50_ms", "query_p90_ms", "alarm_delivery_p50_ms",
                 "tick_idle_p50_ms"):
        assert scaled[name] == pytest.approx(plain[name] / 2.0)
    for name in ("ingest_pkts_per_s", "ingest_records_per_s",
                 "queries_per_s"):
        assert scaled[name] == pytest.approx(plain[name] * 2.0)
    for name in ("traffic_bytes_per_query", "peak_rss_mb", "setup_s"):
        assert scaled[name] == plain[name]


def test_speed_gauge_reads_about_one_or_slower():
    gauge = workloads.SpeedGauge()
    factors = [gauge.factor() for _ in range(5)]
    assert all(0.3 < factor < 20 for factor in factors)
