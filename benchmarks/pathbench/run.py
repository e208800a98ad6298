"""pathbench: one command for every end-to-end and per-layer number.

    python3 benchmarks/pathbench/run.py --workload W --seed N \\
        --seconds S --trace 0|1 [--quick] [--out F] [--spans-out F]

runs one workload in this (fresh) process, prints every metric by name
with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` (or with ``all``) every workload runs in turn, each in its
own subprocess - the ``lru_cache``s in ``query``/``archive`` are
process-global, and two workloads never share two cores.  ``--describe``
prints the metric tables of the README.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import multiprocessing
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# Siblings import as the ``pathbench`` package (see its __init__), the
# program under test from the checkout's own sources.
if sys.path and pathlib.Path(sys.path[0] or ".").resolve() == HERE:
    del sys.path[0]  # the script's directory: its ``trace`` is not stdlib's
sys.path[0:0] = [str(HERE.parent), str(ROOT / "src")]

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Where the program's temporary files (the unix sockets) go, so a run
#: writes only inside its checkout.
TMP_DIR = ROOT / ".pathbench_tmp"
#: Longest path a unix socket may have, less the name the pool appends.
_SOCKET_PATH_ROOM = 107 - len("/pathdump-groups-12345678/agents.sock")


def _use_checkout_tmp() -> Optional[pathlib.Path]:
    """Point ``tempfile`` at a directory of this process's own inside the
    checkout (runs may overlap); ``None``, and the system default, when
    the checkout's path leaves no room for a socket path."""
    mine = TMP_DIR / str(os.getpid())
    if len(str(mine)) > _SOCKET_PATH_ROOM:
        return None
    mine.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(mine)
    return mine


def _leftovers() -> List[str]:
    base = pathlib.Path(tempfile.gettempdir())
    return sorted(str(path) for path in base.glob("pathdump-groups-*"))


def _vm_hwm_mb(pid: Any) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _metadata(args: argparse.Namespace) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit or "unknown",
            "seed": args.seed, "seconds": args.seconds,
            "quick": bool(args.quick), "trace": bool(args.trace),
            "loadavg_at_start": list(os.getloadavg())}


def end_to_end_metrics(samples: Any, setup_s: float, peak_rss_mb: float,
                       speed: List[float]
                       ) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """The end-to-end values, and the per-cycle values behind each timing.

    Every timing is first divided by the speed factor of its iteration
    (``workloads.SpeedGauge``; all ones gives the unscaled numbers), then
    taken per cycle - the unit of identical work: the same sweeps, batches
    and ticks, one full-history sweep included - and reported as the
    median over the run's cycles.  Throughputs are ops / busy time within
    a cycle, which keeps amortised background work (flushes, compactions,
    index folds) in."""
    from pathbench.metrics import by_cycle, percentile
    from pathbench.workloads import CYCLE

    def rate(rows: Any) -> float:
        return (sum(n for _, n, _ in rows)
                / sum(wall / speed[it] for it, _, wall in rows))

    def walls(rows: Any) -> List[float]:
        return [row[3] / speed[row[0]] for row in rows]

    def median_ms(rows: Any) -> float:
        return statistics.median(wall / speed[it] for it, wall in rows) * 1e3

    per_cycle = {
        name: [value(chunk) for chunk in by_cycle(rows, CYCLE)]
        for name, rows, value in (
            ("ingest_pkts_per_s", samples.packet_batches, rate),
            ("ingest_records_per_s", samples.record_batches, rate),
            ("queries_per_s", samples.queries,
             lambda rows: len(rows) / sum(walls(rows))),
            ("query_p50_ms", samples.queries,
             lambda rows: percentile(walls(rows), 50) * 1e3),
            ("query_p90_ms", samples.queries,
             lambda rows: percentile(walls(rows), 90) * 1e3),
            ("traffic_bytes_per_query", samples.queries,
             lambda rows: sum(row[4] for row in rows) / len(rows)),
            ("alarm_delivery_p50_ms", samples.alarm_delays, median_ms),
            ("tick_idle_p50_ms", samples.idle_ticks, median_ms))}
    values = {name: statistics.median(cycles)
              for name, cycles in per_cycle.items()}
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = peak_rss_mb
    return values, per_cycle


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload in this process; returns the full result."""
    from pathbench import metrics as catalogue
    from pathbench import trace as tracing
    from pathbench import workloads

    shape = workloads.WORKLOADS[args.workload]
    if args.quick:
        shape = shape.quick()
    meta = _metadata(args)
    if meta["loadavg_at_start"][0] > (os.cpu_count() or 1):
        print(f"pathbench: warning: load average "
              f"{meta['loadavg_at_start'][0]:.2f} exceeds the core count; "
              f"timings will be noisy", file=sys.stderr)
    own_tmp = _use_checkout_tmp()
    stale = set(_leftovers())

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        # Before set-up: the agents bind AlarmBus.raise_alarm when they
        # are built.  The wrappers stay disabled (one flag test per call)
        # until the traced part of the loop.
        tracer.install()
    inputs = workloads.generate_inputs(shape, args.seed)
    samples = workloads.Samples()
    gauge = workloads.SpeedGauge()
    deployment = twin = None
    #: (seconds, speed factor around them) per set-up.
    setups: List[Tuple[float, float]] = []
    try:
        for rep in range(1 if args.quick else SETUP_REPS):
            if deployment is not None:
                deployment.close()
                deployment = None  # or the next set-up collects around it
            gc.collect()
            speed = gauge.factor()
            started = time.perf_counter()
            deployment = workloads.set_up(inputs)
            wall = time.perf_counter() - started
            setups.append((wall, 0.5 * (speed + gauge.factor())))
        if shape.twin:
            started = time.perf_counter()
            twin = workloads.set_up(inputs, dataclasses.replace(
                shape, mode=workloads.MODE_SERIAL, cap=None))
            samples.oracle_s += time.perf_counter() - started
        phases = (tracing.TracedPhases(tracer, deployment, inputs)
                  if tracer is not None else None)
        driver = workloads.Driver(inputs, deployment, samples, gauge, phases,
                                  twin)
        # Set-up data is long-lived: keep it out of the collector's way so
        # the gc.collect() before each timed section only walks what the
        # loop itself allocated (the collector stays enabled).
        gc.collect()
        gc.freeze()
        workloads.verify(driver, 0)
        loop_started = time.perf_counter()
        if tracer is None:
            iterations = driver.run(args.seconds)
        else:
            iterations = phases.run_traced(driver, args.seconds)
        loop_s = time.perf_counter() - loop_started
        workloads.verify(driver, iterations)
        peak_rss_mb = _vm_hwm_mb("self") + sum(
            _vm_hwm_mb(child.pid)
            for child in multiprocessing.active_children())
        per_layer = (phases.per_layer_metrics(samples, inputs, iterations)
                     if tracer is not None else None)
    finally:
        for each in (deployment, twin):
            if each is not None:
                each.close()
    samples.attempted += 1
    orphans = multiprocessing.active_children()
    leaked = sorted(set(_leftovers()) - stale)
    if orphans or leaked:
        samples.fail(f"leaked {len(orphans)} worker(s), socket files "
                     f"{leaked}")
    elif own_tmp is not None:
        own_tmp.rmdir()
    if samples.oracle_checks == 0:
        samples.fail("no oracle check ran")

    per_cycle: Dict[str, List[float]] = {}
    unscaled: Dict[str, float] = {}
    if per_layer is None:
        values, per_cycle = end_to_end_metrics(
            samples, statistics.median(w / f for w, f in setups),
            peak_rss_mb, samples.speed)
        unscaled, _ = end_to_end_metrics(
            samples, statistics.median(w for w, _ in setups), peak_rss_mb,
            [1.0] * len(samples.speed))
        listed = catalogue.END_TO_END
    else:
        values = per_layer
        listed = catalogue.PER_LAYER
    if tracer is not None and args.spans_out:
        tracer.write_spans(args.spans_out)
    return {
        "workload": args.workload,
        "meta": meta,
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "failures": samples.failures,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in listed},
        "per_cycle": per_cycle,
        "unscaled": unscaled,
        "speed_factor": {"median": statistics.median(samples.speed),
                         "per_iteration": samples.speed,
                         "setups": [f for _, f in setups]},
        "layer_shares": phases.layer_shares() if phases is not None else {},
        "counts": {
            "iterations": iterations, "loop_s": loop_s,
            "setups": [w for w, _ in setups],
            "inputgen_s": inputs.generate_s,
            "oracle_s": samples.oracle_s,
            "oracle_checks": samples.oracle_checks,
            "queries": len(samples.queries),
            "packets": sum(n for _, n, _ in samples.packet_batches),
            "records": sum(n for _, n, _ in samples.record_batches),
            "alarms": len(samples.alarm_delays),
            "idle_ticks": len(samples.idle_ticks),
            "unresolved": tracer.unresolved if tracer is not None else [],
        },
    }


def _print_result(result: Dict[str, Any]) -> None:
    counts = result["counts"]
    print(f"# pathbench {result['workload']} seed={result['meta']['seed']} "
          f"iterations={counts['iterations']} loop={counts['loop_s']:.2f}s "
          f"queries={counts['queries']} packets={counts['packets']} "
          f"records={counts['records']} alarms={counts['alarms']} "
          f"idle_ticks={counts['idle_ticks']} "
          f"oracle_checks={counts['oracle_checks']}")
    for name, entry in result["metrics"].items():
        print(f"{name:42s} {entry['value']:16.4f} {entry['unit']}")
    for failure in result["failures"]:
        print(f"pathbench: FAILED {failure}", file=sys.stderr)
    if counts["unresolved"]:
        print(f"pathbench: unresolved wrapper targets: "
              f"{counts['unresolved']}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in a fresh subprocess."""
    from pathbench.workloads import WORKLOADS
    worst = 0
    results = []
    for name in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.quick:
            command.append("--quick")
        with tempfile.TemporaryDirectory(dir=str(ROOT)) as scratch:
            out = os.path.join(scratch, "result.json")
            done = subprocess.run(command + ["--out", out])
            worst = max(worst, done.returncode)
            if os.path.exists(out):
                with open(out) as handle:
                    results.append(json.load(handle))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1)
    return worst


def _describe() -> None:
    from pathbench import metrics as catalogue
    from pathbench.workloads import WORKLOADS
    print("| workload | why |\n|---|---|")
    for shape in WORKLOADS.values():
        print(f"| `{shape.name}` | {shape.why} |")
    print("\n| end-to-end metric | unit, better | bound | meaning |"
          "\n|---|---|---|---|")
    for m in catalogue.END_TO_END:
        print(f"| `{m.name}` | {m.unit}, {m.better} | {m.bound:.0%} | "
              f"{m.meaning} |")
    print("\n| layer | metrics | source | should move -> on |"
          "\n|---|---|---|---|")
    layers: Dict[str, List[Any]] = {}
    for m in catalogue.PER_LAYER:
        layers.setdefault(m.layer, []).append(m)
    for layer, listed in layers.items():
        names = "; ".join(f"`{m.name}` ({m.unit}: {m.meaning})"
                          for m in listed)
        print(f"| `{layer}` | {names} | {listed[0].source} | "
              f"{listed[0].moves} |")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale; numbers are not comparable")
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--spans-out",
                        help="traced run: write the spans as JSON lines")
    parser.add_argument("--describe", action="store_true",
                        help="print the workload and metric tables")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"pathbench: the program under test is not at "
              f"{ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    from pathbench.metrics import RUN_SECONDS
    from pathbench.workloads import WORKLOADS
    if args.seconds is None:
        args.seconds = 0.5 if args.quick else float(RUN_SECONDS)
    if args.describe:
        _describe()
        return 0
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{', '.join(WORKLOADS)} or all")
    result = run_workload(args)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
    _print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
