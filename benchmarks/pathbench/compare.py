"""Compare two pathbench result sets under the bounds of ``BENCHMARK.json``.

    compare.py collect --runs 10 --seed 100 --out base.jsonl   # make a set
    compare.py base.jsonl change.jsonl                         # judge two

A result set is JSON lines, one full ``run.py --out`` result per line.
``collect`` runs every workload ``--runs`` times, each time with another
seed, one run at a time.  The comparison prints one row per (workload,
end-to-end metric): both medians and quartiles, the ratio with its base,
each side's quartile spread, and a verdict under the metric's bound:

* ``worse``      the change's median is worse than the base's by more
                 than the bound;
* ``better``     it is better by more than the bound;
* ``same``       within the bound;
* ``unresolved`` either side's run-to-run spread (distance between its
                 quartiles over its median) is wider than the bound, so
                 the medians cannot say.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
if sys.path and pathlib.Path(sys.path[0] or ".").resolve() == HERE:
    del sys.path[0]  # the script's directory: its ``trace`` is not stdlib's
sys.path.insert(0, str(HERE.parent))

from pathbench.metrics import quartile_spread  # noqa: E402

ResultSet = Dict[Tuple[str, str], List[float]]


def contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads, and each metric's direction and
    bound."""
    return json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def load_set(path: str) -> ResultSet:
    """``{(workload, metric): values}`` of the correct untraced runs."""
    values: ResultSet = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            result = json.loads(line)
            if result["meta"]["trace"]:
                continue
            if not result["correct"]:
                raise SystemExit(f"{path}: a {result['workload']} run "
                                 f"failed: {result['failures']}")
            for name, entry in result["metrics"].items():
                values.setdefault((result["workload"], name),
                                  []).append(entry["value"])
    return values


def verdict(base: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, ratio)`` with ratio = change median / base median."""
    base_median = statistics.median(base)
    ratio = statistics.median(change) / base_median
    if len(base) >= 2 and len(change) >= 2 and \
            max(quartile_spread(base), quartile_spread(change)) > bound:
        return "unresolved", ratio
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worsening > bound:
        return "worse", ratio
    if worsening < -bound:
        return "better", ratio
    return "same", ratio


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(base: ResultSet, change: ResultSet) -> int:
    worse = 0
    end_to_end = {m["name"]: m for m in contract()["end_to_end"]}
    print(f"{'workload':14s} {'metric':24s} {'base median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} {'change/base':>11s} "
          f"{'spread b/c':>13s} {'bound':>6s} verdict")
    for (workload, name), base_values in sorted(base.items()):
        metric = end_to_end.get(name)
        change_values = change.get((workload, name))
        if metric is None or not change_values:
            continue
        outcome, ratio = verdict(base_values, change_values,
                                 metric["better"], metric["bound"])
        spreads = "/".join(
            f"{quartile_spread(v):.3f}" if len(v) >= 2 else "-"
            for v in (base_values, change_values))
        print(f"{workload:14s} {name:24s} {_quartiles(base_values):32s} "
              f"{_quartiles(change_values):32s} {ratio:11.3f} "
              f"{spreads:>13s} {metric['bound']:6.2f} {outcome}")
        worse += outcome == "worse"
    return 1 if worse else 0


def collect(runs: int, seed: int, out: str, seconds: Optional[float],
            workloads: Optional[List[str]], trace: int) -> int:
    scratch = pathlib.Path(out + ".run.json")
    with open(out, "a") as handle:
        for name in workloads or [w["name"] for w in contract()["workloads"]]:
            for run in range(runs):
                command = [sys.executable, str(HERE / "run.py"),
                           "--workload", name, "--seed", str(seed + run),
                           "--trace", str(trace), "--out", str(scratch)]
                if seconds is not None:
                    command += ["--seconds", str(seconds)]
                done = subprocess.run(command, stdout=subprocess.DEVNULL)
                if done.returncode != 0 or not scratch.exists():
                    print(f"compare: {name} seed {seed + run} exited "
                          f"{done.returncode}", file=sys.stderr)
                    return 2
                result: Any = json.loads(scratch.read_text())
                scratch.unlink()
                handle.write(json.dumps(result) + "\n")
                handle.flush()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["collect"]:
        parser = argparse.ArgumentParser(prog="compare.py collect")
        parser.add_argument("--runs", type=int, default=10)
        parser.add_argument("--seed", type=int, default=100)
        parser.add_argument("--seconds", type=float, default=None)
        parser.add_argument("--workload", action="append")
        parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
        parser.add_argument("--out", required=True)
        args = parser.parse_args(argv[1:])
        return collect(args.runs, args.seed, args.out, args.seconds,
                       args.workload, args.trace)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    return compare(load_set(args.base), load_set(args.change))


if __name__ == "__main__":
    sys.exit(main())
