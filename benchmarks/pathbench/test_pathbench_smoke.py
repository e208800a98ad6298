"""Smoke self-test, collected by the tier-1 command: all five workloads at
``--quick`` plus one traced run.  Asserts the output contract (last line,
every named metric present and finite with its unit), that nothing failed
against the oracle, and that no worker or socket file is left behind.  The
numbers at this scale mean nothing; only their presence is checked."""

import json
import math
import pathlib
import subprocess
import sys
import uuid
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))

from pathbench import metrics  # noqa: E402

RUNS = [(shape["name"], 0) for shape in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]]
RUNS.append(("fanout-socket", 1))


#: On every command line of this module's runs (a forked worker keeps its
#: parent's), so leftovers are told from anyone else's pathbench.
TOKEN = f"pathbench-smoke-{uuid.uuid4().hex}"


def _run(workload, trace, scratch):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--quick",
         "--out", str(scratch / f"{TOKEN}-{workload}-{trace}.json")],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT))
    return workload, trace, done


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("pathbench")
    # Two at a time: the box has two cores and smoke numbers are not read.
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda run: _run(*run, scratch), RUNS))


def test_every_workload_reports_every_metric(outcomes):
    for workload, trace, done in outcomes:
        assert done.returncode == 0, (workload, done.stderr[-2000:])
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True, (workload, done.stderr[-2000:])
        assert line["failed"] == 0 and line["attempted"] >= 1
        listed = metrics.PER_LAYER if trace else metrics.END_TO_END
        assert list(line["metrics"]) == [m.name for m in listed]
        for metric in listed:
            entry = line["metrics"][metric.name]
            assert entry["unit"] == metric.unit
            assert math.isfinite(entry["value"]), metric.name
            if not trace:
                assert entry["value"] > 0, (workload, metric.name)
        if trace:
            values = {name: entry["value"]
                      for name, entry in line["metrics"].items()}
            assert values["trace.unresolved"] == 0
            assert values["trace.oracle_checks"] > 0
            assert values["trace.failed_fraction"] == 0
            assert values["trace.spans"] > 0
            assert metrics.UNRESOLVED not in values.values()


def test_nothing_is_left_behind(outcomes):
    # (Socket files are checked by each run itself: a leftover is a failed
    # op, so ``correct`` above already covers them.)
    assert outcomes
    running = []
    for entry in pathlib.Path("/proc").glob("[0-9]*/cmdline"):
        try:
            running.append(entry.read_bytes().replace(b"\0", b" ").decode())
        except OSError:
            continue  # the process ended while we looked
    assert not [line for line in running if TOKEN in line]


def test_a_checkout_without_the_program_is_refused(tmp_path):
    bench = tmp_path / "benchmarks" / "pathbench"
    bench.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/pathbench/run.py", "--workload",
         "query-hot", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
