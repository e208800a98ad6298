"""Shared synthetic workload for the storage-engine benchmarks.

Used by ``bench_regress_storage.py`` (pytest-benchmark) and
``run_storage_bench.py`` (standalone, writes ``BENCH_storage.json``) so both
measure exactly the same record population; also the one place a benchmark
folds its summary into ``BENCH_storage.json`` (:func:`fold_into_bench_json`).
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
from typing import Any, Dict, List, Union

from repro.core.tib import Tib
from repro.network.packet import FlowId, PROTO_TCP
from repro.storage import PathFlowRecord

#: Leaf/spine fabric shape of the synthetic paths.
LEAVES = 8
SPINES = 2

#: The committed storage/perf ledger every folding benchmark writes into.
BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_storage.json"


def measured_on() -> Dict[str, Union[str, int, None]]:
    """What a ``BENCH_storage.json`` row was measured on: the checked-out
    commit ("-dirty" when the tree carried uncommitted changes on top of
    it) and the core count - the keys of the per-PR trajectory."""
    described = subprocess.run(
        ["git", "-C", str(pathlib.Path(__file__).resolve().parent),
         "describe", "--always", "--dirty"], capture_output=True, text=True)
    return {"commit": described.stdout.strip() or None,
            "nproc": os.cpu_count()}


def fold_into_bench_json(section: str, summary: Dict[str, Any]) -> None:
    """Replace one benchmark's ``section`` of ``BENCH_storage.json`` with
    ``summary``, stamped with :func:`measured_on`; every other section is
    kept as it is."""
    data = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    data[section] = {**measured_on(), **summary}
    BENCH_JSON.write_text(json.dumps(data, indent=2) + "\n")


def make_records(count: int, distinct_pairs: int,
                 seed: int = 0) -> List[PathFlowRecord]:
    """``count`` records over ``distinct_pairs`` distinct (flow, path) pairs.

    ``distinct_pairs == count`` gives a pure-insert workload; smaller values
    make the surplus adds exercise the merge (upsert) path.
    """
    rng = random.Random(seed)
    records = []
    for i in range(count):
        pair = rng.randrange(distinct_pairs) if distinct_pairs < count else i
        src = f"src-{pair % 64}"
        flow = FlowId(src, "bench-host", 20_000 + pair, 80, PROTO_TCP)
        path = (src, f"leaf-{pair % LEAVES}", f"spine-{pair % SPINES}",
                f"leaf-{(pair // LEAVES) % LEAVES}", "bench-host")
        start = rng.uniform(0.0, 1000.0)
        size = rng.randrange(100, 1_000_000)
        records.append(PathFlowRecord(flow, path, start, start + 0.2, size,
                                      max(1, size // 1460)))
    return records


def populate_tib(count: int, distinct_pairs: int | None = None,
                 seed: int = 0) -> Tib:
    """A TIB pre-filled with the synthetic workload."""
    tib = Tib("bench-host")
    tib.add_records(make_records(count, distinct_pairs or count, seed=seed))
    return tib
