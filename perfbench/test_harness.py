"""Tests of the benchmark harness itself.

Run explicitly; the repository's test suite does not collect this file::

    python3 -m pytest perfbench/test_harness.py -q

Every workload runs in ``--smoke`` mode (toy inputs, a 1 s window).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    return {(w, t): run(w, 0, t) for w in WORKLOADS for t in (0, 1)}


def test_emitted_metrics_are_the_declared_ones(results):
    for (workload, trace), r in results.items():
        declared = BENCH["per_layer" if trace else "end_to_end"]
        assert set(r["metrics"]) == {m["name"] for m in declared}, (workload, trace)
        for m in declared:
            assert r["metrics"][m["name"]]["unit"] == m["unit"]
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1


def test_end_to_end_metrics_are_never_zero(results):
    for (workload, trace), r in results.items():
        if not trace:
            zero = [k for k, m in r["metrics"].items() if m["value"] == 0]
            assert not zero, (workload, zero)


def test_same_seed_same_volume(results):
    again = run("finegrain-paper", 0, 0)
    first = results[("finegrain-paper", 0)]
    assert again["metrics"]["volume_words"] == first["metrics"]["volume_words"]


def _digest(a) -> bytes:
    a = a.tocsr()
    return b"".join(np.ascontiguousarray(x).tobytes() for x in (a.indptr, a.indices))


def test_a_different_seed_generates_different_inputs():
    from perfbench import batch, serving

    for w in batch.WORKLOADS.values():
        one = [_digest(inst.a) for inst in batch.make_inputs(w, 0)]
        two = [_digest(inst.a) for inst in batch.make_inputs(w, 1)]
        assert one == [_digest(inst.a) for inst in batch.make_inputs(w, 0)]
        assert all(x != y for x, y in zip(one, two))
    ws0, reqs0 = serving.make_inputs(0, 5.0, 4)
    ws1, reqs1 = serving.make_inputs(1, 5.0, 4)
    assert [_digest(a) for a in ws0] != [_digest(a) for a in ws1]
    assert [r.due for r in reqs0] != [r.due for r in reqs1]
