"""Route-report contract tests: ``repro.kernels()`` and the spans of the
phases that run one implementation.

Which route each V-cycle phase takes is chosen from the level's structure
alone; the route parity tests live in ``tests/test_phase_kernels.py``.
"""

from __future__ import annotations

import json

from tests.conftest import random_hypergraph
from repro._util import as_rng
from repro.partitioner import PartitionerConfig, partition_hypergraph
from repro.partitioner import kernels as K
from repro.telemetry import TelemetryRecorder, use_recorder


def test_kernels_introspection_shape():
    """The report is the static phase -> routes table, as plain JSON data
    the caller may mutate without touching the table."""
    import repro

    info = repro.kernels()
    assert set(info) == {"phases"}
    assert info["phases"] == K.PHASES
    assert set(info["phases"]) == {
        "fm", "matching", "coarse_build", "initial", "kway"
    }
    for routes in info["phases"].values():
        assert routes and all(isinstance(r, str) for r in routes)
    # the per-net build loop no longer ships: the coarse build sorts
    assert info["phases"]["coarse_build"] == ["sort"]
    info["phases"]["kway"].append("other")
    assert repro.kernels()["phases"]["kway"] == ["flat-sweep", "reference"]
    json.dumps(info)


def _walk(spans):
    for s in spans:
        yield s
        yield from _walk(s.children)


def test_single_implementation_spans_carry_no_kernel():
    """FM, initial bisection and the coarse build have one implementation,
    so their spans name no kernel or tier."""
    h = random_hypergraph(as_rng(4), 300, 250)
    rec = TelemetryRecorder()
    with use_recorder(rec):
        partition_hypergraph(h, 2, config=PartitionerConfig(), seed=0)
    spans = [
        s for s in _walk(rec.roots)
        if s.name in ("refine.fm", "initial", "coarsen.build")
    ]
    assert {s.name for s in spans} == {"refine.fm", "initial", "coarsen.build"}
    assert not any("kernel" in s.attrs or "tier" in s.attrs for s in spans)
