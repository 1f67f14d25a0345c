"""Kernel-axis contract tests: bit-identity, normalisation, introspection.

The ``kernel`` axis (``reference | fast``) promises that both values
produce bit-identical partitions.  This suite pins that promise with
golden replay (same bits as the pre-kernel recordings) and fresh-instance
parity, and checks that the legacy names (``python``, ``flat``, ``jit``,
``auto``) still parse and map onto the two kernels.  The golden and
parity tests run under the legacy names ``flat`` and ``jit`` on purpose:
both normalise to ``fast``, so they cover the mapping and the fast
routes at once.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from tests.conftest import random_hypergraph
from tests.golden import check_golden
from repro._util import as_rng
from repro.core.api import decompose
from repro.matrix.collection import load_collection_matrix
from repro.partitioner import PartitionerConfig, partition_hypergraph
from repro.partitioner import kernels as K
from repro.partitioner.config import KERNELS, ExecutionPolicy
from repro.telemetry import TelemetryRecorder, use_recorder


# ----------------------------------------------------------------------
# golden replay across the kernel values
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ["flat", "jit", "reference"])
@pytest.mark.parametrize("k", [2, 8])
def test_golden_hypergraph_partitions_per_kernel(kernel, k):
    """Every kernel value replays the pre-kernel goldens bit for bit."""
    h = random_hypergraph(as_rng(1), 120, 90)
    cfg = PartitionerConfig(tree_parallel=False, kernel=kernel)
    res = partition_hypergraph(h, k, config=cfg, seed=0)
    check_golden(f"hg-120x90-s1-k{k}-seed0", res.part, res.cutsize)


@pytest.mark.parametrize("kernel", ["flat", "jit", "reference"])
def test_golden_matrix_decomposition_per_kernel(kernel):
    a = load_collection_matrix("sherman3", scale=0.25)
    cfg = PartitionerConfig(tree_parallel=False, kernel=kernel)
    res = decompose(a, 8, method="finegrain", config=cfg, seed=0)
    check_golden(f"sherman3-finegrain-k8-seed0", res.part, res.cutsize)


@pytest.mark.parametrize("kernel", ["flat", "jit"])
def test_tiers_match_python_on_fresh_instances(kernel):
    """Beyond the goldens: fresh random instances, reference vs fast."""
    for hseed, seed, k in [(5, 3, 2), (9, 1, 4)]:
        h = random_hypergraph(as_rng(hseed), 180, 140, weighted=True)
        r_py = partition_hypergraph(
            h, k, config=PartitionerConfig(kernel="python"), seed=seed
        )
        r_kr = partition_hypergraph(
            h, k, config=PartitionerConfig(kernel=kernel), seed=seed
        )
        assert r_py.cutsize == r_kr.cutsize
        assert np.array_equal(r_py.part, r_kr.part)


# ----------------------------------------------------------------------
# normalisation, introspection, defaults
# ----------------------------------------------------------------------
def test_kernels_introspection_shape():
    import repro

    info = repro.kernels()
    assert info["kernels"] == list(KERNELS) == ["reference", "fast"]
    assert info["default"] == "fast"
    assert info["aliases"] == {
        "python": "reference", "flat": "fast", "jit": "fast", "auto": "fast",
    }
    assert set(info["phases"]) == {
        "fm", "matching", "coarse_build", "initial", "kway"
    }
    # the per-net build loop no longer ships: both kernels sort
    assert info["phases"]["coarse_build"] == ["sort"]
    assert K.phase_kernels("reference")["coarse_build"] == ["sort"]
    json.dumps(info)


def test_resolve_kernel_explicit_and_auto():
    assert K.resolve_kernel("reference") == "reference"
    assert K.resolve_kernel("fast") == "fast"
    assert K.resolve_kernel("python") == "reference"
    assert K.resolve_kernel("flat") == "fast"
    assert K.resolve_kernel("jit") == "fast"
    assert K.resolve_kernel("auto") == "fast"


def test_resolve_kernel_unknown_raises():
    with pytest.raises(ValueError, match="unknown kernel"):
        K.resolve_kernel("cuda")
    with pytest.raises(ValueError, match="unknown kernel"):
        ExecutionPolicy(kernel="cuda")


def test_import_repro_without_numba_is_clean():
    """``import repro`` never pulls in numba, and the report names no
    optional tier."""
    import repro

    assert "numba" not in sys.modules
    assert "jit" not in repro.kernels()["kernels"]


def test_repro_kernel_env_default(monkeypatch):
    """The environment no longer picks the kernel: the default is fast."""
    monkeypatch.setenv("REPRO_KERNEL", "reference")
    assert ExecutionPolicy().kernel == "fast"
    monkeypatch.delenv("REPRO_KERNEL")
    assert ExecutionPolicy().kernel == "fast"


def test_decompose_kernel_kwarg_routes():
    import scipy.sparse as sp

    a = sp.random(
        120, 120, density=0.05,
        random_state=np.random.RandomState(4), format="csr",
    )
    a.data[:] = 1.0
    base = decompose(a, 4, method="finegrain", seed=2)
    for kernel in ("reference", "fast", "python", "flat", "jit", "auto"):
        r = decompose(a, 4, method="finegrain", seed=2, kernel=kernel)
        assert r.cutsize == base.cutsize
        assert np.array_equal(r.part, base.part)


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
        partition_hypergraph(h, 2, config=PartitionerConfig(kernel="flat"), seed=0)
    spans = [
        s for s in _walk(rec.roots)
        if s.name in ("refine.fm", "initial", "coarsen.build")
    ]
    assert {s.name for s in spans} == {"refine.fm", "initial", "coarsen.build"}
    assert not any("kernel" in s.attrs or "tier" in s.attrs for s in spans)


def test_engine_span_records_resolved_kernel():
    from repro.partitioner import partition_multistart

    h = random_hypergraph(as_rng(4), 60, 50)
    rec = TelemetryRecorder()
    with use_recorder(rec):
        partition_multistart(
            h, 2,
            config=PartitionerConfig(n_starts=2, kernel="flat"),
            seed=0,
        )
    engine = [s for s in _walk(rec.roots) if s.name == "engine"]
    assert engine and engine[0].attrs.get("kernel") == "fast"
