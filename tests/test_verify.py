"""Invariant oracles, decompose(verify=...), the verify CLI, and replay.

The oracles must do two jobs: pass on everything the partitioner actually
produces (the e2e equivalence sweep) and *fail loudly* on deliberately
corrupted inputs (every corruption test below tampers one thing and
asserts the report names a failing check).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.sparse as sp

from tests.conftest import random_hypergraph
from repro._util import as_rng
from repro.cli import main as cli_main
from repro.core.api import decompose
from repro.core.finegrain import build_finegrain_model
from repro.matrix.io import write_matrix_market
from repro.spmv import communication_stats
from repro.verify import (
    VerificationError,
    check_all,
    check_decomposition,
    check_partition,
    oracle_volume,
    verify_decompose,
)
from repro.verify.replay import (
    ReplayRun,
    _first_divergence,
    replay_decompose,
    write_replay_report,
)

ALL_METHODS = ["finegrain", "finegrain-rect", "columnnet", "rownet", "graph"]


@pytest.fixture(scope="module")
def matrix() -> sp.csr_matrix:
    rng = np.random.default_rng(7)
    a = sp.random(40, 40, density=0.1, random_state=rng, format="lil")
    a.setdiag(rng.uniform(0.5, 1.0, 40))
    return sp.csr_matrix(a)


# ----------------------------------------------------------------------
# e2e equivalence: every method passes its own oracle audit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", ALL_METHODS)
def test_verify_decompose_passes_every_method(matrix, method):
    res = decompose(matrix, 4, method=method, seed=0)
    report = verify_decompose(matrix, res)
    assert report.passed, report.summary()
    # the Eq. 3 equivalence is the paper's theorem: it must be among the
    # checks that actually ran, not silently skipped
    assert any(c.name == "volume.equals_cutsize" for c in report.checks)


@pytest.mark.parametrize("method", ["finegrain", "finegrain-rect"])
def test_eq3_cutsize_equals_simulated_volume(matrix, method):
    """Eq. 3 == expand+fold volume, via oracle AND simulator independently."""
    res = decompose(matrix, 4, method=method, seed=1)
    vol = oracle_volume(res.decomposition)
    stats = communication_stats(res.decomposition)
    assert vol["total"] == stats.total_volume == res.cutsize


def test_verify_decompose_edge_cases():
    """Empty rows, empty columns and zero diagonals survive every model."""
    rows = [0, 0, 1, 2, 4, 4, 5]
    cols = [1, 2, 0, 4, 0, 2, 3]
    a = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(6, 6))
    for method in ALL_METHODS:
        res = decompose(a, 2, method=method, seed=0)
        report = verify_decompose(a, res)
        assert report.passed, f"{method}: {report.summary()}"


def test_verify_decompose_rectangular():
    a = sp.random(20, 31, density=0.15, random_state=3, format="csr")
    res = decompose(a, 3, method="finegrain-rect", seed=0)
    report = verify_decompose(a, res)
    assert report.passed, report.summary()


def test_verify_decompose_unknown_method(matrix):
    res = decompose(matrix, 4, method="finegrain", seed=0)
    res.method = "quantum"
    report = verify_decompose(matrix, res)
    assert not report.passed
    assert any(c.name == "method.known" for c in report.failures)


# ----------------------------------------------------------------------
# corruption detection: each tamper must trip a named check
# ----------------------------------------------------------------------
def _finegrain_setup(matrix, k=4, seed=0):
    res = decompose(matrix, k, method="finegrain", seed=seed)
    model = build_finegrain_model(matrix, consistency=True)
    return model, res


def test_check_partition_detects_out_of_range(matrix):
    model, res = _finegrain_setup(matrix)
    bad = res.part.copy()
    bad[0] = 99
    report = check_partition(model.hypergraph, bad, res.k)
    assert not report.passed
    assert any(c.name == "partition.valid" for c in report.failures)


def test_check_partition_detects_wrong_reported_cutsize(matrix):
    model, res = _finegrain_setup(matrix)
    report = check_partition(
        model.hypergraph, res.part, res.k, expected_cutsize=res.cutsize + 1
    )
    assert any(c.name == "partition.cutsize" for c in report.failures)


def test_check_partition_detects_imbalance_when_strict(matrix):
    model, res = _finegrain_setup(matrix)
    # cram everything into part 0: violates Eq. 1 at any sane epsilon
    bad = np.zeros_like(res.part)
    report = check_partition(
        model.hypergraph, bad, res.k, strict_balance=True, epsilon=0.03
    )
    assert any(c.name == "partition.balance" for c in report.failures)


def test_check_all_detects_moved_vertex(matrix):
    """Moving one vertex breaks the cutsize==volume seam somewhere."""
    model, res = _finegrain_setup(matrix)
    bad = res.part.copy()
    bad[0] = (bad[0] + 1) % res.k
    report = check_all(
        model.hypergraph,
        bad,
        res.k,
        model=model,
        dec=res.decomposition,
        expected_cutsize=res.cutsize,
        cut_equals_volume=True,
    )
    assert not report.passed


def test_check_decomposition_detects_tampered_owner(matrix):
    import dataclasses

    _, res = _finegrain_setup(matrix)
    owner = res.decomposition.nnz_owner.copy()
    owner[:3] = (owner[:3] + 1) % res.decomposition.k
    dec = dataclasses.replace(res.decomposition, nnz_owner=owner)
    report = check_all(
        build_finegrain_model(matrix, consistency=True).hypergraph,
        res.part,
        res.k,
        dec=dec,
        expected_cutsize=res.cutsize,
        cut_equals_volume=True,
    )
    assert not report.passed
    assert any(c.name == "volume.equals_cutsize" for c in report.failures)


def test_report_raise_if_failed(matrix):
    model, res = _finegrain_setup(matrix)
    bad = res.part.copy()
    bad[0] = -5
    report = check_partition(model.hypergraph, bad, res.k)
    with pytest.raises(VerificationError, match="partition.valid"):
        report.raise_if_failed()
    # a passing report must not raise
    check_partition(model.hypergraph, res.part, res.k).raise_if_failed()


def test_report_to_dict_and_str(matrix):
    model, res = _finegrain_setup(matrix)
    report = check_partition(model.hypergraph, res.part, res.k)
    doc = report.to_dict()
    assert doc["passed"] is True
    assert len(doc["checks"]) == len(report.checks)
    assert "[ok" in str(report.checks[0])


# ----------------------------------------------------------------------
# decompose(verify=...) wiring
# ----------------------------------------------------------------------
def test_decompose_verify_true_attaches_report(matrix):
    res = decompose(matrix, 4, method="finegrain", seed=0, verify=True)
    assert res.verification is not None and res.verification.passed


def test_decompose_verify_default_off(matrix):
    res = decompose(matrix, 4, method="finegrain", seed=0)
    assert res.verification is None


def test_decompose_verify_env_default(matrix, monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "1")
    res = decompose(matrix, 4, method="columnnet", seed=0)
    assert res.verification is not None and res.verification.passed
    # explicit argument wins over the environment
    res = decompose(matrix, 4, method="columnnet", seed=0, verify=False)
    assert res.verification is None


# ----------------------------------------------------------------------
# CLI: partition --verify, the verify command, tampered files
# ----------------------------------------------------------------------
@pytest.fixture
def mtx_file(tmp_path, matrix):
    p = tmp_path / "m.mtx"
    write_matrix_market(matrix, p)
    return str(p)


def test_cli_partition_verify_and_verify_command(mtx_file, tmp_path, capsys):
    out_npz = str(tmp_path / "dec.npz")
    assert cli_main([
        "partition", mtx_file, "-k", "4", "--verify", "--output", out_npz,
    ]) == 0
    assert "checks passed" in capsys.readouterr().out
    data = np.load(out_npz)
    assert str(data["method"]) == "finegrain"
    assert int(data["n"]) == 40 and int(data["m"]) == 40
    assert cli_main(["verify", mtx_file, out_npz]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_cli_verify_detects_tampered_partition(mtx_file, tmp_path, capsys):
    out_npz = str(tmp_path / "dec.npz")
    assert cli_main(["partition", mtx_file, "-k", "4", "--output", out_npz]) == 0
    data = dict(np.load(out_npz))
    owner = data["nnz_owner"].copy()
    owner[:4] = (owner[:4] + 1) % int(data["k"])
    data["nnz_owner"] = owner
    bad_npz = str(tmp_path / "bad.npz")
    np.savez(bad_npz, **data)
    assert cli_main(["verify", mtx_file, bad_npz]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_ownership_only_file(mtx_file, tmp_path, capsys):
    """Files from non-partitioner models (no part array) still audit."""
    out_npz = str(tmp_path / "cb.npz")
    assert cli_main([
        "partition", mtx_file, "-k", "4", "--model", "checkerboard",
        "--verify", "--output", out_npz,
    ]) == 0
    assert cli_main(["verify", mtx_file, out_npz]) == 0


def test_cli_spmv_rectangular_roundtrip(tmp_path, capsys):
    """Regression: spmv used to rebuild the decomposition without n and
    size the input vector by rows — both wrong for rectangular matrices."""
    a = sp.random(18, 27, density=0.2, random_state=5, format="csr")
    mtx = str(tmp_path / "rect.mtx")
    write_matrix_market(a, mtx)
    res = decompose(a, 3, method="finegrain-rect", seed=0)
    dec = res.decomposition
    npz = str(tmp_path / "rect.npz")
    np.savez(
        npz,
        k=dec.k, m=dec.m, n=dec.n,
        nnz_owner=dec.nnz_owner, x_owner=dec.x_owner, y_owner=dec.y_owner,
        part=res.part, cutsize=res.cutsize, method=res.method,
    )
    assert cli_main(["spmv", mtx, npz]) == 0
    assert "matches serial product: True" in capsys.readouterr().out
    assert cli_main(["verify", mtx, npz]) == 0


# ----------------------------------------------------------------------
# differential replay
# ----------------------------------------------------------------------
def test_replay_small_grid_bit_identical(matrix):
    from repro.verify.replay import ReplayVariant

    variants = [
        ReplayVariant("serial", "serial", False),
        ReplayVariant("process", "process", False),
        ReplayVariant("serial+tree", "serial", True),
        ReplayVariant("process+tree", "process", True),
    ]
    rep = replay_decompose(
        matrix, 4, seed=0, n_starts=2, n_workers=2, variants=variants,
        matrix_label="m40",
    )
    assert rep.passed, rep.summary()
    assert len(rep.runs) == 4
    # the two universes are allowed (and expected) to differ from each other
    shas = {r.universe: r.part_sha for r in rep.runs}
    assert set(shas) == {"legacy", "tree"}


def test_replay_detects_divergence_and_reports_first_stage():
    ref = ReplayRun("serial", "serial", False, "legacy",
                    cutsize=10, part_sha="aaa", bisection_cuts=[4, 3, 3])
    same = ReplayRun("process", "process", False, "legacy",
                     cutsize=10, part_sha="aaa", bisection_cuts=[4, 3, 3])
    bad_rng = ReplayRun("process", "process", False, "legacy",
                        cutsize=10, part_sha="bbb", bisection_cuts=[4, 9, 3])
    bad_part = ReplayRun("process", "process", False, "legacy",
                         cutsize=10, part_sha="bbb", bisection_cuts=[4, 3, 3])
    assert _first_divergence(same, ref) is None
    d = _first_divergence(bad_rng, ref)
    assert d.stage == "bisection_cuts" and "bisection 1" in d.detail
    assert _first_divergence(bad_part, ref).stage == "part"


def test_replay_records_variant_errors(matrix, monkeypatch):
    """A variant that cannot run becomes an error divergence, not a crash."""
    import repro.core.api as api_mod

    real = api_mod.decompose
    from repro.verify.replay import ReplayVariant

    def flaky(a, k, method="finegrain", config=None, **kw):
        if config is not None and config.start_backend == "process":
            raise RuntimeError("injected variant failure")
        return real(a, k, method=method, config=config, **kw)

    monkeypatch.setattr(api_mod, "decompose", flaky)
    rep = replay_decompose(
        matrix, 2, seed=0, n_starts=2, n_workers=2,
        variants=[
            ReplayVariant("serial", "serial", False),
            ReplayVariant("process", "process", False),
        ],
    )
    assert not rep.passed
    assert any(d.stage == "error" for d in rep.divergences)
    assert "DIVERGENCE" in rep.summary()


def test_write_replay_report(tmp_path, matrix):
    from repro.verify.replay import ReplayVariant

    rep = replay_decompose(
        matrix, 2, seed=0, n_starts=1, n_workers=1,
        variants=[ReplayVariant("serial", "serial", False)],
    )
    path = str(tmp_path / "replay.json")
    write_replay_report(path, [rep])
    with open(path) as f:
        doc = json.load(f)
    assert doc["passed"] is True
    assert doc["reports"][0]["runs"][0]["label"] == "serial"


# ----------------------------------------------------------------------
# oracles on raw hypergraphs (no matrix in sight)
# ----------------------------------------------------------------------
def test_check_partition_on_plain_hypergraph():
    h = random_hypergraph(as_rng(0), 60, 50, weighted=True)
    from repro.partitioner import partition_hypergraph

    res = partition_hypergraph(h, 4, seed=0)
    report = check_partition(h, res.part, 4, expected_cutsize=res.cutsize)
    assert report.passed, report.summary()
