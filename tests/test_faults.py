"""Fault injection: every degradation path fires, and the bits never move.

The graceful-degradation promises (inline subtree recompute, failed-fork
inline path, serial fallback) are asserted here by actually making each
failure happen via :mod:`repro.verify.faults` and checking (a) the
documented fallback telemetry counter incremented and (b) the partition
is bit-identical to the healthy run.  Sites that fire inside worker
processes get their plan through ``REPRO_FAULTS``.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.api import decompose
from repro.partitioner import PartitionerConfig, pool
from repro.telemetry import use_recorder
from repro.verify import faults
from repro.verify.faults import FaultInjected, FaultPlan, FaultSpec, inject


@pytest.fixture(autouse=True)
def _isolate_faults(monkeypatch):
    """No plan leaks between tests, in either direction."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def matrix() -> sp.csr_matrix:
    rng = np.random.default_rng(2)
    a = sp.random(60, 60, density=0.1, random_state=rng, format="lil")
    a.setdiag(rng.uniform(0.5, 1.0, 60))
    return sp.csr_matrix(a)


@pytest.fixture(autouse=True)
def _ship_tiny_subtrees(monkeypatch):
    """The 60-row test matrix is far below the production size floor."""
    monkeypatch.setattr(pool, "_SPAWN_MIN_VERTICES", 0)


def _tree_cfg() -> PartitionerConfig:
    return PartitionerConfig(tree_parallel=True, n_workers=2, start_backend="process")


# ----------------------------------------------------------------------
# plan parsing
# ----------------------------------------------------------------------
class TestPlanParsing:
    @pytest.mark.parametrize(
        "text", ["tree.task:crash", "checkpoint.write:oserror@all",
                 "tree.task:sleep0.5@2", "pool.submit:crash@3"]
    )
    def test_spec_round_trips(self, text):
        assert FaultSpec.parse(text).spec_string() == text

    def test_default_hit_is_first(self):
        s = FaultSpec.parse("tree.task:crash")
        assert s.hit == 1 and s.action == "crash"

    def test_plan_round_trip(self):
        plan = FaultPlan.parse("tree.task:crash, serve.compute:oserror@all")
        assert len(plan.specs) == 2
        assert plan.spec_string() == "tree.task:crash,serve.compute:oserror@all"

    @pytest.mark.parametrize(
        "bad", ["no-colon", "mars.base:crash", "tree.task:explode",
                "tree.task:crash@0", "tree.task:sleep-1"]
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)

    def test_plan_fires_on_chosen_hit_only(self):
        plan = FaultPlan.parse("tree.task:crash@2")
        plan.trip("tree.task")  # hit 1: silent
        with pytest.raises(FaultInjected):
            plan.trip("tree.task")  # hit 2: fires
        plan.trip("tree.task")  # hit 3: silent again
        assert plan.count("tree.task") == 3
        assert plan.fired == [("tree.task", "crash", 2)]

    def test_inject_restores_previous_plan(self):
        outer = FaultPlan.parse("tree.task:crash@99")
        with inject(outer):
            with inject("pool.submit:oserror@99") as inner:
                assert faults.active_plan() is inner
            assert faults.active_plan() is outer
        assert faults.active_plan() is None

    def test_env_plan_and_cache_invalidation(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "checkpoint.write:oserror@99")
        p1 = faults.active_plan()
        assert p1 is faults.active_plan()  # cached: counters persist
        monkeypatch.setenv(faults.ENV_VAR, "checkpoint.write:oserror@98")
        assert faults.active_plan() is not p1  # changed text re-parses

    def test_trip_is_noop_when_inactive(self):
        faults.trip("tree.task")  # must not raise


# ----------------------------------------------------------------------
# tree-parallel recursion: crash, fork failure
# ----------------------------------------------------------------------
def test_tree_task_crash_recomputes_inline(matrix, monkeypatch):
    ref = decompose(matrix, 4, method="finegrain", seed=3, config=_tree_cfg())
    monkeypatch.setenv(faults.ENV_VAR, "tree.task:crash")
    with use_recorder() as rec:
        res = decompose(matrix, 4, method="finegrain", seed=3, config=_tree_cfg())
    assert rec.counter_totals().get("tree.task_failures", 0) >= 1
    assert np.array_equal(res.part, ref.part)
    assert res.cutsize == ref.cutsize


def test_fork_failure_declines_one_offer_and_runs_inline(matrix):
    """A failed fork declines that one offer: its subtree runs inline,
    counted as a task failure, and the next offer forks again."""
    ref = decompose(matrix, 8, method="finegrain", seed=3, config=_tree_cfg())
    with use_recorder() as rec, inject("pool.submit:oserror") as plan:
        res = decompose(matrix, 8, method="finegrain", seed=3, config=_tree_cfg())
    assert plan.fired == [("pool.submit", "oserror", 1)]
    counters = rec.counter_totals()
    assert counters.get("tree.task_failures", 0) == 1
    assert counters.get("tree.tasks_spawned", 0) >= 1
    assert np.array_equal(res.part, ref.part)


@pytest.mark.parametrize("var, field, default", [
    ("REPRO_BACKOFF_BASE", "backoff_base", 0.05),
    ("REPRO_BACKOFF_CAP", "backoff_cap", 2.0),
])
def test_backoff_env_zero_turns_backoff_off(monkeypatch, var, field, default):
    """``0`` from the environment means what ``0`` in code means; unset
    and empty fall back to the default."""
    monkeypatch.setenv(var, "0")
    assert getattr(PartitionerConfig(), field) == 0.0
    monkeypatch.setenv(var, "")
    assert getattr(PartitionerConfig(), field) == default
    monkeypatch.delenv(var)
    assert getattr(PartitionerConfig(), field) == default


@pytest.mark.parametrize("var, field", [
    ("REPRO_HEARTBEAT_INTERVAL", "heartbeat_interval"),
    ("REPRO_HEARTBEAT_TIMEOUT", "heartbeat_timeout"),
])
def test_heartbeat_env_zero_raises_like_the_keyword(monkeypatch, var, field):
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        PartitionerConfig(**{field: 0.0})
    monkeypatch.setenv(var, "0")
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        PartitionerConfig()


# ----------------------------------------------------------------------
# engine: a crashed start on the process backend
# ----------------------------------------------------------------------
def _engine_cfg(backend: str, **kw) -> PartitionerConfig:
    return PartitionerConfig(
        n_starts=2, n_workers=2, start_backend=backend, **kw
    )


def test_engine_start_crash_falls_back_to_serial(matrix, monkeypatch):
    ref = decompose(matrix, 3, method="finegrain", seed=1,
                    config=_engine_cfg("serial"))
    monkeypatch.setenv(faults.ENV_VAR, "engine.start:crash@all")
    with use_recorder() as rec:
        res = decompose(matrix, 3, method="finegrain", seed=1,
                        config=_engine_cfg("process"))
    # every start's child crashes and is recomputed inline, fault-free
    assert rec.counter_totals()["engine.start_failures"] == 2
    assert np.array_equal(res.part, ref.part)


def test_engine_result_unchanged_when_no_fault_matches(matrix):
    """An armed plan whose hits never come due is completely invisible."""
    ref = decompose(matrix, 3, method="finegrain", seed=1,
                    config=_engine_cfg("serial"))
    with inject("engine.start:crash@999") as plan:
        res = decompose(matrix, 3, method="finegrain", seed=1,
                        config=_engine_cfg("serial"))
    assert plan.fired == []
    assert np.array_equal(res.part, ref.part)
