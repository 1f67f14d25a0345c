"""ModelConfig/ExecutionPolicy split: routing, back-compat, fingerprint.

The split's contract: :class:`ModelConfig` holds exactly the bit-shaping
fields (``repro.fingerprint`` digests them), :class:`ExecutionPolicy`
holds the how-to-compute fields (changing one must never move the
fingerprint), and :class:`PartitionerConfig` composes the two while
keeping the pre-split flat-kwarg API byte-compatible.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.fingerprint import BIT_FIELDS
from repro.partitioner.config import (
    ExecutionPolicy,
    ModelConfig,
    PartitionerConfig,
)

from dataclasses import fields


# ----------------------------------------------------------------------
# construction and routing
# ----------------------------------------------------------------------
def test_flat_kwargs_route_to_sub_configs():
    cfg = PartitionerConfig(epsilon=0.1, n_workers=4, heartbeat_timeout=3.0)
    assert cfg.model.epsilon == 0.1
    assert cfg.execution.n_workers == 4
    assert cfg.execution.heartbeat_timeout == 3.0
    # flat attribute access keeps working
    assert cfg.epsilon == 0.1
    assert cfg.n_workers == 4
    assert cfg.heartbeat_timeout == 3.0


def test_explicit_sub_config_construction():
    cfg = PartitionerConfig(
        model=ModelConfig(epsilon=0.05),
        execution=ExecutionPolicy(n_workers=2),
    )
    assert cfg.epsilon == 0.05
    assert cfg.n_workers == 2


def test_unknown_kwarg_raises_type_error():
    with pytest.raises(TypeError, match="unexpected keyword"):
        PartitionerConfig(epsilonn=0.1)


def test_mixing_sub_config_with_its_flat_kwargs_raises():
    with pytest.raises(TypeError, match="cannot combine model="):
        PartitionerConfig(model=ModelConfig(), epsilon=0.1)
    with pytest.raises(TypeError, match="cannot combine execution="):
        PartitionerConfig(execution=ExecutionPolicy(), n_workers=2)


def test_mixing_sub_config_with_other_sides_kwargs_is_fine():
    cfg = PartitionerConfig(model=ModelConfig(epsilon=0.2), n_workers=3)
    assert cfg.epsilon == 0.2
    assert cfg.n_workers == 3


def test_with_routes_flat_fields():
    cfg = PartitionerConfig()
    cfg2 = cfg.with_(epsilon=0.2, heartbeat_timeout=3.0)
    assert cfg2.model.epsilon == 0.2
    assert cfg2.execution.heartbeat_timeout == 3.0
    # originals untouched (immutability)
    assert cfg.model.epsilon == 0.03
    assert cfg.execution.heartbeat_timeout == 30.0
    with pytest.raises(TypeError, match="unknown config fields"):
        cfg.with_(bogus=1)


def test_config_is_immutable():
    cfg = PartitionerConfig()
    with pytest.raises(AttributeError):
        cfg.epsilon = 0.5
    with pytest.raises(AttributeError):
        del cfg.epsilon
    with pytest.raises(AttributeError):
        cfg.model = ModelConfig()


def test_equality_and_hash():
    a = PartitionerConfig(epsilon=0.1, n_workers=4)
    b = PartitionerConfig(epsilon=0.1, n_workers=4)
    c = PartitionerConfig(epsilon=0.1, n_workers=5)
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_pickle_round_trip():
    cfg = PartitionerConfig(epsilon=0.1, n_workers=4, heartbeat_timeout=3.0)
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg
    assert back.heartbeat_timeout == 3.0


def test_attribute_error_for_unknown_field():
    cfg = PartitionerConfig()
    with pytest.raises(AttributeError):
        cfg.not_a_field


# ----------------------------------------------------------------------
# the split line: fingerprint == ModelConfig
# ----------------------------------------------------------------------
def test_bit_fields_are_exactly_model_config_fields():
    assert set(BIT_FIELDS) == {f.name for f in fields(ModelConfig)}


def test_kernel_is_not_a_bit_field():
    """Each V-cycle route is picked from the level's structure, so no
    field of either side selects one."""
    assert "kernel" not in BIT_FIELDS
    assert "kernel" not in {f.name for f in fields(ExecutionPolicy)}
    with pytest.raises(TypeError, match="kernel"):
        PartitionerConfig(kernel="fast")


def _instance():
    import numpy as np
    import scipy.sparse as sp

    a = sp.random(
        30, 30, density=0.1, random_state=np.random.RandomState(0), format="csr"
    )
    a.data[:] = 1.0
    return a


def test_fingerprint_invariant_under_execution_policy():
    from repro.fingerprint import fingerprint

    a = _instance()
    variants = [
        PartitionerConfig(n_workers=8),
        PartitionerConfig(n_workers=2, start_backend="process"),
        PartitionerConfig(heartbeat_interval=1.0, heartbeat_timeout=5.0),
        PartitionerConfig(heartbeat_timeout=3.0, deadline=60.0),
        PartitionerConfig(start_backend="serial"),
        PartitionerConfig(checkpoint_path="/tmp/ckpt.json"),
    ]
    ref = fingerprint(a, config=PartitionerConfig(), seed=0,
                      k=8, method="finegrain")
    for v in variants:
        assert fingerprint(a, config=v, seed=0, k=8, method="finegrain") == ref


def test_fingerprint_moves_with_model_config():
    from repro.fingerprint import fingerprint

    a = _instance()
    ref = fingerprint(a, config=PartitionerConfig(), seed=0,
                      k=8, method="finegrain")
    bumped = fingerprint(a, config=PartitionerConfig(epsilon=0.1), seed=0,
                         k=8, method="finegrain")
    assert bumped != ref


# ----------------------------------------------------------------------
# validation still fires through every construction path
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": -0.1},
        {"matching": "nope"},
        {"n_workers": 0},
        {"n_starts": 0},
        {"start_backend": "mpi"},
        {"n_vcycles": -1},
        {"deadline": 0.0},
        {"heartbeat_timeout": 0.0},
    ],
)
def test_validation_via_flat_kwargs(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError) as exc:
        PartitionerConfig(**kwargs)
    # the error names its own field, and no other
    msg = str(exc.value)
    assert name in msg
    others = {f.name for cls in (ModelConfig, ExecutionPolicy) for f in fields(cls)}
    assert not [other for other in others - {name} if other in msg]


def test_sub_configs_expose_with_():
    m = ModelConfig().with_(epsilon=0.2)
    assert m.epsilon == 0.2
    e = ExecutionPolicy().with_(heartbeat_timeout=2.0)
    assert e.heartbeat_timeout == 2.0


# the backend axis: auto|process|serial, each held as given
@pytest.mark.parametrize("value, expected", [
    ("auto", "auto"),
    ("process", "process"),
    ("serial", "serial"),
])
def test_legacy_start_backend_values_normalise(value, expected, monkeypatch):
    assert ExecutionPolicy(start_backend=value).start_backend == expected
    cfg = PartitionerConfig(start_backend=value)
    assert cfg.start_backend == expected
    assert cfg == PartitionerConfig(start_backend=expected)
    assert PartitionerConfig().with_(start_backend=value).start_backend == expected
    assert pickle.loads(pickle.dumps(cfg)).start_backend == expected
    monkeypatch.setenv("REPRO_START_BACKEND", value)
    assert PartitionerConfig().start_backend == expected


def test_thread_backend_is_refused(monkeypatch):
    """Threads are no backend (matching and FM hold the GIL): the old
    spelling raises like any unknown value."""
    with pytest.raises(ValueError, match="unknown start_backend 'thread'"):
        ExecutionPolicy(start_backend="thread")
    monkeypatch.setenv("REPRO_START_BACKEND", "thread")
    with pytest.raises(ValueError, match="REPRO_START_BACKEND='thread'"):
        PartitionerConfig()


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("backend", ["auto", "process", "serial"])
def test_resolve_backend_policy(backend, n_workers, cores, monkeypatch):
    """One resolver serves the engine, the tree scheduler and
    ``partition_hypergraph``."""
    from repro.partitioner import TreeScheduler
    from repro.partitioner.config import resolve_backend

    monkeypatch.setattr("os.cpu_count", lambda: cores)
    cfg = PartitionerConfig(
        start_backend=backend, n_workers=n_workers, tree_parallel=True
    )
    if n_workers == 1 or backend == "serial":
        expected = "serial"
    elif backend == "process":
        expected = "process"
    else:  # auto
        expected = "process" if cores > 1 else "serial"
    assert resolve_backend(cfg) == expected
    assert resolve_backend(cfg.execution) == expected
    with TreeScheduler(cfg) as sched:
        assert sched.backend == expected
    assert TreeScheduler(cfg.with_(tree_parallel=False)).backend == "serial"


def test_kernels_report_is_json():
    """``repro.kernels()`` is a static route report: plain JSON, one
    entry per V-cycle phase, and nothing a config could select."""
    import json

    import repro

    doc = json.loads(json.dumps(repro.kernels()))
    assert set(doc) == {"phases"}
    assert set(doc["phases"]) == {"fm", "matching", "coarse_build", "initial", "kway"}


# every REPRO_* variable a config default or decompose() reads, with a
# malformed value; REPRO_CHECKPOINT is a free-form path and cannot be one
@pytest.mark.parametrize("var, value, match", [
    ("REPRO_TREE_PARALLEL", "flase", "REPRO_TREE_PARALLEL='flase'"),
    ("REPRO_N_WORKERS", "two", "REPRO_N_WORKERS='two'"),
    ("REPRO_START_BACKEND", "proces", "REPRO_START_BACKEND='proces'"),
    ("REPRO_DEADLINE", "10s", "REPRO_DEADLINE='10s'"),
    ("REPRO_HEARTBEAT_INTERVAL", "1/4", "REPRO_HEARTBEAT_INTERVAL='1/4'"),
    ("REPRO_HEARTBEAT_TIMEOUT", "abc", "REPRO_HEARTBEAT_TIMEOUT='abc'"),
    ("REPRO_VERIFY", "maybe", "REPRO_VERIFY='maybe'"),
])
def test_malformed_env_values_raise(var, value, match, monkeypatch):
    """A typo never silently becomes the default; unset or empty does.

    ``decompose()`` without a config reads every variable listed."""
    import scipy.sparse as sp

    from repro.core.api import decompose

    a = sp.random(
        12, 12, density=0.3, random_state=np.random.RandomState(1), format="csr"
    )
    monkeypatch.setenv(var, value)
    with pytest.raises(ValueError, match=match):
        decompose(a, 2, seed=0)
    monkeypatch.setenv(var, "")
    assert decompose(a, 2, seed=0).k == 2
