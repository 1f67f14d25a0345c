"""ModelConfig/ExecutionPolicy split: routing, back-compat, fingerprint.

The split's contract: :class:`ModelConfig` holds exactly the bit-shaping
fields (``repro.fingerprint`` digests them), :class:`ExecutionPolicy`
holds the how-to-compute fields (changing one must never move the
fingerprint), and :class:`PartitionerConfig` composes the two while
keeping the pre-split flat-kwarg API byte-compatible.
"""

from __future__ import annotations

import pickle

import pytest

from repro.fingerprint import BIT_FIELDS
from repro.partitioner.config import (
    KERNELS,
    ExecutionPolicy,
    ModelConfig,
    PartitionerConfig,
)

from dataclasses import fields


# ----------------------------------------------------------------------
# construction and routing
# ----------------------------------------------------------------------
def test_flat_kwargs_route_to_sub_configs():
    cfg = PartitionerConfig(epsilon=0.1, n_workers=4, kernel="reference")
    assert cfg.model.epsilon == 0.1
    assert cfg.execution.n_workers == 4
    assert cfg.execution.kernel == "reference"
    # flat attribute access keeps working
    assert cfg.epsilon == 0.1
    assert cfg.n_workers == 4
    assert cfg.kernel == "reference"


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
    cfg2 = cfg.with_(epsilon=0.2, kernel="reference")
    assert cfg2.model.epsilon == 0.2
    assert cfg2.execution.kernel == "reference"
    # originals untouched (immutability)
    assert cfg.model.epsilon == 0.03
    assert cfg.execution.kernel == "fast"
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
    cfg = PartitionerConfig(epsilon=0.1, n_workers=4, kernel="reference")
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg
    assert back.kernel == "reference"


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
    assert "kernel" not in BIT_FIELDS
    assert "kernel" in {f.name for f in fields(ExecutionPolicy)}


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
        PartitionerConfig(kernel="reference"),
        PartitionerConfig(kernel="auto"),
        PartitionerConfig(max_retries=3, deadline=60.0),
        PartitionerConfig(start_backend="serial", shm_transport=False),
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
        {"kernel": "cuda"},
        {"start_backend": "mpi"},
    ],
)
def test_validation_via_flat_kwargs(kwargs):
    with pytest.raises(ValueError):
        PartitionerConfig(**kwargs)


def test_sub_configs_expose_with_():
    m = ModelConfig().with_(epsilon=0.2)
    assert m.epsilon == 0.2
    e = ExecutionPolicy().with_(kernel="reference")
    assert e.kernel == "reference"


# ----------------------------------------------------------------------
# the kernel axis: reference|fast, legacy values normalised
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value, expected", [
    ("reference", "reference"),
    ("fast", "fast"),
    ("python", "reference"),
    ("flat", "fast"),
    ("jit", "fast"),
    ("auto", "fast"),
])
def test_legacy_kernel_values_normalise(value, expected):
    assert ExecutionPolicy(kernel=value).kernel == expected
    cfg = PartitionerConfig(kernel=value)
    assert cfg.kernel == expected
    assert cfg.kernel in KERNELS
    assert cfg == PartitionerConfig(kernel=expected)
    assert PartitionerConfig().with_(kernel=value).kernel == expected


def test_kernel_default_is_fast():
    assert ExecutionPolicy().kernel == "fast"
    assert KERNELS == ("reference", "fast")


def test_fingerprint_unchanged_across_kernel_values():
    from repro.fingerprint import fingerprint

    a = _instance()
    prints = {
        fingerprint(a, config=PartitionerConfig(kernel=value), seed=0,
                    k=8, method="finegrain")
        for value in ("reference", "fast", "python", "flat", "jit", "auto")
    }
    assert len(prints) == 1


@pytest.mark.parametrize("value", ["python", "jit"])
def test_normalised_kernel_survives_pickle_and_with_(value):
    cfg = PartitionerConfig(epsilon=0.1, kernel=value)
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg and back.kernel == cfg.kernel
    again = back.with_(epsilon=0.2)
    assert again.kernel == cfg.kernel
    e = pickle.loads(pickle.dumps(cfg.execution))
    assert e == cfg.execution and e.with_(n_workers=2).kernel == cfg.kernel


def test_kernels_report_is_json():
    import json

    import repro

    doc = json.loads(json.dumps(repro.kernels()))
    assert doc["default"] == "fast"
