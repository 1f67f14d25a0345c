"""The content-addressed request identity (:mod:`repro.fingerprint`).

One fingerprint function keys the serving cache, the checkpoint layer
and client-side lookups, so these tests pin down exactly what it must
and must not depend on: instance *content* (not provenance or format),
the bit-shaping config fields (not execution policy), the seed's
pre-draw generator state (an int and the generator it creates are the
same request; unseeded is never the same request twice).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.fingerprint import (
    BIT_FIELDS,
    config_digest,
    fingerprint,
    instance_digest,
    seed_digest,
)
from repro.hypergraph import hypergraph_from_netlists
from repro.partitioner import PartitionerConfig


@pytest.fixture
def a():
    return sp.random(40, 40, density=0.1, format="csr", random_state=0)


class TestInstanceDigest:
    def test_content_addressed_not_provenance(self, a):
        assert fingerprint(a, k=4, seed=0) == fingerprint(a.copy(), k=4, seed=0)

    def test_format_invariant(self, a):
        # the same nonzeros in COO/CSC canonicalize to the same identity
        assert instance_digest(a) == instance_digest(sp.coo_matrix(a))
        assert instance_digest(a) == instance_digest(sp.csc_matrix(a))

    def test_different_values_differ(self, a):
        b = a.copy()
        b.data[0] += 1.0
        assert fingerprint(a, k=4, seed=0) != fingerprint(b, k=4, seed=0)

    def test_hypergraph_instances(self):
        h1 = hypergraph_from_netlists(4, [[0, 1], [1, 2, 3], [2, 3]])
        h2 = hypergraph_from_netlists(4, [[0, 1], [1, 2, 3], [2, 3]])
        h3 = hypergraph_from_netlists(4, [[0, 1], [1, 2], [2, 3]])
        assert fingerprint(h1, k=2, seed=0) == fingerprint(h2, k=2, seed=0)
        assert fingerprint(h1, k=2, seed=0) != fingerprint(h3, k=2, seed=0)

    def test_rejects_unknown_instances(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            fingerprint(np.zeros((3, 3)), k=2, seed=0)


class TestRequestFields:
    def test_k_method_and_extra_participate(self, a):
        base = fingerprint(a, k=4, method="finegrain", seed=0)
        assert base != fingerprint(a, k=8, method="finegrain", seed=0)
        assert base != fingerprint(a, k=4, method="columnnet", seed=0)
        assert base != fingerprint(
            a, k=4, method="finegrain", seed=0, extra={"seed_1d": True}
        )

    def test_int_seed_equals_its_generator(self, a):
        assert fingerprint(a, seed=7, k=4) == fingerprint(
            a, seed=np.random.default_rng(7), k=4
        )
        assert fingerprint(a, seed=7, k=4) != fingerprint(a, seed=8, k=4)

    def test_unseeded_is_never_reusable(self, a):
        assert fingerprint(a, seed=None, k=4) != fingerprint(a, seed=None, k=4)

    def test_seed_digest_reads_state_without_draws(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        seed_digest(rng)
        assert rng.bit_generator.state == before


class TestConfigDigest:
    def test_default_config_is_none(self):
        assert config_digest(None) == config_digest(PartitionerConfig())

    def test_bit_fields_participate(self, a):
        cfg = PartitionerConfig()
        assert fingerprint(a, cfg, 0, k=4) != fingerprint(
            a, cfg.with_(epsilon=0.1), 0, k=4
        )
        assert fingerprint(a, cfg, 0, k=4) != fingerprint(
            a, cfg.with_(n_starts=4), 0, k=4
        )

    def test_execution_policy_does_not(self, a):
        # workers/backends/deadlines move results between machines, not
        # between answers — they must hit the same cache entry
        cfg = PartitionerConfig()
        base = fingerprint(a, cfg, 0, k=4)
        assert base == fingerprint(a, cfg.with_(n_workers=8), 0, k=4)
        assert base == fingerprint(a, cfg.with_(deadline=0.5), 0, k=4)
        assert base == fingerprint(a, cfg.with_(start_backend="process"), 0, k=4)
        assert base == fingerprint(a, cfg.with_(start_backend="serial"), 0, k=4)

    def test_bit_fields_exist_on_config(self):
        cfg = PartitionerConfig()
        for name in BIT_FIELDS:
            assert hasattr(cfg, name)


class TestDecomposeCarriesFingerprint:
    def test_result_fingerprint_matches_public_helper(self, a):
        res = repro.decompose(a, 4, method="finegrain", seed=0)
        assert res.fingerprint == repro.fingerprint(
            a, None, 0, k=4, method="finegrain"
        )

    def test_same_request_same_fingerprint_and_bits(self, a):
        r1 = repro.decompose(a, 4, method="finegrain", seed=0)
        r2 = repro.decompose(a, 4, method="finegrain", seed=0)
        assert r1.fingerprint == r2.fingerprint
        assert np.array_equal(r1.part, r2.part)

    def test_sweep_fingerprint_is_content_addressed(self):
        from repro.partitioner.resilience import sweep_fingerprint

        h1 = hypergraph_from_netlists(4, [[0, 1], [1, 2, 3], [2, 3]])
        h2 = hypergraph_from_netlists(4, [[0, 1], [1, 2, 3], [2, 3]])
        h3 = hypergraph_from_netlists(4, [[0, 1], [1, 3], [2, 3]])
        cfg = PartitionerConfig()
        fp = sweep_fingerprint(h1, 2, cfg, np.random.default_rng(0))
        assert fp == sweep_fingerprint(h2, 2, cfg, np.random.default_rng(0))
        assert fp != sweep_fingerprint(h3, 2, cfg, np.random.default_rng(0))
