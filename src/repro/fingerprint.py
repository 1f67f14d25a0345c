"""Content-addressed identity of a decomposition request.

One fingerprint function for the whole system: the engine's
checkpoint/resume layer (:func:`repro.partitioner.resilience.sweep_fingerprint`),
the partitioning service's result cache (:mod:`repro.serve.cache`), and
clients (:class:`repro.serve.client.Client`) all derive their keys through
:func:`fingerprint`, so a result computed once is recognizable everywhere.

The fingerprint is the SHA-256 of a canonical JSON document built from

* the *instance content* — for a sparse matrix the shape plus digests of
  the CSR arrays, for a hypergraph the dimensions plus digests of the
  pin/weight/cost arrays (content-addressed: two structurally identical
  instances fingerprint identically, whatever file they came from);
* the *bit-shaping* configuration fields of
  :class:`~repro.partitioner.config.PartitionerConfig` — the knobs that
  influence which partition comes out.  Pure execution knobs (workers,
  backends, transports, retries) deliberately do not participate, so the
  same request served on different hardware hits the same cache entry;
* the *seed* — an ``int`` hashes as itself; a ``numpy.random.Generator``
  hashes its bit-generator state *before any draws*; ``None`` hashes the
  state of a freshly entropy-seeded generator and therefore never
  collides (an unseeded run is not reusable and must never be answered
  from a cache);
* optionally the number of parts ``k``, the model ``method`` name, and
  any extra caller-supplied key material.

>>> import scipy.sparse as sp
>>> a = sp.random(30, 30, density=0.1, format="csr", random_state=0)
>>> fingerprint(a, k=4, method="finegrain", seed=0) == \\
...     fingerprint(a.copy(), k=4, method="finegrain", seed=0)
True
>>> fingerprint(a, k=4, method="finegrain", seed=0) == \\
...     fingerprint(a, k=8, method="finegrain", seed=0)
False
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = ["fingerprint", "instance_digest", "seed_digest", "config_digest"]


def _bit_fields() -> tuple:
    import dataclasses

    from repro.partitioner.config import ModelConfig

    return tuple(f.name for f in dataclasses.fields(ModelConfig))


#: config fields that shape the partition bits — derived from
#: :class:`~repro.partitioner.config.ModelConfig`, so the type system is
#: the single source of truth: a field is bit-shaping iff it lives on
#: ``ModelConfig``.  Everything on
#: :class:`~repro.partitioner.config.ExecutionPolicy` (workers, backends,
#: retries, deadlines, checkpoints) is deliberately excluded so
#: a resumed or cached sweep may run under different hardware settings.
BIT_FIELDS = _bit_fields()


def _digest_array(arr) -> str:
    """SHA-256 of one array's dtype, shape and raw bytes."""
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def instance_digest(instance) -> dict:
    """Canonical content description of a problem instance.

    Accepts a scipy sparse matrix (any format; canonicalized to CSR with
    sorted indices, matching the CLI's matrix normalization) or a
    :class:`repro.hypergraph.hypergraph.Hypergraph`.
    """
    from repro.hypergraph.hypergraph import Hypergraph

    if isinstance(instance, Hypergraph):
        return {
            "kind": "hypergraph",
            "v": int(instance.num_vertices),
            "n": int(instance.num_nets),
            "p": int(instance.num_pins),
            "xpins": _digest_array(instance.xpins),
            "pins": _digest_array(instance.pins),
            "w": _digest_array(instance.vertex_weights),
            "c": _digest_array(instance.net_costs),
            "fixed": (
                None if instance.fixed is None else _digest_array(instance.fixed)
            ),
        }
    import scipy.sparse as sp

    if sp.issparse(instance):
        # csr_matrix() shares a CSR input's arrays: canonicalize a copy so
        # the caller's matrix is never reordered under it
        a = sp.csr_matrix(instance)
        if not a.has_canonical_format:
            a = a.copy()
            a.sum_duplicates()
        return {
            "kind": "matrix",
            "shape": [int(a.shape[0]), int(a.shape[1])],
            "nnz": int(a.nnz),
            "indptr": _digest_array(a.indptr),
            "indices": _digest_array(a.indices),
            "data": _digest_array(a.data),
        }
    raise TypeError(
        f"cannot fingerprint instance of type {type(instance).__name__}; "
        "expected a scipy sparse matrix or a Hypergraph"
    )


def seed_digest(seed) -> object:
    """Canonical JSON-serializable form of a seed.

    Every seed is normalized the way the library normalizes it for
    execution (:func:`repro._util.as_rng`) and contributes the resulting
    generator's bit-generator state *before any draws* — reading the
    state consumes nothing, and an ``int`` seed digests identically to
    the generator it creates.  ``None`` is normalized through a fresh
    entropy-seeded generator, so every unseeded request is unique (an
    unseeded run is not reproducible and must never be answered from a
    cache or resumed from a checkpoint).
    """
    if not isinstance(seed, np.random.Generator):
        seed = np.random.default_rng(seed)
    return json.loads(json.dumps(seed.bit_generator.state, default=str))


def config_digest(config) -> dict:
    """The bit-shaping slice of a config.

    Accepts a :class:`~repro.partitioner.config.PartitionerConfig` (its
    ``.model`` half is digested), a bare
    :class:`~repro.partitioner.config.ModelConfig`, or ``None`` for the
    defaults.  Execution policy can never leak into the digest: the
    fields are read off the ``ModelConfig`` dataclass itself.
    """
    import dataclasses

    from repro.partitioner.config import ModelConfig

    if config is None:
        model = ModelConfig()
    elif isinstance(config, ModelConfig):
        model = config
    else:
        model = config.model
    return {
        f.name: getattr(model, f.name) for f in dataclasses.fields(ModelConfig)
    }


def fingerprint(
    instance,
    config=None,
    seed=None,
    *,
    k: int | None = None,
    method: str | None = None,
    extra: dict | None = None,
) -> str:
    """SHA-256 identity of a decomposition request (hex string).

    Parameters
    ----------
    instance:
        A scipy sparse matrix or a :class:`Hypergraph` — fingerprinted by
        content, not by provenance.
    config:
        A :class:`PartitionerConfig` (or ``None`` for the defaults); only
        the bit-shaping fields participate.
    seed:
        ``int | numpy.random.Generator | None`` (see :func:`seed_digest`).
    k:
        Number of parts, when the request has one.
    method:
        Model/method name (``"finegrain"``, ``"columnnet"``, ...).
    extra:
        Optional extra JSON-serializable key material (e.g. per-method
        options that change the result).
    """
    doc = {
        "v": 1,
        "instance": instance_digest(instance),
        "cfg": config_digest(config),
        "seed": seed_digest(seed),
        "k": None if k is None else int(k),
        "method": method,
    }
    if extra:
        doc["extra"] = extra
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()
