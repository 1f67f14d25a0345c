"""Synthetic hypergraph generators for the test suite.

Standalone hypergraph instances for exercising the partitioner outside the
sparse-matrix models: random uniform hypergraphs, planted-partition
instances with known good cuts (for quality regression tests), and a
clique-chain family.
"""

from __future__ import annotations

import numpy as np

from repro._util import INDEX_DTYPE, as_rng, check_positive, prefix_from_counts
from repro.hypergraph.hypergraph import Hypergraph

__all__ = [
    "random_uniform_hypergraph",
    "planted_partition_hypergraph",
    "clique_chain_hypergraph",
]


def random_uniform_hypergraph(
    num_vertices: int,
    num_nets: int,
    net_size: int,
    weighted: bool = False,
    seed: int | np.random.Generator | None = None,
) -> Hypergraph:
    """Nets drawn uniformly: each net pins ``net_size`` distinct vertices.

    The classic hard instance — no structure to exploit, cuts stay high.
    """
    check_positive("num_vertices", num_vertices)
    if net_size > num_vertices:
        raise ValueError("net_size cannot exceed num_vertices")
    rng = as_rng(seed)
    pins = np.concatenate(
        [
            rng.choice(num_vertices, size=net_size, replace=False)
            for _ in range(num_nets)
        ]
    ) if num_nets else np.empty(0, dtype=INDEX_DTYPE)
    xpins = prefix_from_counts([net_size] * num_nets)
    weights = rng.integers(1, 4, size=num_vertices) if weighted else None
    costs = rng.integers(1, 3, size=num_nets) if weighted else None
    return Hypergraph(
        num_vertices, xpins, pins.astype(INDEX_DTYPE),
        vertex_weights=weights, net_costs=costs,
    )


def planted_partition_hypergraph(
    num_parts: int,
    vertices_per_part: int,
    nets_per_part: int,
    net_size: int,
    cross_nets: int,
    seed: int | np.random.Generator | None = None,
) -> tuple[Hypergraph, np.ndarray, int]:
    """A hypergraph with a planted K-way partition of known cutsize.

    Each part gets ``nets_per_part`` internal nets; ``cross_nets``
    additional nets each span two adjacent parts (one pin on each side plus
    fill within the first).  Returns ``(h, planted_part, planted_cutsize)``
    where ``planted_cutsize`` is the connectivity-minus-one cutsize of the
    planted partition — an upper bound on the optimum the partitioner
    should get close to.
    """
    check_positive("num_parts", num_parts)
    check_positive("vertices_per_part", vertices_per_part)
    if net_size > vertices_per_part:
        raise ValueError("net_size cannot exceed vertices_per_part")
    rng = as_rng(seed)
    nv = num_parts * vertices_per_part
    netlists: list[np.ndarray] = []
    for p in range(num_parts):
        base = p * vertices_per_part
        for _ in range(nets_per_part):
            netlists.append(
                base + rng.choice(vertices_per_part, size=net_size, replace=False)
            )
    for i in range(cross_nets):
        p = i % max(num_parts - 1, 1)
        a = p * vertices_per_part + int(rng.integers(vertices_per_part))
        b = (p + 1) * vertices_per_part + int(rng.integers(vertices_per_part))
        netlists.append(np.asarray([a, b]))
    counts = [len(nl) for nl in netlists]
    xpins = prefix_from_counts(counts)
    pins = (
        np.concatenate(netlists).astype(INDEX_DTYPE)
        if netlists
        else np.empty(0, dtype=INDEX_DTYPE)
    )
    h = Hypergraph(nv, xpins, pins)
    planted = np.repeat(np.arange(num_parts, dtype=INDEX_DTYPE), vertices_per_part)
    cut = cross_nets if num_parts > 1 else 0
    return h, planted, cut


def clique_chain_hypergraph(
    num_cliques: int, clique_size: int
) -> tuple[Hypergraph, int]:
    """A chain of clique nets joined by 2-pin link nets.

    Splitting the chain into ``num_cliques`` parts cuts only link nets, so
    the optimal K-way cutsize (K = num_cliques) is ``num_cliques - 1``.
    Returns ``(h, optimal_cutsize_for_k_equal_cliques)``.
    """
    check_positive("num_cliques", num_cliques)
    check_positive("clique_size", clique_size)
    nv = num_cliques * clique_size
    netlists: list[list[int]] = []
    for b in range(num_cliques):
        base = b * clique_size
        netlists.append(list(range(base, base + clique_size)))
        if b + 1 < num_cliques:
            netlists.append([base + clique_size - 1, base + clique_size])
    counts = [len(nl) for nl in netlists]
    xpins = prefix_from_counts(counts)
    pins = np.concatenate([np.asarray(nl, dtype=INDEX_DTYPE) for nl in netlists])
    return Hypergraph(nv, xpins, pins), num_cliques - 1
