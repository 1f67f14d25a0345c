"""Initial bisection of the coarsest hypergraph.

Two constructors, both run multiple times with different random seeds and
followed by FM refinement; the best feasible result wins:

* **GHG** — greedy hypergraph growing (PaToH's default): start with
  everything in part 1, then repeatedly pull the vertex whose move to part 0
  reduces the cut the most (FM gain), until part 0 reaches its target
  weight.  Equivalent to growing a cluster around a seed while accounting
  for net costs.
* **random** — random balanced assignment, useful as a diversifier.

Fixed vertices are pre-placed and never moved.
"""

from __future__ import annotations

import numpy as np

from repro._util import INDEX_DTYPE, as_rng
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.gainbucket import GainBucket
from repro.partitioner.refine import FMCore, fm_refine_bisection
from repro.telemetry import get_recorder

__all__ = ["ghg_bisection", "random_bisection", "initial_bisection"]


def _base_part(h: Hypergraph, fixed: np.ndarray | None) -> np.ndarray:
    part = np.ones(h.num_vertices, dtype=INDEX_DTYPE)
    if fixed is not None:
        locked = fixed >= 0
        part[locked] = fixed[locked]
    return part


def ghg_bisection(
    h: Hypergraph,
    target0: int,
    max0: int,
    rng: np.random.Generator | int | None = None,
    fixed: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy hypergraph growing: grow part 0 up to ``target0`` weight.

    A random seed vertex moves first, then the max-gain vertex of the
    :class:`~repro.partitioner.gainbucket.GainBucket` that still fits
    under ``max0``, with FM critical-net gain updates after each move.
    """
    rng = as_rng(rng)
    part = _base_part(h, fixed)
    core = FMCore(h, part, fixed)
    core.compute_all_gains()
    bound = core.max_gain_bound()
    b0 = GainBucket(h.num_vertices, bound)  # unused side, kept for symmetry
    b1 = GainBucket(h.num_vertices, bound)
    core.buckets = (b0, b1)
    core.insert_on_touch = False

    order = rng.permutation(h.num_vertices)
    for v in order:
        v = int(v)
        if core.free[v] and core.part[v] == 1:
            b1.insert(v, core.gain[v])

    w = core.w
    W = core.W
    # force a random seed vertex first so different starts explore
    # different regions even when many gains tie
    seeded = False
    while W[0] < target0 and len(b1):
        if not seeded:
            free1 = [int(v) for v in order if core.free[int(v)] and core.part[int(v)] == 1]
            if not free1:
                break
            v = free1[int(rng.integers(len(free1)))]
            seeded = True
        else:
            cap = max0 - W[0]
            v = b1.best(lambda u: w[u] <= cap)
            if v is None:
                break
        b1.remove(v)
        core.locked[v] = True  # each vertex enters part 0 at most once
        core.apply_move(v, update_gains=True)
    return core.part_array()


def random_bisection(
    h: Hypergraph,
    target0: int,
    max0: int,
    rng: np.random.Generator | int | None = None,
    fixed: np.ndarray | None = None,
) -> np.ndarray:
    """Random balanced bisection: fill part 0 greedily in random order."""
    rng = as_rng(rng)
    part = _base_part(h, fixed)
    w = h.vertex_weights
    W0 = int(w[part == 0].sum())
    for v in rng.permutation(h.num_vertices):
        if W0 >= target0:
            break
        v = int(v)
        if fixed is not None and fixed[v] >= 0:
            continue
        if W0 + w[v] <= max0:
            part[v] = 0
            W0 += int(w[v])
    return part


def initial_bisection(
    h: Hypergraph,
    targets: tuple[int, int],
    max_weights: tuple[int, int],
    cfg: PartitionerConfig,
    rng: np.random.Generator | int | None = None,
    fixed: np.ndarray | None = None,
) -> np.ndarray:
    """Best-of-N initial bisection (GHG and random starts, FM-refined).

    Candidates are ranked by (balance feasibility, cut); the winner is
    returned un-refined at the caller's level — refinement already happened
    here on the coarsest hypergraph.

    With ``cfg.initial_method == "exact"`` and a small enough coarsest
    hypergraph, the branch-and-bound bipartitioner of :mod:`repro.exact`
    is tried first under ``cfg.exact_initial_nodes``: a certified result
    is returned as-is (it is lexicographically optimal — no FM pass or
    extra start can beat it), and a budget-exhausted one is discarded in
    favor of the heuristic loop below.  The exact attempt consumes no
    RNG, so the fallback is bit-identical to ``initial_method="ghg"``.
    """
    rng = as_rng(rng)
    best_part: np.ndarray | None = None
    best_key: tuple[int, int] | None = None
    w = h.vertex_weights
    rec = get_recorder()
    if (
        cfg.initial_method == "exact"
        and h.num_vertices <= cfg.exact_initial_vertices
    ):
        from repro.exact import exact_bisection

        with rec.span(
            "initial.exact",
            vertices=h.num_vertices,
            budget=cfg.exact_initial_nodes,
        ) as sp:
            res = exact_bisection(
                h,
                targets=targets,
                max_weights=max_weights,
                fixed=fixed,
                max_nodes=cfg.exact_initial_nodes,
            )
            sp.set(proven=res.proven, nodes=res.nodes)
            if res.proven:
                sp.set(cut=res.cutsize, excess=res.excess)
                return res.part
    with rec.span(
        "initial",
        vertices=h.num_vertices,
        starts=cfg.n_initial_starts,
    ) as sp:
        for s in range(cfg.n_initial_starts):
            if s % 3 == 2:
                raw = random_bisection(h, targets[0], max_weights[0], rng, fixed)
            else:
                raw = ghg_bisection(h, targets[0], max_weights[0], rng, fixed)
            part, cut = fm_refine_bisection(h, raw, max_weights, cfg, rng, fixed)
            w0 = int(w[part == 0].sum())
            w1 = int(w.sum()) - w0
            excess = max(0, w0 - max_weights[0]) + max(0, w1 - max_weights[1])
            key = (excess, cut)
            if best_key is None or key < best_key:
                best_key = key
                best_part = part
        sp.set(cut=best_key[1], excess=best_key[0])
    assert best_part is not None
    return best_part
