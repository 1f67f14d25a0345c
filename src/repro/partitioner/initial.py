"""Initial bisection of the coarsest hypergraph.

Two constructors, both run multiple times with different random seeds and
followed by FM refinement; the best feasible result wins:

* **GHG** — greedy hypergraph growing (PaToH's default): start with
  everything in part 1, then repeatedly pull the vertex whose move to part 0
  reduces the cut the most (FM gain), until part 0 reaches its target
  weight.  Equivalent to growing a cluster around a seed while accounting
  for net costs.
* **random** — random balanced assignment, useful as a diversifier.

A GHG start's FM runs on the :class:`~repro.partitioner.refine.FMCore`
that GHG grew, starting from the cut GHG tracked; a random start builds
one core from its part vector.

Fixed vertices are pre-placed and never moved.
"""

from __future__ import annotations

import numpy as np

from repro._util import INDEX_DTYPE, as_rng
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.refine import FMCore, fm_refine_core
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

    A random seed vertex moves first, then the max-gain part-1 vertex of
    the :class:`~repro.partitioner.refine.FMBuckets` that still fits under
    ``max0``, with FM critical-net gain updates after each move.
    """
    core, _ = _grow(h, target0, max0, as_rng(rng), fixed)
    return core.part_array()


def _grow(
    h: Hypergraph,
    target0: int,
    max0: int,
    rng: np.random.Generator,
    fixed: np.ndarray | None,
) -> tuple[FMCore, int]:
    """GHG on a fresh core; returns the core and its cut after growth.

    The cut starts at construction's count and drops by each moved
    vertex's gain, which is exact: a vertex moves only while it is
    movable, and :meth:`FMCore.apply_move` keeps the gains of movable
    vertices current.
    """
    part = _base_part(h, fixed)
    core = FMCore(h, part, fixed)
    cut, arrays = core.setup
    gain = core.compute_all_gains(*arrays)
    bk = core.bk

    # the free part-1 vertices in a random order, linked in that order
    order = rng.permutation(h.num_vertices)
    order = order[(core.free & (part == 1))[order]]
    bk.load(order, 1, gain[order], touch=False)

    w, W, gl, count = core.w, core.W, core.gain, bk.count
    max0 = int(max0)
    # force a random seed vertex first so different starts explore
    # different regions even when many gains tie
    seeded = False
    while W[0] < target0 and count[1]:
        if not seeded:
            v = int(order[rng.integers(len(order))])
            seeded = True
        else:
            # side 0 is never stored, so this is side 1's capped walk
            v = bk.pick(w, 0, max0 - W[0], False)
            if v is None:
                break
        cut -= gl[v]
        # unlinks and locks v: each vertex enters part 0 at most once
        core.apply_move(v, grow=True)
    return core, cut


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
                core = FMCore(h, raw, fixed)
                cut, arrays = core.setup
            else:
                # one core serves the start: FM refines what GHG grew
                core, cut = _grow(h, targets[0], max_weights[0], rng, fixed)
                arrays = None
            cut = fm_refine_core(core, cut, max_weights, cfg, rng, arrays)
            W = core.W
            excess = max(0, W[0] - max_weights[0]) + max(0, W[1] - max_weights[1])
            key = (excess, cut)
            if best_key is None or key < best_key:
                best_key = key
                best_part = core.part_array()
        sp.set(cut=best_key[1], excess=best_key[0])
    assert best_part is not None
    return best_part
