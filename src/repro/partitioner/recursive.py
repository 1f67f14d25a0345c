"""K-way partitioning by recursive bisection with cut-net splitting.

The key correctness device is *cut-net splitting* (Çatalyürek & Aykanat,
TPDS 1999): after a bisection, each net keeps its pins **within each side**
when the sides are partitioned recursively (nets reduced to fewer than two
pins are dropped).  With this construction the sum of all bisection cuts
along the recursion tree equals the connectivity-minus-one cutsize (Eq. 3)
of the final K-way partition, so minimizing each bisection cut minimizes
the paper's exact communication-volume objective.

Arbitrary K is supported (not only powers of two) by splitting K into
``ceil(K/2)`` and ``floor(K/2)`` with proportional target weights.

Execution models
----------------
Both models walk one recursion body (:func:`_solve_node`) in depth-first
order; they differ only in where each node's randomness comes from.

*Legacy stream* (``cfg.tree_parallel=False``, the default): the caller's
one generator is every node's generator, consumed in depth-first visit
order — kept bit-compatible with the original implementation
(golden-partition suite).

*Seed-tree* (``cfg.tree_parallel=True``): each recursion node draws its
randomness from ``SeedSequence(root_entropy, spawn_key=tree_path)`` where
``tree_path`` is the 0/1 left/right path from the root.  Child seeds are a
function of the parent seed and the path — never of call order — so the
two subproblems a bisection produces are schedulable tasks: a
:class:`~repro.partitioner.pool.TreeScheduler` may run the right side on a
worker while the caller walks the left, and the result is **bit-identical**
to running the whole tree serially, at any worker count, on any backend.
A subtree task that fails is recomputed inline at once.
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import INDEX_DTYPE, as_rng
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioner.bisect import multilevel_bisect
from repro.partitioner.config import PartitionerConfig
from repro.telemetry import get_recorder
from repro.verify.faults import trip as _fault_trip

__all__ = ["partition_recursive", "extract_side", "bisection_epsilon"]

#: entropy range for the seed-tree root (any node RNG derives from this one
#: integer plus its tree path)
_ENTROPY_BOUND = 2**63 - 1


def bisection_epsilon(epsilon: float, k: int) -> float:
    """Per-bisection slack so the compounded K-way imbalance stays <= eps.

    With ``L = ceil(log2 K)`` bisection levels the per-level tolerance
    ``(1 + eps')^L = 1 + eps`` keeps the final part weights within Eq. 1.
    """
    levels = max(int(math.ceil(math.log2(max(k, 2)))), 1)
    return (1.0 + epsilon) ** (1.0 / levels) - 1.0


def extract_side(
    h: Hypergraph,
    part01: np.ndarray,
    side: int,
    fixed: np.ndarray | None = None,
) -> tuple[Hypergraph, np.ndarray, np.ndarray | None]:
    """Sub-hypergraph induced on one side of a bisection, with cut-net
    splitting.

    Returns ``(sub_h, vertex_ids, sub_fixed)`` where ``vertex_ids`` maps the
    sub-hypergraph's vertices back to *h*'s vertex ids.  Nets keep exactly
    their pins on *side*; nets left with fewer than two pins are removed
    (single-pin nets cannot contribute to any cut).
    """
    vmask = part01 == side
    vertex_ids = np.flatnonzero(vmask)
    old2new = np.full(h.num_vertices, -1, dtype=INDEX_DTYPE)
    old2new[vertex_ids] = np.arange(len(vertex_ids), dtype=INDEX_DTYPE)

    net_of_pin = h.net_of_pin()
    pin_on_side = vmask[h.pins]
    kept_nets_of_pin = net_of_pin[pin_on_side]
    kept_pins = old2new[h.pins[pin_on_side]]
    sizes = np.bincount(kept_nets_of_pin, minlength=h.num_nets)
    keep_net = sizes >= 2
    # filter pins belonging to dropped nets
    pin_keep = keep_net[kept_nets_of_pin]
    kept_pins = kept_pins[pin_keep]
    kept_sizes = sizes[keep_net]
    xpins = np.empty(len(kept_sizes) + 1, dtype=INDEX_DTYPE)
    xpins[0] = 0
    np.cumsum(kept_sizes, out=xpins[1:])
    sub = Hypergraph(
        len(vertex_ids),
        xpins,
        kept_pins,
        vertex_weights=h.vertex_weights[vertex_ids],
        net_costs=h.net_costs[keep_net],
        validate=False,
    )
    sub_fixed = fixed[vertex_ids] if fixed is not None else None
    return sub, vertex_ids, sub_fixed


def _split_targets(h: Hypergraph, k: int) -> tuple[int, int, int, int]:
    """``(k1, k2, t0, t1)``: side part counts and target weights."""
    k1 = (k + 1) // 2  # parts [0, k1) go to side 0
    k2 = k - k1
    total = h.total_vertex_weight()
    t0 = int(round(total * k1 / k))
    t1 = total - t0
    return k1, k2, t0, t1


def _side_fixed(
    fixed: np.ndarray | None, vertex_ids: np.ndarray, offset: int
) -> np.ndarray | None:
    if fixed is None:
        return None
    f = fixed[vertex_ids]
    return np.where(f >= 0, f - offset, -1).astype(INDEX_DTYPE)


def partition_recursive(
    h: Hypergraph,
    k: int,
    cfg: PartitionerConfig,
    rng: np.random.Generator | int | None = None,
    fixed: np.ndarray | None = None,
    scheduler=None,
) -> tuple[np.ndarray, list[int]]:
    """Partition *h* into *k* parts; returns ``(part, bisection_cuts)``.

    ``fixed`` pins vertices to final part ids in ``[0, k)``.
    ``bisection_cuts`` lists the cut of every bisection performed; their sum
    equals the connectivity-minus-one cutsize of the returned partition
    (property 4 of DESIGN.md, asserted by the test suite).  The cuts are
    listed in depth-first (root, left subtree, right subtree) order in both
    execution models, which is also the order the ``bisection`` spans open.

    ``scheduler`` (a :class:`~repro.partitioner.pool.TreeScheduler`) only
    matters with ``cfg.tree_parallel=True``; it may run subtrees on workers
    without changing a single bit of the output.
    """
    rng = as_rng(rng)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return np.zeros(h.num_vertices, dtype=INDEX_DTYPE), []
    eps_b = bisection_epsilon(cfg.epsilon, k)

    if cfg.tree_parallel:
        # one draw fixes the whole seed tree; everything below is a pure
        # function of (entropy, tree path) — execution order is irrelevant
        stream = int(rng.integers(0, _ENTROPY_BOUND))
    else:
        # the legacy stream only reproduces in visit order: nothing ships
        stream, scheduler = rng, None
    return _solve_node(h, k, cfg, stream, (), fixed, eps_b, scheduler)


def _node_rng(
    stream: int | np.random.Generator, path: tuple[int, ...]
) -> np.random.Generator:
    """The generator of the node at *path*: the legacy stream itself, or
    the seed tree's per-node one (a pure function of the path)."""
    if isinstance(stream, np.random.Generator):
        return stream
    return np.random.default_rng(np.random.SeedSequence(stream, spawn_key=path))


def _path_label(path: tuple[int, ...]) -> str:
    """Human-readable tree path for telemetry: root ``r``, children ``r0``…"""
    return "r" + "".join(str(b) for b in path)


def _solve_subtree(
    h: Hypergraph,
    k: int,
    cfg: PartitionerConfig,
    entropy: int,
    path: tuple[int, ...],
    fixed: np.ndarray | None,
    eps_b: float,
) -> tuple[np.ndarray, list[int]]:
    """Worker task body: solve one seed-tree subtree inline (top-level for
    pickling)."""
    _fault_trip("tree.task")
    return _solve_node(h, k, cfg, entropy, path, fixed, eps_b, None)


def _solve_node(
    h: Hypergraph,
    k: int,
    cfg: PartitionerConfig,
    stream: int | np.random.Generator,
    path: tuple[int, ...],
    fixed: np.ndarray | None,
    eps_b: float,
    sched,
) -> tuple[np.ndarray, list[int]]:
    """Solve the recursion node at *path*; *stream* is the legacy
    generator or the seed tree's root entropy (see :func:`_node_rng`)."""
    if k == 1:
        return np.zeros(h.num_vertices, dtype=INDEX_DTYPE), []
    k1, k2, t0, t1 = _split_targets(h, k)

    fixed01 = None
    if fixed is not None:
        fixed01 = np.where(fixed >= 0, (fixed >= k1).astype(INDEX_DTYPE), -1)

    rec = get_recorder()
    with rec.span(
        "bisection",
        k=k,
        vertices=h.num_vertices,
        nets=h.num_nets,
        path=_path_label(path),
        depth=len(path),
    ) as sp:
        part01, cut = multilevel_bisect(
            h, (t0, t1), eps_b, cfg, _node_rng(stream, path), fixed01
        )
        sp.set(cut=cut)

        sides = []
        for side, k_side, offset in ((0, k1, 0), (1, k2, k1)):
            sub, vertex_ids, _ = extract_side(h, part01, side)
            sides.append((k_side, offset, sub, vertex_ids,
                          _side_fixed(fixed, vertex_ids, offset)))

        # fork-one/walk-one: offer the right subtree to the pool, walk the
        # left one on this thread, then collect.  Declined offers (no slot,
        # too small, too deep) run inline — the bits cannot tell.
        k_r, off_r, sub_r, vids_r, fix_r = sides[1]
        fut = None
        if sched is not None and k_r > 1:
            fut = sched.offer(
                len(path), sub_r.num_vertices, _solve_subtree,
                sub_r, k_r, cfg, stream, path + (1,), fix_r, eps_b,
            )

        k_l, off_l, sub_l, vids_l, fix_l = sides[0]
        part_l, cuts_l = _solve_node(
            sub_l, k_l, cfg, stream, path + (0,), fix_l, eps_b, sched
        )

        if fut is None:
            part_r, cuts_r = _solve_node(
                sub_r, k_r, cfg, stream, path + (1,), fix_r, eps_b, sched
            )
        else:
            try:
                part_r, cuts_r = fut.result()
            except Exception:
                # a dead task (crashed, broken pool) is recomputed inline
                # at once; the seed tree makes that bit-identical
                rec.add("tree.task_failures")
                part_r, cuts_r = _solve_node(
                    sub_r, k_r, cfg, stream, path + (1,), fix_r, eps_b, None
                )

        part = np.zeros(h.num_vertices, dtype=INDEX_DTYPE)
        part[vids_l] = off_l + part_l
        part[vids_r] = off_r + part_r
        # depth-first cut order, independent of completion order
        cuts = [cut] + cuts_l + cuts_r
    return part, cuts
