"""K-way partition refinement: improve a *given* partition.

Recursive bisection builds a partition from nothing; this module improves
one that already exists, by pairwise FM between parts plus the direct
greedy K-way pass.  Two uses:

* **V-cycle K-way refinement** — polish the output of recursive bisection;
* **seeded fine-grain partitioning** — start the fine-grain model from the
  partition induced by a 1D model (every 1D decomposition is a point in
  the fine-grain solution space), guaranteeing the refined 2D result is at
  least as good as the 1D one.  The paper itself never does this; it is the
  natural "planned modification" its §4 alludes to, benchmarked as ablation
  A7.

The pairwise pass sweeps adjacent part pairs (those sharing cut nets) and
runs 2-way FM on the sub-hypergraph they induce, with all other parts
frozen.  Cut-net splitting semantics are preserved by keeping each net's
pins in the two active parts and dropping the rest — exactly the
construction whose cut equals the pair's contribution to Eq. 3.
"""

from __future__ import annotations

import numpy as np

from repro._util import INDEX_DTYPE, as_rng, prefix_from_counts
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import cutsize_connectivity
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.kway import kway_refine
from repro.partitioner.recursive import extract_side
from repro.partitioner.refine import fm_refine_bisection
from repro.telemetry import get_recorder

__all__ = ["refine_partition", "pairwise_refine"]


def _adjacent_pairs(h: Hypergraph, part: np.ndarray, k: int) -> list[tuple[int, int]]:
    """Part pairs connected by at least one cut net, heaviest first.

    One global ``np.unique`` over ``net * k + part`` replaces a per-net
    unique: the sorted keys group by net (ascending) with distinct parts
    ascending within each group — the exact net/pair encounter order of the
    per-net loop, so dict insertion order and the stable heaviest-first
    sort's tie-breaks are unchanged.
    """
    weight: dict[tuple[int, int], int] = {}
    if h.num_pins:
        key = h.net_of_pin() * np.int64(k) + part[h.pins]
        uniq = np.unique(key)
        unet = uniq // k
        counts = np.bincount(unet, minlength=h.num_nets)
        starts = prefix_from_counts(counts).tolist()
        upart = (uniq % k).tolist()
        costs = h.net_costs
        for j in np.flatnonzero(counts >= 2).tolist():
            lo, hi = starts[j], starts[j + 1]
            c = int(costs[j])
            ps = upart[lo:hi]
            for a in range(len(ps)):
                pa = ps[a]
                for b in range(a + 1, len(ps)):
                    pair = (pa, ps[b])
                    weight[pair] = weight.get(pair, 0) + c
    return [p for p, _ in sorted(weight.items(), key=lambda kv: -kv[1])]


def pairwise_refine(
    h: Hypergraph,
    part: np.ndarray,
    k: int,
    cfg: PartitionerConfig,
    rng: np.random.Generator,
    fixed: np.ndarray | None = None,
) -> np.ndarray:
    """One sweep of pairwise 2-way FM over adjacent part pairs."""
    part = np.asarray(part, dtype=INDEX_DTYPE).copy()
    w = h.vertex_weights
    total = int(w.sum())
    maxw_part = int((total / k) * (1.0 + cfg.epsilon))
    pairs = _adjacent_pairs(h, part, k)
    pairwise_span = get_recorder().span("kway.pairwise", k=k, pairs=len(pairs))
    with pairwise_span:
        part = _refine_pairs(h, part, pairs, maxw_part, cfg, rng, fixed)
    return part


def _refine_pairs(h, part, pairs, maxw_part, cfg, rng, fixed):
    for pa, pb in pairs:
        sel = (part == pa) | (part == pb)
        side01 = np.where(part == pb, 1, 0)
        # reuse extract_side's cut-net splitting: mark the pair as side 0
        sub, ids, _ = extract_side(h, np.where(sel, 0, 1), 0)
        if sub.num_vertices == 0:
            continue
        sub_part = side01[ids]
        sub_fixed = fixed[ids] if fixed is not None else None
        if sub_fixed is not None:
            # fixed ids are final parts; map to the local 0/1 sides
            sub_fixed = np.where(
                sub_fixed == pa, 0, np.where(sub_fixed == pb, 1, -1)
            ).astype(INDEX_DTYPE)
        new_sub, _ = fm_refine_bisection(
            sub, sub_part, (maxw_part, maxw_part), cfg, rng, sub_fixed
        )
        part[ids] = np.where(new_sub == 1, pb, pa)
    return part


def refine_partition(
    h: Hypergraph,
    part: np.ndarray,
    k: int,
    config: PartitionerConfig | None = None,
    seed: int | np.random.Generator | None = None,
    sweeps: int = 2,
) -> np.ndarray:
    """Improve a given K-way partition; never returns a worse cutsize.

    Alternates pairwise FM sweeps with the direct greedy K-way pass until
    no sweep improves (at most *sweeps* rounds).  Fixed vertices are taken
    from ``h.fixed``.
    """
    cfg = config or PartitionerConfig()
    rng = as_rng(seed)
    part = np.asarray(part, dtype=INDEX_DTYPE).copy()
    if k <= 1 or h.num_vertices == 0:
        return part
    fixed = h.fixed
    best = part
    best_cut = cutsize_connectivity(h, best)
    rec = get_recorder()
    for sweep in range(max(sweeps, 0)):
        with rec.span("kway.sweep", sweep=sweep) as sp:
            cand = pairwise_refine(h, best, k, cfg, rng, fixed=fixed)
            cand = kway_refine(h, cand, k, cfg, rng, fixed=fixed)
            cut = cutsize_connectivity(h, cand)
            sp.set(cut=cut)
        if cut >= best_cut:
            break
        best, best_cut = cand, cut
    return best
