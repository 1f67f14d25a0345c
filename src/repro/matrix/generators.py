"""Parameterized structural families of sparse matrices.

The paper evaluates on 14 matrices from the Harwell–Boeing, netlib LP and UF
collections.  Those files are not redistributable here, so this module
provides deterministic generators for the *structural classes* the test set
covers.  What drives the relative behaviour of the decomposition models is
the sparsity structure — bandedness, dense rows/columns, block coupling,
degree skew — and each generator reproduces one such class with tunable
statistics (size, nonzero count, min/max degree).

All generators:

* are deterministic given ``seed``;
* return ``scipy.sparse.csr_matrix`` with strictly positive values (no
  accidental explicit zeros);
* are square (the paper's kernel is ``y = A x`` with conformal x/y
  distributions, which requires square matrices);
* do **not** force a full diagonal — the fine-grain model's dummy-vertex
  mechanism for zero diagonals (§3 last paragraph) must see real work.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro._util import as_rng, check_positive

__all__ = [
    "stencil_3d",
    "geometric_graph_matrix",
    "skewed_lp_matrix",
    "staircase_matrix",
    "block_arrow_matrix",
    "banded_fem_matrix",
]


def _finalize(
    rows: np.ndarray, cols: np.ndarray, n: int, rng: np.random.Generator
) -> sp.csr_matrix:
    """Deduplicate (row, col) pairs and attach positive random values.

    Every generated matrix is guaranteed to have at least one nonzero in
    every row and every column (as all of the paper's test matrices do): a
    diagonal entry is inserted for any row or column left empty by the
    random sampling.
    """
    key = rows * n + cols
    uniq = np.unique(key)
    r = uniq // n
    c = uniq % n
    row_empty = np.ones(n, dtype=bool)
    row_empty[r] = False
    col_empty = np.ones(n, dtype=bool)
    col_empty[c] = False
    patch = np.flatnonzero(row_empty | col_empty)
    if len(patch):
        r = np.concatenate([r, patch])
        c = np.concatenate([c, patch])
        key = r * n + c
        uniq = np.unique(key)
        r = uniq // n
        c = uniq % n
    vals = rng.uniform(0.1, 1.0, size=len(uniq))
    return sp.csr_matrix((vals, (r, c)), shape=(n, n))


def stencil_3d(
    nx: int,
    ny: int,
    nz: int,
    keep_prob: float = 1.0,
    diag_prob: float = 1.0,
    seed: int | np.random.Generator | None = None,
) -> sp.csr_matrix:
    """7-point finite-difference stencil on an ``nx x ny x nz`` grid.

    ``keep_prob`` randomly removes off-diagonal couples (symmetrically), as
    happens in reservoir models like *sherman3* where inactive cells thin the
    stencil.  ``diag_prob`` keeps each diagonal entry with that probability.
    """
    check_positive("nx", nx)
    check_positive("ny", ny)
    check_positive("nz", nz)
    rng = as_rng(seed)
    n = nx * ny * nz
    idx = np.arange(n)
    iz = idx % nz
    iy = (idx // nz) % ny
    ix = idx // (ny * nz)

    rows_list = []
    cols_list = []
    # neighbours in +x, +y, +z; the symmetric partner is added explicitly
    for mask, offset in (
        (ix < nx - 1, ny * nz),
        (iy < ny - 1, nz),
        (iz < nz - 1, 1),
    ):
        src = idx[mask]
        dst = src + offset
        keep = rng.random(len(src)) < keep_prob
        rows_list.append(src[keep])
        cols_list.append(dst[keep])
        rows_list.append(dst[keep])
        cols_list.append(src[keep])
    dmask = rng.random(n) < diag_prob
    rows_list.append(idx[dmask])
    cols_list.append(idx[dmask])
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    return _finalize(rows, cols, n, rng)


def geometric_graph_matrix(
    n: int,
    avg_degree: float = 4.0,
    max_degree: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> sp.csr_matrix:
    """Random geometric graph adjacency + diagonal — a power-grid analogue.

    Points are placed uniformly in the unit square and connected within a
    radius chosen so the expected off-diagonal degree matches
    ``avg_degree``.  The spatial locality gives the low, nearly uniform
    degrees and good separators characteristic of *bcspwr10*.
    """
    check_positive("n", n)
    check_positive("avg_degree", avg_degree)
    # local import: scipy.spatial loads scipy.linalg (~15 MB) and only bcspwr10 needs it
    from scipy.spatial import cKDTree

    rng = as_rng(seed)
    pts = rng.random((n, 2))
    # expected neighbours within radius r: n * pi * r^2 (ignoring borders)
    radius = np.sqrt(avg_degree / (np.pi * n))
    tree = cKDTree(pts)
    pairs = tree.query_pairs(r=radius, output_type="ndarray")
    if max_degree is not None and len(pairs):
        deg = np.bincount(pairs.ravel(), minlength=n)
        # drop pairs touching over-full vertices, highest-degree first; one
        # pass is enough for the gentle caps used by the collection
        over = deg > max_degree
        keep = ~(over[pairs[:, 0]] | over[pairs[:, 1]])
        pairs = pairs[keep]
    rows = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(n)])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(n)])
    return _finalize(rows, cols, n, rng)


def _powerlaw_degrees(
    n: int,
    nnz: int,
    dmin: int,
    dmax: int,
    alpha: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Degrees in ``[dmin, dmax]`` summing (approximately) to *nnz* with a
    power-law tail ``P(d) ~ d^-alpha``."""
    support = np.arange(dmin, dmax + 1, dtype=np.float64)
    probs = support ** (-alpha)
    probs /= probs.sum()
    deg = rng.choice(support.astype(np.int64), size=n, p=probs)
    # rescale towards the target total while respecting the bounds
    total = deg.sum()
    if total > 0:
        scaled = np.clip(np.round(deg * (nnz / total)), dmin, dmax).astype(np.int64)
        deg = scaled
    # pin a couple of entries at the extreme so the generated max degree
    # matches the calibration target instead of being softened by rescaling
    if n >= 4 and dmax > dmin:
        deg[rng.choice(n, size=2, replace=False)] = dmax
    # fine-tune the sum by incrementing/decrementing random entries
    diff = int(nnz - deg.sum())
    idx = rng.permutation(n)
    step = 1 if diff > 0 else -1
    i = 0
    while diff != 0 and i < 4 * n:
        v = idx[i % n]
        nd = deg[v] + step
        if dmin <= nd <= dmax:
            deg[v] = nd
            diff -= step
        i += 1
    return deg


def skewed_lp_matrix(
    n: int,
    nnz: int,
    max_degree: int,
    min_degree: int = 1,
    alpha: float = 1.8,
    block_size: int = 32,
    branching: int = 4,
    coupling: float = 0.35,
    seed: int | np.random.Generator | None = None,
) -> sp.csr_matrix:
    """Square matrix with power-law degrees and *hierarchical* block
    locality.

    This is the structural class of the netlib LP constraint matrices in
    the test set (*nl*, *cq9*, *co9*, *cre-b*, *cre-d*, *mod2*, *world*,
    *ken-11*, *ken-13*): most rows/columns have a handful of nonzeros, a
    few are very dense (``max_degree`` up to ~10% of n) — and, crucially,
    the constraints factor into nearly independent commodity / scenario /
    period blocks *nested at several granularities*.  A pure configuration
    model would erase that locality — and with it everything the paper's
    partitioners exploit — so the degree-matched pairing is planted on a
    block hierarchy: aligned row/column blocks of ``block_size`` at the
    finest level, merged by ``branching`` per level up to the whole matrix.
    Each entry escapes to the next-coarser level with probability
    ``coupling``, giving scale-invariant locality (the hierarchy deepens
    with n rather than the blocks dilating).

    Both row and column degree sequences follow the truncated power law,
    so the dense rows/columns of the real LPs are reproduced as well.
    """
    check_positive("n", n)
    check_positive("nnz", nnz)
    check_positive("block_size", block_size)
    if max_degree >= n:
        raise ValueError("max_degree must be < n")
    if not (0 <= coupling <= 1):
        raise ValueError("coupling must be in [0, 1]")
    if branching < 2:
        raise ValueError("branching must be >= 2")
    rng = as_rng(seed)
    row_deg = _powerlaw_degrees(n, nnz, min_degree, max_degree, alpha, rng)
    col_deg = _powerlaw_degrees(n, nnz, min_degree, max_degree, alpha, rng)
    row_stubs = np.repeat(np.arange(n), row_deg)
    col_stubs = np.sort(np.repeat(np.arange(n), col_deg))

    # level widths: block_size, block_size*branching, ..., then global
    widths = []
    w = int(block_size)
    while w < n:
        widths.append(w)
        w *= int(branching)
    widths.append(n)  # the global level
    n_levels = len(widths)
    widths_arr = np.asarray(widths, dtype=np.int64)

    # a vertex of degree d cannot realize d distinct partners inside a
    # block narrower than ~3d: such stubs (the global coupling rows/columns
    # of real LPs) are escalated to a level that can host their degree
    def min_levels_for(deg):
        return np.searchsorted(widths_arr, 3 * deg, side="left").clip(
            0, n_levels - 1
        )

    row_min_level = min_levels_for(row_deg)
    col_min_level = min_levels_for(col_deg)

    def draw_partners(driving, min_level, partner_stubs):
        """Partner per driving stub from its hierarchical neighbourhood.

        Escape level ~ truncated geometric(coupling), floored at the
        driving vertex's min level; the partner is a degree-weighted stub
        (of the other axis) within the block at that level.
        """
        m = len(driving)
        lvl = np.minimum(
            rng.geometric(1.0 - coupling, size=m) - 1, n_levels - 1
        )
        lvl = np.maximum(lvl, min_level[driving])
        width = widths_arr[lvl]
        blk_lo = (driving // width) * width
        blk_hi = np.minimum(blk_lo + width, n)
        lo = np.searchsorted(partner_stubs, blk_lo)
        hi = np.searchsorted(partner_stubs, blk_hi)
        empty = hi <= lo  # block holds no stubs -> fall back global
        lo = np.where(empty, 0, lo)
        hi = np.where(empty, len(partner_stubs), hi)
        idx = lo + (rng.random(m) * (hi - lo)).astype(np.int64)
        out = partner_stubs[np.minimum(idx, len(partner_stubs) - 1)]
        # strongly escalated drivers are the global coupling rows/columns
        # of the LP: they touch *distinct* partners nearly uniformly, so a
        # degree-weighted pick (which piles onto other dense vertices and
        # dedupes away) would never let them realize their degree
        um = min_level[driving] >= 2
        if um.any():
            out[um] = blk_lo[um] + (
                rng.random(int(um.sum())) * (blk_hi[um] - blk_lo[um])
            ).astype(np.int64)
        return out

    # every stub drives once in each direction, so dense rows AND dense
    # columns both realize their degrees; the overshoot from generating
    # ~2x nnz candidates is subsampled back down, which scales all degrees
    # by a common factor and so preserves the distribution shape
    row_stubs_sorted = np.sort(row_stubs)
    rdrive = row_stubs.copy()
    rng.shuffle(rdrive)
    cdrive = col_stubs.copy()
    rng.shuffle(cdrive)
    rows = np.concatenate(
        [rdrive, draw_partners(cdrive, col_min_level, row_stubs_sorted)]
    )
    cols = np.concatenate(
        [draw_partners(rdrive, row_min_level, col_stubs), cdrive]
    )
    key = np.unique(rows * n + cols)
    if len(key) > nnz:
        # protect the entries of the pinned extreme-degree rows/columns so
        # the subsampling does not dilute the calibrated max degree
        top_rows = np.argsort(row_deg)[-2:]
        top_cols = np.argsort(col_deg)[-2:]
        protected = np.isin(key // n, top_rows) | np.isin(key % n, top_cols)
        prot = key[protected]
        rest = key[~protected]
        take = max(nnz - len(prot), 0)
        if take < len(rest):
            rest = rng.choice(rest, size=take, replace=False)
        key = np.concatenate([prot, rest])
    else:
        # rare: top up with fresh row-driven draws
        for _ in range(4):
            deficit = nnz - len(key)
            if deficit <= max(nnz // 100, 1):
                break
            er = rng.choice(row_stubs, size=int(deficit * 1.3))
            ec = draw_partners(er, row_min_level, col_stubs)
            key = np.unique(np.concatenate([key, er * n + ec]))
        if len(key) > nnz:
            key = rng.choice(key, size=nnz, replace=False)
    return _finalize(key // n, key % n, n, rng)


def staircase_matrix(
    n_stages: int,
    rows_per_stage: int,
    avg_row_nnz: float = 10.0,
    min_row_nnz: int = 1,
    coupling: float = 0.35,
    col_skew: float = 1.0,
    seed: int | np.random.Generator | None = None,
) -> sp.csr_matrix:
    """Staircase-structured matrix of a multistage stochastic program.

    Rows of stage *t* reference columns of stage *t* (probability
    ``1 - coupling``) and stage *t+1* (probability ``coupling``), as in the
    *pltexpA4-6* planning models: a banded block bidiagonal "staircase".
    ``col_skew > 1`` concentrates references on the low-index columns of
    each stage (the shared "linking" variables), producing the dense
    columns the real models have.
    """
    check_positive("n_stages", n_stages)
    check_positive("rows_per_stage", rows_per_stage)
    rng = as_rng(seed)
    n = n_stages * rows_per_stage
    lam = max(avg_row_nnz - min_row_nnz, 0.1)
    row_nnz = rng.poisson(lam, size=n) + min_row_nnz
    rows = np.repeat(np.arange(n), row_nnz)
    stage_of = rows // rows_per_stage
    go_next = (rng.random(len(rows)) < coupling) & (stage_of < n_stages - 1)
    target_stage = stage_of + go_next.astype(np.int64)
    u = rng.random(len(rows))
    within = np.minimum(
        (u**col_skew * rows_per_stage).astype(np.int64), rows_per_stage - 1
    )
    cols = target_stage * rows_per_stage + within
    return _finalize(rows, cols, n, rng)


def block_arrow_matrix(
    n_blocks: int,
    block_size: int,
    border: int,
    intra_degree: float = 6.0,
    border_degree_min: int = 16,
    border_degree_max: int = 1024,
    seed: int | np.random.Generator | None = None,
) -> sp.csr_matrix:
    """Block-diagonal matrix with a coupling border (arrowhead).

    The structural class of *finan512* (financial portfolio optimization):
    hundreds of nearly independent sparse blocks plus ``border`` coupling
    rows/columns whose degrees are drawn log-uniformly from
    ``[border_degree_min, border_degree_max]``, so a handful of rows touch a
    large fraction of all blocks while the typical degree stays tiny.
    """
    check_positive("n_blocks", n_blocks)
    check_positive("block_size", block_size)
    rng = as_rng(seed)
    core = n_blocks * block_size
    n = core + border
    # intra-block sparse symmetric couples
    nnz_block = int(core * intra_degree / 2)
    blk = rng.integers(0, n_blocks, size=nnz_block)
    r_in = rng.integers(0, block_size, size=nnz_block)
    c_in = rng.integers(0, block_size, size=nnz_block)
    br = blk * block_size + r_in
    bc = blk * block_size + c_in
    diag = np.arange(n)
    parts_r = [br, bc, diag]
    parts_c = [bc, br, diag]
    if border > 0:
        lo = np.log(border_degree_min)
        hi = np.log(max(border_degree_max, border_degree_min + 1))
        bdeg = np.exp(rng.uniform(lo, hi, size=border)).astype(np.int64)
        bdeg = np.clip(bdeg, 1, core - 1)
        bro = np.repeat(np.arange(core, n), bdeg)
        bco = rng.integers(0, core, size=len(bro))
        parts_r += [bro, bco]
        parts_c += [bco, bro]
    rows = np.concatenate(parts_r)
    cols = np.concatenate(parts_c)
    return _finalize(rows, cols, n, rng)


def banded_fem_matrix(
    n: int,
    bandwidth: int,
    avg_degree: float = 20.0,
    min_degree: int = 9,
    max_degree: int = 120,
    seed: int | np.random.Generator | None = None,
) -> sp.csr_matrix:
    """Banded symmetric-pattern matrix with variable row density.

    The structural class of *vibrobox* (vibro-acoustic FEM): every row
    couples only within a bandwidth window, with row densities spread
    between ``min_degree`` and ``max_degree`` around ``avg_degree``.
    """
    check_positive("n", n)
    check_positive("bandwidth", bandwidth)
    rng = as_rng(seed)
    # sample target half-degrees per row: a pareto tail on top of the
    # minimum, scaled so the mean lands near avg_degree / 2
    base = max((min_degree - 1) // 2, 1)
    pareto_mean = 1.0 / (2.5 - 1.0)
    scale = max((avg_degree / 2.0 - base) / pareto_mean, 0.0)
    half = (base + rng.pareto(2.5, size=n) * scale).astype(np.int64)
    half = np.clip(half, base, max_degree // 2)
    rows = np.repeat(np.arange(n), half)
    span = min(bandwidth, n - 1)
    offsets = rng.integers(1, span + 1, size=len(rows))
    cols = rows + offsets * rng.choice([-1, 1], size=len(rows))
    # drop (rather than clamp) out-of-range targets: clamping would pile
    # entries onto columns 0 and n-1 and blow past max_degree there
    ok = (cols >= 0) & (cols < n)
    rows, cols = rows[ok], cols[ok]
    diag = np.arange(n)
    all_rows = np.concatenate([rows, cols, diag])
    all_cols = np.concatenate([cols, rows, diag])
    return _finalize(all_rows, all_cols, n, rng)
