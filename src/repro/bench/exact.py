"""Optimality-gap benchmark: ``python -m repro.bench exact``.

Runs the branch-and-bound exact bipartitioner of :mod:`repro.exact` to
certification on a corpus of tiny matrices — every hypergraph model per
matrix — then measures how far the multilevel heuristic lands from each
certified optimum, per model and per seed:

* ``gap``: heuristic cut minus certified optimal cut (0 = the heuristic
  found an optimum), with the lexicographic ``(excess, cut)`` key
  alongside so a balance-infeasible heuristic result is never scored as
  a win;
* ``nodes`` / ``certify_time``: B&B nodes expanded and wall-clock
  seconds to certify — the cost of ground truth;
* per-seed rows under both ``initial_method="ghg"`` (the default
  pipeline) and ``initial_method="exact"`` (the certified coarsest-level
  initial), which on instances this small must land exactly on the
  optimum.

The benchmark is also a solver audit: a multilevel key lexicographically
*below* a certified optimum is impossible, so any such row flips
``checks.no_impossible_wins`` and the command exits 1 — a B&B bug, not a
heuristic regression.  Output: ``BENCH_exact.json``.
"""

from __future__ import annotations

from statistics import mean

import numpy as np
import scipy.sparse as sp

from repro.bench.harness import host
from repro.core.finegrain import build_finegrain_model
from repro.exact import bisection_bounds, exact_bisection
from repro.hypergraph.partition import compute_part_weights, cutsize_connectivity
from repro.models.onedim import build_columnnet_model, build_rownet_model
from repro.partitioner import PartitionerConfig, partition_hypergraph

__all__ = ["run_exact_bench", "corpus_matrices"]

#: balance tolerance of every instance (the pipeline default)
EPSILON = 0.03

#: certification budget per instance; the corpus certifies far below it
CERTIFY_NODES = 5_000_000


def corpus_matrices() -> dict[str, sp.csr_matrix]:
    """The small-matrix corpus: structured shapes + seeded random fill.

    Kept a touch larger than the test fixtures (``tests/optimal_fixtures``)
    so the B&B node counts are non-trivial, yet small enough that every
    model certifies in well under a minute on one core.
    """
    mats: dict[str, sp.csr_matrix] = {}

    n = 8
    diag = np.ones(n)
    mats["tri8"] = sp.csr_matrix(
        sp.diags([diag[:-1], diag, diag[:-1]], [-1, 0, 1])
    )

    n = 8
    arrow = sp.lil_matrix((n, n))
    arrow[0, :] = 1.0
    arrow[:, 0] = 1.0
    arrow.setdiag(1.0)
    mats["arrow8"] = sp.csr_matrix(arrow)

    block = sp.block_diag((np.ones((4, 4)), np.ones((4, 4)))).tolil()
    block[3, 4] = 1.0
    block[4, 3] = 1.0
    mats["block2x4"] = sp.csr_matrix(block)

    for name, (n, dens, seed) in {
        "rand7": (7, 0.35, 41),
        "rand8": (8, 0.3, 42),
    }.items():
        a = sp.random(n, n, density=dens, format="csr", random_state=seed)
        a.data[:] = 1.0
        mats[name] = sp.csr_matrix(a)

    for a in mats.values():
        a.eliminate_zeros()
        a.sort_indices()
    return mats


def _models_for(a: sp.csr_matrix):
    yield "finegrain", build_finegrain_model(a, consistency=True).hypergraph
    yield "finegrain-rect", build_finegrain_model(a, consistency=False).hypergraph
    yield "columnnet", build_columnnet_model(a, consistency=True).hypergraph
    yield "rownet", build_rownet_model(a, consistency=True).hypergraph
    # the graph method is audited against the column-net hypergraph (the
    # true volume measure of any row partition) — same optimum by
    # construction, kept as its own row so the mapping stays visible
    yield "graph", build_columnnet_model(a, consistency=True).hypergraph


def _key(h, part, maxw) -> tuple[int, int]:
    w = compute_part_weights(h, part, 2)
    excess = int(max(0, int(w[0]) - maxw[0]) + max(0, int(w[1]) - maxw[1]))
    return (excess, int(cutsize_connectivity(h, part)))


def run_exact_bench(
    n_seeds: int = 3,
    progress=lambda s: None,
) -> dict:
    """Run the gap sweep; returns the JSON-ready benchmark document."""
    rows = []
    impossible: list[str] = []
    unproven: list[str] = []
    for mname, a in corpus_matrices().items():
        for model, h in _models_for(a):
            label = f"{mname}:{model}"
            progress(f"certifying {label} (V={h.num_vertices})")
            exact = exact_bisection(h, EPSILON, max_nodes=CERTIFY_NODES)
            if not exact.proven:
                # an uncertified corpus entry would make every gap below
                # meaningless; report it honestly and fail the checks
                unproven.append(label)
                continue
            _, maxw = bisection_bounds(h, EPSILON)
            optimum = (exact.excess, exact.cutsize)
            seeds = []
            for seed in range(n_seeds):
                row = {"seed": seed}
                for method, cfg in (
                    ("ghg", PartitionerConfig(epsilon=EPSILON)),
                    (
                        "exact",
                        PartitionerConfig(
                            epsilon=EPSILON,
                            initial_method="exact",
                            exact_initial_vertices=max(64, h.num_vertices),
                        ),
                    ),
                ):
                    res = partition_hypergraph(h, 2, cfg, seed=seed)
                    key = _key(h, res.part, maxw)
                    if key < optimum:
                        impossible.append(
                            f"{label} seed={seed} initial={method}: "
                            f"{key} < certified {optimum}"
                        )
                    row[method] = {
                        "excess": key[0],
                        "cut": key[1],
                        "gap": key[1] - exact.cutsize,
                        "optimal": key == optimum,
                    }
                seeds.append(row)
            rows.append(
                {
                    "matrix": mname,
                    "model": model,
                    "vertices": h.num_vertices,
                    "nets": h.num_nets,
                    "pins": h.num_pins,
                    "optimal_cut": exact.cutsize,
                    "optimal_excess": exact.excess,
                    "nodes": exact.nodes,
                    "certify_time": round(exact.runtime, 6),
                    "seeds": seeds,
                }
            )

    ghg_gaps = [s["ghg"]["gap"] for r in rows for s in r["seeds"]]
    exact_gaps = [s["exact"]["gap"] for r in rows for s in r["seeds"]]
    doc = {
        "bench": "exact",
        "epsilon": EPSILON,
        "certify_budget_nodes": CERTIFY_NODES,
        "n_seeds": n_seeds,
        "hardware": host(),
        "rows": rows,
        "summary": {
            "instances": len(rows),
            "mean_gap_ghg": round(mean(ghg_gaps), 4) if ghg_gaps else None,
            "mean_gap_exact_initial": (
                round(mean(exact_gaps), 4) if exact_gaps else None
            ),
            "optimal_rate_ghg": (
                round(
                    sum(s["ghg"]["optimal"] for r in rows for s in r["seeds"])
                    / len(ghg_gaps),
                    4,
                )
                if ghg_gaps
                else None
            ),
            "optimal_rate_exact_initial": (
                round(
                    sum(s["exact"]["optimal"] for r in rows for s in r["seeds"])
                    / len(exact_gaps),
                    4,
                )
                if exact_gaps
                else None
            ),
            "max_certify_nodes": max((r["nodes"] for r in rows), default=0),
            "total_certify_time": round(
                sum(r["certify_time"] for r in rows), 6
            ),
        },
        "checks": {
            # a heuristic beating a certified optimum is a solver bug
            "no_impossible_wins": not impossible,
            "impossible_wins": impossible,
            "all_certified": not unproven,
            "unproven": unproven,
        },
    }
    return doc
