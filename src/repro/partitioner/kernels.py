"""The routes each V-cycle phase can take (``repro.kernels()``).

Every V-cycle phase has one production implementation.  Matching keeps
a second one, because a recorded number shows it wins, and picks between
them from the level's structure alone — never from timing or a setting:
the *single-term* route on levels where every connectivity score is one
net's term (every fine-grain finest level), the *product* route
elsewhere: one blocked sparse product scores the whole level
(:func:`~repro.partitioner.coarsen.match_vertices`).

FM refinement, GHG initial bisection, K-way refinement and the coarse
build run one implementation each; the coarse build's is the *sort*
contraction (:func:`~repro.partitioner.coarsen.build_coarse`).  K-way
refinement's sweep (:func:`~repro.partitioner.kway.kway_refine`) scores
a vertex only when some net of nonzero cost holds it alone in its part.
That skip is exact: net costs are non-negative, so a vertex no net
holds alone has no positive-gain move.

The per-pin matcher and the scalar per-vertex K-way sweep stay as the
reference bodies the tests diff the production code against, so every
route produces the same bits.
"""

from __future__ import annotations

__all__ = ["PHASES", "kernel_info"]

#: per phase, the routes it can take (in the route-name vocabulary of the
#: ``coarsen.match`` span attribute; ``reference`` names a phase's one
#: implementation, ``sort`` the coarse build's)
PHASES = {
    "fm": ["reference"],
    "matching": ["single-term", "product"],
    "coarse_build": ["sort"],
    "initial": ["reference"],
    "kway": ["reference"],
}


def kernel_info() -> dict:
    """Static report of the V-cycle routes (``repro.kernels()``)::

        {"phases": {"fm": ["reference"],
                    "matching": ["single-term", "product"], ...}}

    The report is plain JSON data.
    """
    return {"phases": {phase: list(routes) for phase, routes in PHASES.items()}}
